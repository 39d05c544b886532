//! Deliberately defective queue variants proving the model checker's
//! teeth (test-tree only: no production crate compiles them).
//!
//! Each [`Defect`] plants one classic concurrency bug in an otherwise
//! idiomatic bounded-queue skeleton built from the same
//! `gnnlab_core::sync` façade the real
//! [`GlobalQueue`](gnnlab_core::queue::GlobalQueue) uses (the root
//! package's dev-dependency enables core's `chk` feature, so the façade
//! resolves to the checker's model types). The regression tests in
//! `main.rs` assert that `gnnlab_chk::check` *finds* these bugs — if a
//! refactor of the checker ever stops catching them, that suite fails,
//! not a production run.

use gnnlab_core::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// Which bug to plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// `enqueue` notifies only on the empty→non-empty transition — the
    /// textbook "optimized" wakeup that loses a signal when two items
    /// arrive while two consumers wait. One consumer sleeps forever
    /// with work available: the checker reports a deadlock.
    LostWakeup,
    /// The first `dequeue` forgets to pop the item it returns, so the
    /// next consumer receives the same task again — an exactly-once
    /// violation the model test's assertion turns into a panic report.
    DoubleDelivery,
}

struct BrokenState<T> {
    items: VecDeque<T>,
    delivered: u64,
}

/// An unbounded blocking queue with one seeded bug; see [`Defect`].
pub struct BrokenQueue<T> {
    state: Mutex<BrokenState<T>>,
    not_empty: Condvar,
    defect: Defect,
}

impl<T: Clone> BrokenQueue<T> {
    /// Builds a queue exhibiting `defect`.
    pub fn new(defect: Defect) -> Self {
        BrokenQueue {
            state: Mutex::new(BrokenState {
                items: VecDeque::new(),
                delivered: 0,
            }),
            not_empty: Condvar::new(),
            defect,
        }
    }

    /// Enqueues one item.
    pub fn enqueue(&self, item: T) {
        let mut state = self.state.lock();
        let was_empty = state.items.is_empty();
        state.items.push_back(item);
        drop(state);
        match self.defect {
            // BUG(LostWakeup): only the empty→non-empty edge signals, so
            // the second of two back-to-back enqueues wakes nobody even
            // if a second consumer is parked.
            Defect::LostWakeup => {
                if was_empty {
                    self.not_empty.notify_one();
                }
            }
            Defect::DoubleDelivery => self.not_empty.notify_all(),
        }
    }

    /// Blocks until an item is available and returns it.
    pub fn dequeue(&self) -> T {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.front().cloned() {
                let first = state.delivered == 0;
                state.delivered += 1;
                match self.defect {
                    // BUG(DoubleDelivery): the first delivery forgets to
                    // pop, so the item is handed out twice.
                    Defect::DoubleDelivery if first => {}
                    _ => {
                        state.items.pop_front();
                    }
                }
                return item;
            }
            self.not_empty.wait(&mut state);
        }
    }
}
