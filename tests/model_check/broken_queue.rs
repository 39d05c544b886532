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
//!
//! [`WatermarkQueue`] is the second skeleton: the bounded queue's wake
//! rule (waiter counts + low watermark) with a [`WakeDefect`] of its own.

use gnnlab_core::sync::{Condvar, Mutex, MutexGuard};
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

/// Which bug to plant in the [`WatermarkQueue`] wake rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeDefect {
    /// A pop wakes the parked producer when the depth *equals* half the
    /// capacity instead of when it is at or under it. A pop of two steps
    /// over the mark, nobody is woken, the consumer drains the queue and
    /// parks: the checker reports a deadlock.
    MarkEquality,
    /// A timed pop that times out returns without giving its waiter count
    /// back. Nothing is lost — every later enqueue just notifies for a
    /// consumer that is not there — so only the quiescent-point assertion
    /// on the counts can see it: the checker reports that panic.
    StaleWaiterCount,
}

struct WatermarkState<T> {
    items: VecDeque<T>,
    closed: bool,
    parked_producers: usize,
    parked_consumers: usize,
}

/// A bounded blocking queue that wakes only who is parked, and producers
/// only at the low watermark — `GlobalQueue`'s rule, hand-rolled so one
/// [`WakeDefect`] can be planted in it (`None` is the correct rule).
pub struct WatermarkQueue<T> {
    state: Mutex<WatermarkState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    defect: Option<WakeDefect>,
}

impl<T> WatermarkQueue<T> {
    /// Builds a queue of `capacity` exhibiting `defect`.
    pub fn new(capacity: usize, defect: Option<WakeDefect>) -> Self {
        WatermarkQueue {
            state: Mutex::new(WatermarkState {
                items: VecDeque::new(),
                closed: false,
                parked_producers: 0,
                parked_consumers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            defect,
        }
    }

    /// Enqueues one item, parking while the queue is at capacity.
    pub fn enqueue(&self, item: T) {
        let mut state = self.state.lock();
        while state.items.len() >= self.capacity {
            state.parked_producers += 1;
            self.not_full.wait(&mut state);
            state.parked_producers -= 1;
        }
        state.items.push_back(item);
        let wake = state.parked_consumers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Leaves the lock after a pop, waking the producers if one is
    /// parked and the depth is at the low watermark.
    fn unlock_after_pop(&self, state: MutexGuard<'_, WatermarkState<T>>) {
        let (depth, mark) = (state.items.len(), self.capacity / 2);
        let due = state.parked_producers > 0
            && match self.defect {
                // BUG(MarkEquality): a multi-item pop can step over the
                // mark without ever standing on it.
                Some(WakeDefect::MarkEquality) => depth == mark,
                _ => depth <= mark,
            };
        drop(state);
        if due {
            self.not_full.notify_all();
        }
    }

    /// Pops up to `max` items, parking while the queue is empty and
    /// open; `None` once it is closed and empty.
    pub fn pop_many(&self, max: usize) -> Option<Vec<T>> {
        let mut state = self.state.lock();
        loop {
            if !state.items.is_empty() {
                let n = max.min(state.items.len());
                let got = state.items.drain(..n).collect();
                self.unlock_after_pop(state);
                return Some(got);
            }
            if state.closed {
                return None;
            }
            state.parked_consumers += 1;
            self.not_empty.wait(&mut state);
            state.parked_consumers -= 1;
        }
    }

    /// Pops one item, or gives up with `None` when the wait times out
    /// (under the model: when the scheduler wakes it spuriously).
    pub fn pop_timeout(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.unlock_after_pop(state);
                return Some(item);
            }
            state.parked_consumers += 1;
            let timed_out = self
                .not_empty
                .wait_for(&mut state, std::time::Duration::from_millis(50));
            if timed_out {
                // BUG(StaleWaiterCount): the timed-out exit forgets the
                // decrement every other exit from the wait performs.
                if self.defect != Some(WakeDefect::StaleWaiterCount) {
                    state.parked_consumers -= 1;
                }
                return None;
            }
            state.parked_consumers -= 1;
        }
    }

    /// No more enqueues; parked consumers drain what is left.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// `(producers, consumers)` counted as parked right now.
    pub fn parked(&self) -> (usize, usize) {
        let state = self.state.lock();
        (state.parked_producers, state.parked_consumers)
    }
}
