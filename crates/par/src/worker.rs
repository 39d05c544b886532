//! A dedicated single-job worker thread: the asynchronous counterpart to
//! [`ThreadPool`](crate::ThreadPool)'s synchronous fan-out.
//!
//! The pool's `run_ranges` blocks the caller until every chunk finishes —
//! exactly right for data-parallel kernels, useless where the caller
//! wants to keep working while a job runs elsewhere. A [`Worker`] owns
//! one OS thread and a FIFO of submitted jobs; [`Worker::submit`] returns
//! immediately with a [`JobHandle`] the caller joins when (and only when)
//! it needs the result. Jobs run strictly in submission order. The perf
//! harness times one submit → join round trip with it, and the model
//! checks drive its handoff slot.
//!
//! Panics inside a job are caught on the worker thread and re-raised on
//! the thread that calls [`JobHandle::join`], preserving the workspace's
//! fail-fast crash semantics.

use crate::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type PanicPayload = Box<dyn std::any::Any + Send>;

/// Result slot shared between a submitted job and its [`JobHandle`].
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

enum SlotState<T> {
    Pending,
    Ready(T),
    Panicked(PanicPayload),
    Taken,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            done: Condvar::new(),
        }
    }

    fn fill(&self, out: Result<T, PanicPayload>) {
        let mut st = self.state.lock();
        *st = match out {
            Ok(v) => SlotState::Ready(v),
            Err(p) => SlotState::Panicked(p),
        };
        self.done.notify_all();
    }
}

/// Handle to one submitted job. Join it to take the result; dropping it
/// without joining abandons the result (the job still runs).
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes and returns its result. Re-raises
    /// the job's panic on this thread if it panicked.
    ///
    /// # Panics
    ///
    /// Panics if called twice on handles cloned from the same job (the
    /// result is taken by value), or if the job itself panicked.
    pub fn join(self) -> T {
        let mut st = self.slot.state.lock();
        while matches!(*st, SlotState::Pending) {
            self.slot.done.wait(&mut st);
        }
        match std::mem::replace(&mut *st, SlotState::Taken) {
            SlotState::Ready(v) => v,
            SlotState::Panicked(p) => {
                drop(st);
                resume_unwind(p)
            }
            SlotState::Pending | SlotState::Taken => unreachable!("job result already taken"),
        }
    }
}

/// Model-test handle to the producer half of a job slot: lets the
/// checker drive the fill/join handoff protocol directly (no OS worker
/// thread, whose mpsc channel the model cannot schedule).
#[cfg(feature = "chk")]
pub struct SlotFiller<T> {
    slot: Arc<Slot<T>>,
}

#[cfg(feature = "chk")]
impl<T> SlotFiller<T> {
    /// Completes the job successfully.
    pub fn fill_ok(self, v: T) {
        self.slot.fill(Ok(v));
    }
}

/// Builds a detached (filler, handle) pair over one result slot, so
/// model tests can exercise the exact `Slot` state machine `submit`/
/// `join` use in production.
#[cfg(feature = "chk")]
pub fn handoff_pair<T>() -> (SlotFiller<T>, JobHandle<T>) {
    let slot = Arc::new(Slot::new());
    (
        SlotFiller {
            slot: Arc::clone(&slot),
        },
        JobHandle { slot },
    )
}

type WorkerJob = Box<dyn FnOnce() + Send>;

/// One dedicated worker thread running submitted jobs in FIFO order.
///
/// Dropping the `Worker` closes the job channel and joins the thread;
/// jobs already submitted still run to completion first.
pub struct Worker {
    sender: Option<Sender<WorkerJob>>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").finish()
    }
}

impl Worker {
    /// Spawns the worker thread. `name` shows up in thread listings and
    /// panic messages (e.g. `perf-probe`).
    pub fn new(name: &str) -> Self {
        let (tx, rx) = channel::<WorkerJob>();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            // lint:allow(no-unwrap) — OS thread spawn failing at executor
            // construction is unrecoverable; nothing upstream can retry.
            .expect("failed to spawn dedicated worker");
        Worker {
            sender: Some(tx),
            thread: Some(thread),
        }
    }

    /// Enqueues `job` on the worker thread and returns a handle to its
    /// eventual result. Jobs run in submission order.
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(Slot::new());
        let theirs = Arc::clone(&slot);
        let boxed: WorkerJob = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(job));
            theirs.fill(out);
        });
        let sender = crate::invariant!(
            self.sender.as_ref(),
            "the job channel is only dropped by Worker::drop"
        );
        crate::invariant!(
            sender.send(boxed),
            "the worker's recv loop runs until the channel closes"
        );
        JobHandle { slot }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop after any
        // queued jobs drain.
        self.sender.take();
        if let Some(t) = self.thread.take() {
            // The worker only panics if a job's Slot fill itself panics,
            // which it cannot; ignore the join result so an unwinding
            // caller (trainer crash) never double-panics here.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn submits_and_joins_in_fifo_order() {
        let w = Worker::new("test-worker");
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let order = Arc::clone(&order);
                w.submit(move || {
                    order.lock().push(i);
                    i * 10
                })
            })
            .collect();
        let results: Vec<usize> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(*order.lock(), (0..8).collect::<Vec<usize>>());
    }

    #[test]
    fn join_blocks_until_result() {
        let w = Worker::new("test-worker");
        let h = w.submit(|| {
            std::thread::sleep(Duration::from_millis(20));
            7u64
        });
        assert_eq!(h.join(), 7);
    }

    #[test]
    fn panics_propagate_to_join() {
        let w = Worker::new("test-worker");
        let h = w.submit(|| -> u32 { panic!("boom in job") });
        let err = std::panic::catch_unwind(AssertUnwindSafe(move || h.join()))
            .expect_err("join should re-raise the job panic");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let w = Worker::new("test-worker");
        let bad = w.submit(|| -> u32 { panic!("first job dies") });
        let good = w.submit(|| 5u32);
        assert!(std::panic::catch_unwind(AssertUnwindSafe(move || bad.join())).is_err());
        assert_eq!(good.join(), 5);
    }

    #[test]
    fn drop_drains_submitted_jobs() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let w = Worker::new("test-worker");
            for _ in 0..4 {
                let ran = Arc::clone(&ran);
                let _ = w.submit(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }
}
