//! Model threads: spawn/join that route through the cooperative
//! scheduler inside a model run and degrade to `std::thread` outside
//! one.
//!
//! The thread-local `Ctx` is how every model sync primitive finds the
//! active `sched::Execution`: a thread carrying a context is a
//! *model thread* and must ask the scheduler before it may run; a thread
//! without one is an ordinary OS thread and every chk primitive behaves
//! exactly like its `parking_lot`/`std` counterpart. That passthrough is
//! what makes the `chk` cargo features safe to enable workspace-wide:
//! production code built against the model types runs unchanged until a
//! checker is actually driving.

use crate::sched::Execution;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The per-OS-thread model context: which execution this thread belongs
/// to and its model thread id.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current model context, if this OS thread is a model thread.
pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Installs the model context on this OS thread (pool-job prologue).
pub(crate) fn enter(exec: Arc<Execution>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec, tid }));
}

/// Clears the model context (pool-job epilogue).
pub(crate) fn exit() {
    CTX.with(|c| *c.borrow_mut() = None);
}

/// A voluntary yield point: inside a model run the scheduler may switch
/// threads here; outside one it is `std::thread::yield_now`.
pub fn yield_now() {
    match current() {
        Some(cx) => cx.exec.op_yield(cx.tid, "yield"),
        None => std::thread::yield_now(),
    }
}

enum Inner<T> {
    Real(std::thread::JoinHandle<T>),
    Model {
        slot: Arc<parking_lot::Mutex<Option<T>>>,
        tid: usize,
        exec: Arc<Execution>,
    },
}

/// Handle to a spawned thread; join to take its result.
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the thread finishes and returns its result,
    /// re-raising its panic on this thread (real mode). In model mode a
    /// panicking thread dooms the whole schedule before the joiner sees
    /// its slot, so `join` only returns clean results.
    pub fn join(self) -> T {
        match self.inner {
            Inner::Real(h) => h.join().unwrap_or_else(|p| resume_unwind(p)),
            Inner::Model { slot, tid, exec } => {
                let cx = current().unwrap_or_else(|| {
                    panic!("model JoinHandle joined from outside the model run")
                });
                exec.join_wait(cx.tid, tid);
                let v = slot.lock().take();
                v.unwrap_or_else(|| panic!("model thread t{tid} finished without a result"))
            }
        }
    }
}

/// Spawns a thread. Inside a model run this registers a model thread on
/// the checker's pool and the scheduler decides when it runs; outside
/// one it is `std::thread::spawn`.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match current() {
        None => JoinHandle {
            inner: Inner::Real(std::thread::spawn(f)),
        },
        Some(cx) => {
            let tid = cx.exec.register_thread(cx.tid);
            let slot = Arc::new(parking_lot::Mutex::new(None));
            let job_slot = Arc::clone(&slot);
            let job_exec = Arc::clone(&cx.exec);
            cx.exec.dispatch(Box::new(move || {
                enter(Arc::clone(&job_exec), tid);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    job_exec.first_park(tid);
                    f()
                }));
                exit();
                match r {
                    Ok(v) => {
                        *job_slot.lock() = Some(v);
                        job_exec.thread_done(tid);
                    }
                    Err(p) => job_exec.thread_panicked(tid, p),
                }
            }));
            // Let the scheduler consider the newborn thread immediately:
            // by this yield the pool job exists, so handing it the baton
            // is safe.
            cx.exec.op_yield(cx.tid, "spawned");
            JoinHandle {
                inner: Inner::Model {
                    slot,
                    tid,
                    exec: cx.exec,
                },
            }
        }
    }
}
