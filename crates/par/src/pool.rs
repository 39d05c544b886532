//! A scoped chunked thread pool: spawn-once workers, borrowed-closure
//! dispatch, contiguous disjoint range partitioning.

use crate::sync::{Condvar, Mutex};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;
type PanicPayload = Box<dyn std::any::Any + Send>;

thread_local! {
    /// Set inside pool workers so a nested fan-out degrades to inline
    /// execution instead of deadlocking on its own pool's queue.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Completion latch for one fan-out: counts outstanding worker chunks and
/// stores the first panic payload for the caller to re-raise.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<PanicPayload>,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<PanicPayload>) {
        let mut st = self.state.lock();
        st.remaining -= 1;
        if st.panic.is_none() {
            if let Some(p) = panic {
                st.panic = Some(p);
            }
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut st = self.state.lock();
        while st.remaining > 0 {
            self.done.wait(&mut st);
        }
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.state.lock().panic.take()
    }
}

/// Blocks the dispatching stack frame from being left — by return *or*
/// unwind — while workers may still hold borrows into it.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// A fixed-size pool of `threads - 1` spawned workers plus the calling
/// thread. Workers are spawned once at construction and live until the
/// pool is dropped; each fan-out sends borrowed-closure jobs through one
/// shared channel and blocks the caller until every chunk completed.
///
/// `ThreadPool::new(1)` spawns nothing and runs every fan-out inline on
/// the caller — the sequential path with zero overhead.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool of `threads` total workers (the caller counts as
    /// one; `threads - 1` OS threads are spawned). Zero is clamped to 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (1..threads)
            .map(|w| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("gnnlab-par-{w}"))
                    .spawn(move || worker_loop(&rx))
                    // lint:allow(no-unwrap) — OS thread spawn failing at pool
                    // construction is unrecoverable; nothing upstream can retry.
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            sender: Some(tx),
            workers,
            threads,
        }
    }

    /// Total parallelism (spawned workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of chunks a fan-out over `tasks` items produces: one per
    /// thread, but never an empty chunk (and zero for zero tasks).
    pub fn partitions(&self, tasks: usize) -> usize {
        tasks.min(self.threads)
    }

    /// Runs `f(chunk_index, task_range)` for every chunk of the contiguous
    /// static partition of `0..tasks`, in parallel, and returns once all
    /// chunks completed. Chunk `c` covers
    /// `c*tasks/chunks .. (c+1)*tasks/chunks` — deterministic, no work
    /// stealing. Panics in any chunk are re-raised on the caller *after*
    /// all chunks finished (so borrows stay sound).
    pub fn run_ranges<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        if tasks == 0 {
            return;
        }
        let chunks = self.partitions(tasks);
        let range_of = |c: usize| (c * tasks / chunks)..((c + 1) * tasks / chunks);
        // Inline path: a 1-thread pool, a single task, or a nested call
        // from inside a pool worker (which must not wait on its own
        // queue). It visits the same `(chunk, range)` sequence as the
        // parallel path, in chunk order, so a caller that keys state by
        // chunk index sees every chunk either way.
        if chunks <= 1 || IN_POOL_WORKER.with(Cell::get) {
            (0..chunks).for_each(|c| f(c, range_of(c)));
            return;
        }

        let f_ref: &(dyn Fn(usize, Range<usize>) + Sync) = &f;
        // SAFETY: lifetime erasure of the borrowed closure. The WaitGuard
        // below keeps this stack frame alive — on normal return and on
        // unwind — until every job holding this reference has completed.
        let f_static: &'static (dyn Fn(usize, Range<usize>) + Sync) =
            unsafe { std::mem::transmute(f_ref) };

        let latch = Arc::new(Latch::new(chunks - 1));
        let guard = WaitGuard(&latch);
        let sender = crate::invariant!(
            self.sender.as_ref(),
            "the dispatch channel is only dropped by ThreadPool::drop"
        );
        for c in 1..chunks {
            let latch = Arc::clone(&latch);
            let range = range_of(c);
            let sent = sender.send(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f_static(c, range)));
                latch.complete(result.err());
            }));
            crate::invariant!(sent, "pool workers outlive every dispatch");
        }
        // The caller participates as chunk 0.
        let caller = catch_unwind(AssertUnwindSafe(|| f_static(0, range_of(0))));
        drop(guard); // blocks until all worker chunks completed
        if let Some(p) = latch.take_panic() {
            resume_unwind(p);
        }
        if let Err(p) = caller {
            resume_unwind(p);
        }
    }

    /// Fans `data` (interpreted as `data.len() / unit` rows of `unit`
    /// elements) out across the pool: each chunk receives
    /// `f(chunk_index, row_range, sub_slice)` where `sub_slice` is the
    /// disjoint mutable slice holding exactly those rows.
    ///
    /// # Panics
    ///
    /// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], unit: usize, f: F)
    where
        T: Send,
        F: Fn(usize, Range<usize>, &mut [T]) + Sync,
    {
        assert!(unit > 0, "unit must be positive");
        assert_eq!(data.len() % unit, 0, "data must be a whole number of units");
        let units = data.len() / unit;
        let base = data.as_mut_ptr() as usize;
        self.run_ranges(units, |c, range| {
            // SAFETY: `range_of` chunks are pairwise disjoint and
            // unit-aligned, so each chunk gets an exclusive sub-slice of
            // `data`, which itself is exclusively borrowed for this call.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(
                    (base as *mut T).add(range.start * unit),
                    (range.end - range.start) * unit,
                )
            };
            f(c, range, chunk);
        });
    }

    /// Like [`ThreadPool::run_ranges`] but collects each chunk's return
    /// value, in chunk-index order — the deterministic reduction order for
    /// per-worker partial results.
    pub fn map_ranges<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let chunks = self.partitions(tasks);
        let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        self.run_ranges(tasks, |c, range| {
            *slots[c].lock() = Some(f(c, range));
        });
        slots
            .into_iter()
            .map(|s| crate::invariant!(s.into_inner(), "run_ranges visits every chunk"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    IN_POOL_WORKER.with(|w| w.set(true));
    loop {
        // Holding the lock across the blocking recv serializes job
        // *pickup* (not execution) across idle workers — microseconds at
        // the chunk granularity this pool dispatches.
        let job = { rx.lock().recv() };
        match job {
            Ok(job) => job(),
            Err(_) => break, // pool dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partitions_cover_tasks_disjointly() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for tasks in [0usize, 1, 2, 7, 100] {
                let mut hit = vec![0u8; tasks];
                pool.run_ranges(tasks, |_, range| {
                    // Reading via raw parts would race; count per index
                    // through a local check instead: ranges must tile.
                    assert!(range.start <= range.end && range.end <= tasks);
                });
                // Tile check (sequentially recomputed).
                let chunks = pool.partitions(tasks);
                for c in 0..chunks {
                    for h in &mut hit[c * tasks / chunks..(c + 1) * tasks / chunks] {
                        *h += 1;
                    }
                }
                assert!(hit.iter().all(|&h| h == 1), "tasks {tasks} x{threads}");
            }
        }
    }

    #[test]
    fn run_ranges_executes_every_task_once() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let counter = AtomicUsize::new(0);
            pool.run_ranges(1000, |_, range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 1000);
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_rows() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0u32; 7 * 3];
            pool.par_chunks_mut(&mut data, 3, |_, range, chunk| {
                for (r, row) in range.clone().zip(chunk.chunks_exact_mut(3)) {
                    row.fill(r as u32 + 1);
                }
            });
            let expect: Vec<u32> = (0..7u32).flat_map(|r| [r + 1; 3]).collect();
            assert_eq!(data, expect, "threads {threads}");
        }
    }

    #[test]
    fn map_ranges_preserves_chunk_order() {
        let pool = ThreadPool::new(4);
        let parts = pool.map_ranges(100, |c, range| (c, range.start));
        for (i, &(c, start)) in parts.iter().enumerate() {
            assert_eq!(c, i);
            assert_eq!(start, i * 100 / parts.len());
        }
    }

    #[test]
    fn pool_survives_many_fan_outs() {
        let pool = ThreadPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run_ranges(10, |_, range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn concurrent_fan_outs_from_multiple_callers() {
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let counter = std::sync::Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run_ranges(20, |_, range| {
                            counter.fetch_add(range.len(), Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 50 * 20);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_ranges(100, |_, range| {
                if range.contains(&99) {
                    panic!("boom in worker");
                }
            });
        }));
        assert!(err.is_err());
        // The pool stays usable after a panicked fan-out.
        let counter = AtomicUsize::new(0);
        pool.run_ranges(10, |_, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_fan_out_runs_inline_without_deadlock() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let inner_pool = std::sync::Arc::clone(&pool);
        let c = std::sync::Arc::clone(&counter);
        pool.run_ranges(4, move |_, range| {
            for _ in range {
                inner_pool.run_ranges(5, |_, r| {
                    c.fetch_add(r.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn nested_map_ranges_returns_every_chunk() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let inner_pool = std::sync::Arc::clone(&pool);
        let outer = pool.map_ranges(2, move |_, _| {
            inner_pool.map_ranges(7, |c, range| (c, range))
        });
        let expect: Vec<_> = (0..2).map(|c| (c, c * 7 / 2..(c + 1) * 7 / 2)).collect();
        for inner in outer {
            assert_eq!(inner, expect);
        }
    }
}
