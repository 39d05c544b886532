//! The host-memory global queue bridging Samplers and Trainers (§5.2).
//!
//! "GNNLab uses a global queue in the host memory to link two kinds of
//! executors asynchronously … The concurrent queue would not be the
//! bottleneck since the updates are infrequent." Samplers enqueue whole
//! mini-batch samples; Trainers (and woken standby Trainers) lease them.
//! The remaining-task count feeds the dynamic-switching profit metric
//! (`M_r` in §5.3).
//!
//! The queue has one way in and one way out. DESIGN.md §4c ("The global
//! queue") states the whole contract, the wake rule and the reclaim
//! order; in short:
//!
//! * **bounded** — [`GlobalQueue::enqueue_many`] (and
//!   [`GlobalQueue::enqueue`], a burst of one) blocks once `capacity`
//!   tasks are waiting;
//! * **blocking, leasable** — every dequeue is a [`Lease`]. One private
//!   pop loop serves [`GlobalQueue::dequeue_leased`], its timed form and
//!   its burst form: it sleeps until a task, a terminal state or the
//!   deadline, and the queue keeps a reference until
//!   [`GlobalQueue::complete`]. If the owner dies first,
//!   [`GlobalQueue::reclaim`] re-enqueues its leases at the front, in
//!   their original order;
//! * **closable** — after [`GlobalQueue::close`] consumers observe
//!   [`DequeueError::Drained`] once the queue is drained: closed, empty
//!   *and* lease-free, so a batch reclaimed at the last moment is still
//!   trained;
//! * **poisonable** — [`GlobalQueue::poison`] wakes every blocked
//!   producer and consumer with a `Poisoned` error;
//! * **wake rule** — an enqueue signals consumers only if one is parked; a
//!   pop signals producers only if one is parked *and* the depth is at or
//!   under half the capacity.
//!
//! Telemetry goes to an observability registry
//! ([`GlobalQueue::bounded_with_obs`]): a `queue.depth` gauge,
//! `queue.enqueued`/`queue.dequeued` counters, a `queue.capacity` gauge
//! and `queue.blocked_ns`. Several queues may share one hub and merge
//! there, so [`GlobalQueue::peak_depth`] and [`GlobalQueue::blocked_ns`]
//! read queue-local atomics instead.

use crate::sync::{AtomicU64, Condvar, Mutex, MutexGuard, Ordering};
use gnnlab_obs::{names, Obs};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity when none is given: deep enough to decouple bursts,
/// shallow enough that a stalled Trainer back-pressures Samplers quickly.
pub const DEFAULT_CAPACITY: usize = 64;

/// Condvar waits re-check state at least this often, guarding against any
/// lost wakeup turning into an unbounded sleep.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Why an [`GlobalQueue::enqueue`] call could not deliver its task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The queue was closed; no new tasks are accepted.
    Closed,
    /// An executor panicked; the run is being torn down.
    Poisoned(String),
}

/// Why a [`GlobalQueue::dequeue_leased`] call returned no task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DequeueError {
    /// The queue was closed and every task has been consumed *and*
    /// confirmed (no outstanding leases).
    Drained,
    /// An executor panicked; the run is being torn down.
    Poisoned(String),
}

/// A task handed out under lease: the queue retains a reference until the
/// consumer calls [`GlobalQueue::complete`] with [`Lease::id`], or the
/// supervisor [`GlobalQueue::reclaim`]s the owner's leases after a crash.
#[derive(Debug)]
pub struct Lease<T> {
    /// Identifier to pass to [`GlobalQueue::complete`].
    pub id: u64,
    /// The leased task.
    pub task: Arc<T>,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<(u64, Arc<T>)>,
    /// Outstanding leases: lease id → (owner, task).
    leased: HashMap<u64, (u32, Arc<T>)>,
    next_id: u64,
    closed: bool,
    poison: Option<String>,
    /// Producers inside a `not_full` wait / consumers inside a
    /// `not_empty` wait. Counted under the lock around each wait (see
    /// [`GlobalQueue::park_producer`]), so a notifier that reads zero
    /// knows there is nobody to wake.
    parked_producers: usize,
    parked_consumers: usize,
}

impl<T> State<T> {
    /// After a pop: whether a parked producer is due its wake-up — one is
    /// parked and the depth is at or under the low watermark, half the
    /// capacity. `<=`, not `==`: a multi-lease pop can step over the mark.
    fn producer_due(&self, capacity: usize) -> bool {
        self.parked_producers > 0 && self.items.len() <= capacity / 2
    }

    /// Nothing waiting and nothing leased. With `closed`, that is
    /// "drained": no task exists for a consumer, now or ever — a lease
    /// still out may yet be reclaimed and replayed.
    fn idle(&self) -> bool {
        self.items.is_empty() && self.leased.is_empty()
    }
}

/// A bounded, blocking MPMC queue in host memory with occupancy
/// accounting and crash-replay leases (see the module docs for the full
/// contract).
#[derive(Debug)]
pub struct GlobalQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    obs: Arc<Obs>,
    /// This queue's own peak depth and blocked time. The registry
    /// entries of the same meaning are telemetry that sibling queues on
    /// one [`Obs`] merge into, so the accessors never read them back.
    peak_depth: AtomicU64,
    blocked_ns: AtomicU64,
}

impl<T> GlobalQueue<T> {
    /// Creates an empty queue holding at most `capacity` tasks, with a
    /// private (wall-clock) registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        Self::bounded_with_obs(capacity, Arc::new(Obs::wall()))
    }

    /// Creates an empty bounded queue publishing into a shared
    /// observability hub.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded_with_obs(capacity: usize, obs: Arc<Obs>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        obs.metrics
            .gauge_set(names::QUEUE_CAPACITY, capacity as f64);
        GlobalQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                leased: HashMap::new(),
                next_id: 0,
                closed: false,
                poison: None,
                parked_producers: 0,
                parked_consumers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            obs,
            peak_depth: AtomicU64::new(0),
            blocked_ns: AtomicU64::new(0),
        }
    }

    /// Publishes the current depth as a gauge only — cheap enough for
    /// every enqueue/dequeue, and `Gauge::max` keeps the exact peak. The
    /// `queue.depth` *series* is filled on a wall-clock interval by the
    /// telemetry thread (or explicit virtual-time samples in the
    /// co-simulations), not per operation, so series memory no longer
    /// scales with traffic.
    fn note_depth(&self, depth: usize) {
        self.peak_depth.fetch_max(depth as u64, Ordering::Relaxed);
        self.obs.metrics.gauge_set(names::QUEUE_DEPTH, depth as f64);
    }

    /// Books one blocking episode that began at `since` (if it blocked at
    /// all) under the shared counter plus the side-specific histogram.
    fn note_blocked(&self, histogram: &str, since: Option<u64>) {
        let Some(t0) = since else { return };
        let blocked_ns = self.obs.now_ns().saturating_sub(t0);
        if blocked_ns > 0 {
            self.blocked_ns.fetch_add(blocked_ns, Ordering::Relaxed);
            self.obs
                .metrics
                .counter_add(names::QUEUE_BLOCKED_NS, blocked_ns as f64);
            self.obs.metrics.observe(histogram, blocked_ns as f64);
        }
    }

    /// Parks a producer on `not_full` for at most [`WAIT_SLICE`], counted
    /// in `parked_producers` for exactly the length of the wait — however
    /// it ends (notified, timed out, spurious).
    fn park_producer(&self, state: &mut MutexGuard<'_, State<T>>) {
        state.parked_producers += 1;
        self.not_full.wait_for(state, WAIT_SLICE);
        state.parked_producers -= 1;
    }

    /// [`GlobalQueue::park_producer`] for a consumer on `not_empty`.
    fn park_consumer(&self, state: &mut MutexGuard<'_, State<T>>, slice: Duration) {
        state.parked_consumers += 1;
        self.not_empty.wait_for(state, slice);
        state.parked_consumers -= 1;
    }

    /// `(producers, consumers)` parked inside a condvar wait right now.
    /// Both are zero whenever no thread is inside the queue; the model
    /// checks hold that at every quiescent point.
    pub fn parked(&self) -> (usize, usize) {
        let state = self.state.lock();
        (state.parked_producers, state.parked_consumers)
    }

    /// Enqueues a task (Sampler side), blocking while the queue is at
    /// capacity. Returns an error — with the task long dropped — once the
    /// queue is closed or poisoned.
    pub fn enqueue(&self, item: T) -> Result<(), EnqueueError> {
        self.enqueue_many(std::iter::once(item))
    }

    /// Enqueues a burst of tasks in iteration order, blocking while the
    /// queue is at capacity. One lock acquisition admits as many tasks as
    /// fit, and consumers are woken once per flush rather than once per
    /// task — the amortized handoff the Samplers use. Capacity
    /// and poison semantics match [`GlobalQueue::enqueue`] exactly; if the
    /// queue closes or poisons mid-burst, tasks admitted before the error
    /// stay admitted and the remainder is dropped with the error.
    pub fn enqueue_many<I>(&self, items: I) -> Result<(), EnqueueError>
    where
        I: IntoIterator<Item = T>,
    {
        let mut pending = items.into_iter().peekable();
        if pending.peek().is_none() {
            return Ok(());
        }
        let mut blocked_since: Option<u64> = None;
        let mut state = self.state.lock();
        let outcome = loop {
            if let Some(reason) = &state.poison {
                break Err(EnqueueError::Poisoned(reason.clone()));
            }
            if state.closed {
                break Err(EnqueueError::Closed);
            }
            // Admit as many tasks as the capacity allows in one critical
            // section, then wake the waiting consumers once.
            let mut admitted = 0u64;
            while state.items.len() < self.capacity {
                let Some(item) = pending.next() else { break };
                let id = state.next_id;
                state.next_id += 1;
                state.items.push_back((id, Arc::new(item)));
                admitted += 1;
            }
            if admitted == 0 {
                blocked_since.get_or_insert_with(|| self.obs.now_ns());
                self.park_producer(&mut state);
                continue;
            }
            let (depth, wake) = (state.items.len(), state.parked_consumers > 0);
            let done = pending.peek().is_none();
            drop(state);
            self.flush_enqueued(admitted, depth, wake);
            if done {
                self.note_blocked(names::QUEUE_ENQUEUE_BLOCK_NS, blocked_since);
                return Ok(());
            }
            state = self.state.lock();
        };
        drop(state);
        self.note_blocked(names::QUEUE_ENQUEUE_BLOCK_NS, blocked_since);
        outcome
    }

    /// Publishes counters for one enqueue flush of `n` tasks and, if a
    /// consumer was parked when the flush left the lock (`wake`), wakes
    /// consumers (one for a single task; a full `notify_all` for bursts).
    fn flush_enqueued(&self, n: u64, depth: usize, wake: bool) {
        self.obs
            .metrics
            .counter_add(names::QUEUE_ENQUEUED, n as f64);
        self.note_depth(depth);
        if wake {
            Self::notify(&self.not_empty, n);
        }
    }

    /// One waiter for one task moved, every waiter for a burst.
    fn notify(cv: &Condvar, n: u64) {
        if n == 1 {
            cv.notify_one();
        } else {
            cv.notify_all();
        }
    }

    /// Dequeues a task under lease for executor `owner` (Trainer side),
    /// blocking while the queue is empty but not drained: the queue keeps
    /// a reference until [`GlobalQueue::complete`] confirms it, so the
    /// supervisor can [`GlobalQueue::reclaim`] and replay the batch if the
    /// owner dies mid-flight. Fails with [`DequeueError::Drained`] once
    /// the queue is closed, empty and lease-free, or
    /// [`DequeueError::Poisoned`] as soon as an executor crash is flagged.
    pub fn dequeue_leased(&self, owner: u32) -> Result<Lease<T>, DequeueError> {
        self.pop_one(owner, None)
            .map(|l| gnnlab_par::invariant!(l, "a deadline-free pop never times out"))
    }

    /// [`GlobalQueue::dequeue_leased`] with a timeout: returns `Ok(None)`
    /// if no task arrived (and the queue neither drained nor poisoned)
    /// within `timeout`. A zero timeout leases a task only if one is
    /// already waiting.
    pub fn dequeue_leased_timeout(
        &self,
        owner: u32,
        timeout: Duration,
    ) -> Result<Option<Lease<T>>, DequeueError> {
        self.pop_one(owner, Some(timeout))
    }

    /// Dequeues up to `max` tasks under lease for `owner` with **one**
    /// lock/condvar round-trip: blocks like [`GlobalQueue::dequeue_leased`]
    /// until at least one task (or a terminal state) is available, then
    /// drains up to `max` in FIFO order. The runtime's consumer takes one
    /// lease at a time; the perf harness and the model checks use this.
    pub fn dequeue_leased_many(
        &self,
        owner: u32,
        max: usize,
    ) -> Result<Vec<Lease<T>>, DequeueError> {
        assert!(max > 0, "dequeue_leased_many needs a positive max");
        let mut leases = Vec::new();
        self.pop(owner, max, None, |l| leases.push(l))
            .map(|()| leases)
    }

    fn pop_one(
        &self,
        owner: u32,
        timeout: Option<Duration>,
    ) -> Result<Option<Lease<T>>, DequeueError> {
        let mut slot = None;
        self.pop(owner, 1, timeout, |l| slot = Some(l))
            .map(|()| slot)
    }

    /// The one pop loop: blocks until a task, a terminal state or — with
    /// a `timeout` — the deadline, then leases up to `max` tasks to
    /// `owner` in FIFO order, handing each to `sink` under the lock. A
    /// timeout returns `Ok(())` with `sink` never called. The deadline is
    /// fixed before the first wait, so no amount of condvar churn extends
    /// the total wait; without a timeout no clock is read unless the pop
    /// blocks, and an unrepresentable deadline degrades to none.
    fn pop(
        &self,
        owner: u32,
        max: usize,
        timeout: Option<Duration>,
        mut sink: impl FnMut(Lease<T>),
    ) -> Result<(), DequeueError> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut blocked_since: Option<u64> = None;
        let mut state = self.state.lock();
        let outcome = loop {
            if let Some(reason) = &state.poison {
                break Err(DequeueError::Poisoned(reason.clone()));
            }
            if !state.items.is_empty() {
                let st = &mut *state;
                let n = st.items.len().min(max);
                for (id, task) in st.items.drain(..n) {
                    st.leased.insert(id, (owner, Arc::clone(&task)));
                    sink(Lease { id, task });
                }
                break Ok(Some((n as u64, st.producer_due(self.capacity))));
            }
            if state.closed && state.idle() {
                break Err(DequeueError::Drained);
            }
            let mut slice = WAIT_SLICE;
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break Ok(None);
                }
                slice = slice.min(left);
            }
            blocked_since.get_or_insert_with(|| self.obs.now_ns());
            self.park_consumer(&mut state, slice);
        };
        let depth = state.items.len();
        drop(state);
        self.note_blocked(names::QUEUE_WAIT_NS, blocked_since);
        if let Some((n, wake)) = outcome? {
            self.obs
                .metrics
                .counter_add(names::QUEUE_DEQUEUED, n as f64);
            self.note_depth(depth);
            if wake {
                Self::notify(&self.not_full, n);
            }
        }
        Ok(())
    }

    /// Confirms a leased task trained: the queue drops its reference. A
    /// consumer blocked on the final outstanding lease of a closed queue
    /// is woken to observe [`DequeueError::Drained`].
    pub fn complete(&self, lease_id: u64) {
        let mut state = self.state.lock();
        state.leased.remove(&lease_id);
        let drained = state.closed && state.idle();
        drop(state);
        if drained {
            self.not_empty.notify_all();
        }
    }

    /// Re-enqueues every task leased to `owner` (a dead executor), at the
    /// *front* of the queue so replays run before fresh batches. Returns
    /// how many batches were reclaimed. Replays bypass the capacity bound
    /// (they were admitted once already; the overshoot is at most the
    /// number of consumers) and are accepted even on a closed queue.
    pub fn reclaim(&self, owner: u32) -> usize {
        let mut state = self.state.lock();
        let mut ids: Vec<u64> = state
            .leased
            .iter()
            .filter(|(_, (o, _))| *o == owner)
            .map(|(&id, _)| id)
            .collect();
        // Replay in the original enqueue order: pushing the highest lease
        // id first leaves the lowest at the very front. An owner that
        // leased several tasks with `dequeue_leased_many` dies holding all
        // of them; iterating the lease map in hash order here would let a
        // replay reorder those batches and break the bit-identical-history
        // guarantee.
        ids.sort_unstable_by(|a, b| b.cmp(a));
        for id in &ids {
            if let Some((_, task)) = state.leased.remove(id) {
                state.items.push_front((*id, task));
            }
        }
        let (n, depth) = (ids.len(), state.items.len());
        drop(state);
        if n > 0 {
            self.note_depth(depth);
            self.obs
                .metrics
                .counter_add(names::RECOVERY_REPLAYED_BATCHES, n as f64);
            self.not_empty.notify_all();
        }
        n
    }

    /// Outstanding leases (dequeued but neither completed nor reclaimed).
    pub fn leased_count(&self) -> usize {
        self.state.lock().leased.len()
    }

    /// Closed, nothing waiting and nothing leased, read under one lock:
    /// nothing for consumers, now or ever. Two separate reads
    /// (`remaining() == 0 && leased_count() == 0`) can straddle a
    /// `reclaim`, which moves a lease back into the queue between them,
    /// and call a busy queue drained.
    pub fn is_drained(&self) -> bool {
        let state = self.state.lock();
        state.closed && state.idle()
    }

    /// Closes the queue: no further enqueues; consumers drain what is left
    /// and then observe [`DequeueError::Drained`]. Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Poisons the queue after an executor crash: every pending and future
    /// enqueue/dequeue fails immediately with the given reason. The first
    /// reason wins; later calls keep it.
    pub fn poison(&self, reason: &str) {
        let mut state = self.state.lock();
        if state.poison.is_none() {
            state.poison = Some(reason.to_string());
        }
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// The poison reason, if an executor crashed.
    pub fn poison_reason(&self) -> Option<String> {
        self.state.lock().poison.clone()
    }

    /// Tasks currently waiting (`M_r` for the profit metric); leased
    /// tasks are in flight, not waiting.
    pub fn remaining(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Largest depth this queue ever reached (queue-local; the shared
    /// `queue.depth` gauge may mix sibling queues).
    pub fn peak_depth(&self) -> usize {
        self.peak_depth.load(Ordering::Relaxed) as usize
    }

    /// Total nanoseconds producers and consumers spent blocked on this
    /// queue (queue-local, like [`GlobalQueue::peak_depth`]).
    pub fn blocked_ns(&self) -> u64 {
        self.blocked_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Leases one task, completes it, and returns its value.
    fn deq<T: Copy>(q: &GlobalQueue<T>) -> Result<T, DequeueError> {
        q.dequeue_leased(0).map(|lease| {
            q.complete(lease.id);
            *lease.task
        })
    }

    #[test]
    fn fifo_single_thread() {
        let obs = Arc::new(Obs::wall());
        let q = GlobalQueue::bounded_with_obs(16, Arc::clone(&obs));
        for i in 0..10 {
            q.enqueue(i).unwrap();
        }
        assert_eq!(q.remaining(), 10);
        for i in 0..10 {
            assert_eq!(deq(&q), Ok(i));
        }
        assert!(q
            .dequeue_leased_timeout(0, Duration::from_millis(1))
            .unwrap()
            .is_none());
        assert_eq!(obs.metrics.counter("queue.enqueued"), 10.0);
        assert_eq!(obs.metrics.counter("queue.dequeued"), 10.0);
        assert_eq!(q.peak_depth(), 10);
        assert_eq!(obs.metrics.gauge("queue.capacity").unwrap().last, 16.0);
    }

    #[test]
    fn concurrent_producers_consumers_preserve_items() {
        let q = Arc::new(GlobalQueue::bounded(8));
        // Producers and consumers run together: the bounded queue would
        // deadlock a produce-everything-first schedule at depth 8.
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        q.enqueue(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = deq(&q) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for t in producers {
            t.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        all.dedup();
        assert_eq!(all.len(), 1000, "duplicates or losses detected");
        assert!(
            q.peak_depth() <= 8,
            "depth {} above capacity",
            q.peak_depth()
        );
    }

    #[test]
    fn remaining_tracks_occupancy() {
        let q = GlobalQueue::bounded(DEFAULT_CAPACITY);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.remaining(), 2);
        deq(&q).unwrap();
        assert_eq!(q.remaining(), 1);
        deq(&q).unwrap();
        assert_eq!(q.remaining(), 0);
    }

    /// Drained is "closed, nothing waiting and nothing leased". A lease
    /// out keeps an empty closed queue busy.
    #[test]
    fn idle_and_drained_count_leases_as_work() {
        let q = GlobalQueue::bounded(2);
        assert!(!q.is_drained(), "an open queue may yet receive work");
        q.enqueue(1).unwrap();
        q.close();
        assert!(!q.is_drained(), "a task waits");
        let lease = q.dequeue_leased(0).unwrap();
        assert_eq!(q.remaining(), 0);
        assert!(!q.is_drained(), "the lease may yet be reclaimed");
        q.reclaim(0);
        assert!(!q.is_drained(), "the replay waits in the queue");
        assert_eq!(deq(&q), Ok(1));
        assert!(q.is_drained());
        drop(lease);
    }

    #[test]
    fn shared_obs_receives_depth_samples_and_capacity() {
        let obs = Arc::new(Obs::wall());
        let q = GlobalQueue::bounded_with_obs(32, Arc::clone(&obs));
        q.enqueue("a").unwrap();
        q.enqueue("b").unwrap();
        deq(&q).unwrap();
        assert_eq!(obs.metrics.counter("queue.enqueued"), 2.0);
        assert_eq!(obs.metrics.counter("queue.dequeued"), 1.0);
        // Depth is gauge-only on the hot path: last value and exact peak,
        // no per-operation series points (the telemetry thread samples
        // the series on its own clock).
        let depth = obs.metrics.gauge("queue.depth").unwrap();
        assert_eq!(depth.last, 1.0);
        assert_eq!(depth.max, 2.0);
        assert_eq!(obs.metrics.series_len("queue.depth"), 0);
        assert_eq!(obs.metrics.gauge("queue.capacity").unwrap().last, 32.0);
    }

    /// Regression: two queues on one `Obs` must not double-count each
    /// other's traffic through the shared registry. The accessors read
    /// queue-local atomics; only the registry aggregates across queues.
    #[test]
    fn two_queues_on_one_obs_keep_separate_totals() {
        let obs = Arc::new(Obs::wall());
        let a = GlobalQueue::bounded_with_obs(8, Arc::clone(&obs));
        let b = GlobalQueue::bounded_with_obs(8, Arc::clone(&obs));
        a.enqueue_many(0..5).unwrap();
        b.enqueue_many(0..3).unwrap();
        deq(&a).unwrap();
        deq(&a).unwrap();
        for _ in 0..3 {
            deq(&b).unwrap();
        }
        // Only `b` blocks: a timed lease on its empty queue.
        assert!(b
            .dequeue_leased_timeout(0, Duration::from_millis(5))
            .unwrap()
            .is_none());
        assert_eq!(a.peak_depth(), 5);
        assert_eq!(b.peak_depth(), 3);
        assert_eq!(a.blocked_ns(), 0);
        assert!(b.blocked_ns() > 0, "b's wait went unaccounted");
        // The registry still carries the merged telemetry view.
        assert_eq!(obs.metrics.counter("queue.enqueued"), 8.0);
        assert_eq!(obs.metrics.counter("queue.dequeued"), 5.0);
        assert_eq!(
            obs.metrics.counter("queue.blocked_ns"),
            b.blocked_ns() as f64
        );
        assert_eq!(obs.metrics.gauge("queue.depth").unwrap().max, 5.0);
    }

    /// Satellite regression: a million enqueue/dequeues stay within the
    /// series cap — the hot path never pushes series points at all, and
    /// even explicit sampling at that rate is bounded by the registry.
    #[test]
    fn a_million_queue_ops_keep_series_memory_bounded() {
        let obs = Arc::new(Obs::wall());
        obs.metrics.set_series_cap(1024);
        let q = GlobalQueue::bounded_with_obs(16, Arc::clone(&obs));
        for i in 0..500_000u64 {
            q.enqueue(i).unwrap();
            deq(&q).unwrap();
        }
        let cap = obs.metrics.series_cap();
        assert!(
            obs.metrics.series_len("queue.depth") <= cap,
            "series grew past the cap"
        );
        // The gauge still carries the exact traffic history extremes.
        assert_eq!(obs.metrics.gauge("queue.depth").unwrap().last, 0.0);
        assert_eq!(obs.metrics.counter("queue.enqueued"), 500_000.0);
    }

    #[test]
    fn blocking_dequeue_wakes_on_enqueue() {
        let q = Arc::new(GlobalQueue::bounded(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || deq(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.enqueue(7).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok(7));
        // The consumer blocked and the episode was accounted.
        assert!(q.blocked_ns() > 0, "no blocked time recorded");
    }

    #[test]
    fn blocking_dequeue_wakes_on_close() {
        let q: Arc<GlobalQueue<u32>> = Arc::new(GlobalQueue::bounded(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || deq(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), Err(DequeueError::Drained));
    }

    #[test]
    fn enqueue_blocks_at_capacity_and_resumes_after_dequeue() {
        let q = Arc::new(GlobalQueue::bounded(2));
        q.enqueue(0).unwrap();
        q.enqueue(1).unwrap();
        let started = Instant::now();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.enqueue(2).unwrap();
                started.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.remaining(), 2, "producer must not exceed capacity");
        assert_eq!(deq(&q), Ok(0));
        let blocked_for = producer.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(20),
            "producer should have blocked, returned after {blocked_for:?}"
        );
        assert_eq!(q.remaining(), 2);
        assert_eq!(q.peak_depth(), 2);
        assert!(q.blocked_ns() > 0);
    }

    #[test]
    fn close_rejects_new_enqueues_but_drains_existing() {
        let q = GlobalQueue::bounded(4);
        q.enqueue(1).unwrap();
        q.close();
        assert!(!q.is_drained(), "closed with a task waiting");
        assert_eq!(q.enqueue(2), Err(EnqueueError::Closed));
        assert_eq!(deq(&q), Ok(1));
        assert!(q.is_drained());
        assert_eq!(deq(&q), Err(DequeueError::Drained));
    }

    #[test]
    fn poison_wakes_a_blocked_producer() {
        // Full queue: the producer blocks until the poison arrives.
        let q = Arc::new(GlobalQueue::bounded(1));
        q.enqueue(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.enqueue(1))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.poison("trainer 3 panicked");
        assert_eq!(
            producer.join().unwrap(),
            Err(EnqueueError::Poisoned("trainer 3 panicked".into()))
        );
        assert_eq!(q.poison_reason().as_deref(), Some("trainer 3 panicked"));
        // First poison reason wins.
        q.poison("later");
        assert_eq!(q.poison_reason().as_deref(), Some("trainer 3 panicked"));
    }

    #[test]
    fn poison_wakes_a_blocked_consumer() {
        // Empty queue: the consumer blocks until the poison arrives.
        let q: Arc<GlobalQueue<i32>> = Arc::new(GlobalQueue::bounded(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || deq(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.poison("sampler 0 panicked");
        assert_eq!(
            consumer.join().unwrap(),
            Err(DequeueError::Poisoned("sampler 0 panicked".into()))
        );
    }

    #[test]
    fn dequeue_timeout_returns_none_without_producers() {
        let q: GlobalQueue<u8> = GlobalQueue::bounded(1);
        let started = Instant::now();
        assert!(q
            .dequeue_leased_timeout(0, Duration::from_millis(30))
            .unwrap()
            .is_none());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = GlobalQueue::<u8>::bounded(0);
    }

    // --- Bursts -----------------------------------------------------------

    #[test]
    fn enqueue_many_preserves_fifo_and_counts_one_flush() {
        let obs = Arc::new(Obs::wall());
        let q = GlobalQueue::bounded_with_obs(16, Arc::clone(&obs));
        q.enqueue_many(0..10).unwrap();
        assert_eq!(obs.metrics.counter("queue.enqueued"), 10.0);
        assert_eq!(q.remaining(), 10);
        for i in 0..10 {
            assert_eq!(deq(&q), Ok(i));
        }
        // An empty burst is a no-op, even on a closed queue.
        q.close();
        assert_eq!(q.enqueue_many(std::iter::empty::<i32>()), Ok(()));
        assert_eq!(q.enqueue_many(0..3), Err(EnqueueError::Closed));
    }

    #[test]
    fn enqueue_many_blocks_at_capacity_until_consumers_drain() {
        let q = Arc::new(GlobalQueue::bounded(4));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.enqueue_many(0..12))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.remaining(), 4, "burst must respect the capacity bound");
        let got: Vec<i32> = (0..12).map(|_| deq(&q).unwrap()).collect();
        producer.join().unwrap().unwrap();
        assert_eq!(got, (0..12).collect::<Vec<_>>(), "burst broke FIFO order");
        assert!(q.peak_depth() <= 4);
        assert!(q.blocked_ns() > 0, "the full-side block went unaccounted");
    }

    /// Regression: a producer parked at capacity when the queue closes
    /// books its blocked time, as the poisoned exit always did.
    #[test]
    fn close_books_a_parked_producers_blocked_time() {
        let q = Arc::new(GlobalQueue::bounded(1));
        q.enqueue(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.enqueue(1))
        };
        while q.parked() != (1, 0) {
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(producer.join().unwrap(), Err(EnqueueError::Closed));
        assert!(q.blocked_ns() > 0, "the closed exit dropped the episode");
        assert_eq!(q.parked(), (0, 0));
    }

    /// The wake rule for producers: nobody parked, nobody woken; a parked
    /// producer is woken at or under half the capacity, never above it.
    #[test]
    fn producers_are_due_only_when_parked_and_at_the_low_watermark() {
        let due = |capacity: usize, depth: usize, parked: usize| {
            let q = GlobalQueue::bounded(capacity.max(depth));
            q.enqueue_many(0..depth).unwrap();
            let mut state = q.state.lock();
            state.parked_producers = parked;
            state.producer_due(capacity)
        };
        for depth in 0..=4 {
            assert!(!due(4, depth, 0), "woke nobody at depth {depth}");
        }
        assert_eq!(
            [4, 3, 2, 1, 0].map(|depth| due(4, depth, 1)),
            [false, false, true, true, true]
        );
        // Capacity 1 has its mark at empty: every pop from full wakes.
        assert!(due(1, 0, 1));
        assert_eq!([2, 1, 0].map(|depth| due(3, depth, 2)), [false, true, true]);
    }

    #[test]
    fn enqueue_many_poisoned_mid_burst_keeps_admitted_tasks() {
        let q = Arc::new(GlobalQueue::bounded(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.enqueue_many(0..8))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.poison("trainer died");
        assert_eq!(
            producer.join().unwrap(),
            Err(EnqueueError::Poisoned("trainer died".into()))
        );
        // The first two fit before the poison; they stay admitted.
        assert_eq!(q.remaining(), 2);
    }

    #[test]
    fn dequeue_leased_many_drains_up_to_max_in_one_trip() {
        let q = GlobalQueue::bounded(8);
        q.enqueue_many(0..5).unwrap();
        let leases = q.dequeue_leased_many(3, 2).unwrap();
        assert_eq!(leases.len(), 2);
        assert_eq!((*leases[0].task, *leases[1].task), (0, 1));
        assert_eq!(q.leased_count(), 2);
        // max above availability drains what exists without blocking.
        let rest = q.dequeue_leased_many(3, 10).unwrap();
        assert_eq!(rest.len(), 3);
        assert_eq!(q.reclaim(3), 5);
    }

    #[test]
    fn dequeue_leased_many_blocks_until_a_task_or_drain() {
        let q: Arc<GlobalQueue<i32>> = Arc::new(GlobalQueue::bounded(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.dequeue_leased_many(1, 4).map(|v| v.len()))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.enqueue(9).unwrap();
        assert_eq!(consumer.join().unwrap(), Ok(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.dequeue_leased_many(2, 4))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "saw Drained with a lease open");
        q.close();
        q.reclaim(1);
        assert_eq!(waiter.join().unwrap().map(|v| v.len()), Ok(1));
    }

    /// Regression for the deadline hoist: the timeout is measured against
    /// one fixed deadline, so wakeup churn (enqueues racing with other
    /// consumers, i.e. wakeups that find the queue empty again) cannot
    /// extend the total wait.
    #[test]
    fn timeout_is_bounded_under_wakeup_churn() {
        let q: Arc<GlobalQueue<u64>> = Arc::new(GlobalQueue::bounded(8));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Churners enqueue and instantly steal back, waking the timed
        // waiter over and over without (usually) leaving it anything.
        let churners: Vec<_> = (0..3)
            .map(|c| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        q.enqueue(1).unwrap();
                        if let Ok(Some(lease)) = q.dequeue_leased_timeout(c + 1, Duration::ZERO) {
                            q.complete(lease.id);
                        }
                    }
                })
            })
            .collect();
        let started = Instant::now();
        // 130ms crosses several WAIT_SLICE windows; whatever the waiter
        // observes (a stolen task or None), it must be back by then plus
        // scheduling slack.
        let _ = q.dequeue_leased_timeout(0, Duration::from_millis(130));
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for t in churners {
            t.join().unwrap();
        }
        assert!(
            elapsed < Duration::from_millis(400),
            "timed dequeue overstayed: {elapsed:?}"
        );
    }

    // --- Leases -----------------------------------------------------------

    #[test]
    fn completed_leases_resolve_and_drain() {
        let q = GlobalQueue::bounded(4);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        let a = q.dequeue_leased(7).unwrap();
        let b = q.dequeue_leased(7).unwrap();
        assert_eq!((*a.task, *b.task), (1, 2));
        assert_eq!(q.leased_count(), 2);
        q.complete(a.id);
        q.complete(b.id);
        assert_eq!(q.leased_count(), 0);
        q.close();
        assert_eq!(deq(&q), Err(DequeueError::Drained));
    }

    #[test]
    fn dequeue_leased_timeout_times_out_and_leases() {
        let q: GlobalQueue<u8> = GlobalQueue::bounded(2);
        let started = Instant::now();
        assert!(q
            .dequeue_leased_timeout(3, Duration::from_millis(30))
            .unwrap()
            .is_none());
        assert!(started.elapsed() >= Duration::from_millis(25));
        // With a task present it behaves exactly like dequeue_leased.
        q.enqueue(9).unwrap();
        let lease = q
            .dequeue_leased_timeout(3, Duration::from_millis(30))
            .unwrap()
            .expect("task is ready");
        assert_eq!(*lease.task, 9);
        assert_eq!(q.leased_count(), 1);
        assert_eq!(q.reclaim(3), 1, "timed-out-path leases are reclaimable");
    }

    #[test]
    fn reclaim_replays_only_the_dead_owners_leases() {
        let q = GlobalQueue::bounded(8);
        for i in 0..4 {
            q.enqueue(i).unwrap();
        }
        let kept = q.dequeue_leased(0).unwrap(); // owner 0, task 0
        let _lost1 = q.dequeue_leased(1).unwrap(); // owner 1, task 1
        let _lost2 = q.dequeue_leased(1).unwrap(); // owner 1, task 2
        assert_eq!(q.remaining(), 1);
        assert_eq!(q.reclaim(1), 2);
        assert_eq!(q.leased_count(), 1, "owner 0's lease must survive");
        // Replays come back before the fresh task 3 (front re-enqueue).
        let replayed: Vec<i32> = (0..2).map(|_| deq(&q).unwrap()).collect();
        let mut sorted = replayed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        assert_eq!(deq(&q), Ok(3));
        q.complete(kept.id);
        // Reclaiming an owner with no leases is a no-op.
        assert_eq!(q.reclaim(1), 0);
    }

    /// An owner that leased a burst with `dequeue_leased_many` dies
    /// holding all of it; the replay must come back in the original batch
    /// order or the bit-identical-history guarantee breaks.
    #[test]
    fn reclaim_replays_in_original_enqueue_order() {
        let q = GlobalQueue::bounded(8);
        for i in 0..6 {
            q.enqueue(i).unwrap();
        }
        let leases = q.dequeue_leased_many(4, 3).unwrap(); // tasks 0, 1, 2
        assert_eq!(leases.len(), 3);
        assert_eq!(q.reclaim(4), 3);
        let replayed: Vec<i32> = (0..6).map(|_| deq(&q).unwrap()).collect();
        assert_eq!(replayed, vec![0, 1, 2, 3, 4, 5], "replay broke FIFO order");
    }

    #[test]
    fn closed_queue_waits_for_outstanding_leases() {
        // A consumer blocked on a closed-but-leased queue must not see
        // Drained until the lease resolves — and must wake when a reclaim
        // replays the batch.
        let q: Arc<GlobalQueue<i32>> = Arc::new(GlobalQueue::bounded(2));
        q.enqueue(42).unwrap();
        let lease = q.dequeue_leased(9).unwrap();
        q.close();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || deq(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        // Still blocked: closed but one lease outstanding.
        assert!(!waiter.is_finished(), "saw Drained with a lease open");
        assert_eq!(q.reclaim(9), 1);
        assert_eq!(waiter.join().unwrap(), Ok(42));
        drop(lease);
        assert_eq!(deq(&q), Err(DequeueError::Drained));
    }

    #[test]
    fn completing_last_lease_wakes_drained_consumers() {
        let q: Arc<GlobalQueue<i32>> = Arc::new(GlobalQueue::bounded(2));
        q.enqueue(1).unwrap();
        let lease = q.dequeue_leased(3).unwrap();
        q.close();
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || deq(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.complete(lease.id);
        assert_eq!(waiter.join().unwrap(), Err(DequeueError::Drained));
    }

    #[test]
    fn reclaim_publishes_the_replay_metric() {
        let obs = Arc::new(Obs::wall());
        let q = GlobalQueue::bounded_with_obs(4, Arc::clone(&obs));
        q.enqueue(5).unwrap();
        let _l = q.dequeue_leased(2).unwrap();
        q.reclaim(2);
        assert_eq!(obs.metrics.counter("recovery.replayed_batches"), 1.0);
    }
}
