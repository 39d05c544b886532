//! The lease ledgers: the Samplers' id queue and the sample queue
//! (§5.2's dynamic global scheduler, both on the lease protocol of
//! [`GlobalQueue`]), the trained tasks on their way back to a Sampler,
//! pre-sampling's kept samples, the executor and batch counts, and the
//! first-lease barrier.

use super::config::ThreadedConfig;
use super::shared::TrainTask;
use crate::queue::{GlobalQueue, Lease};
use crate::sync::{AtomicUsize, Condvar, Mutex, Ordering};
use gnnlab_obs::Obs;
use gnnlab_sampling::Sample;
use std::sync::Arc;

/// Every lease of the run, and what it has delivered.
pub(super) struct Ledgers {
    samples: GlobalQueue<TrainTask>,
    /// Every untrained batch id, ascending, queued and closed before any
    /// Sampler runs ([`Ledgers::post_ids`]). A Sampler leases a burst and
    /// completes it once its samples are queued; a crash reclaims it to the
    /// front. On a private hub, so `queue.*` stays the sample queue's.
    ids: GlobalQueue<u64>,
    /// Trained tasks on their way back to the Samplers, which refill them
    /// in place (DESIGN §4c, "A batch's life"). Only a task's sole owner
    /// can put it here — `Arc::try_unwrap` after the lease completes — and
    /// the queue holds a reference to every task it has queued or leased,
    /// so no task here can still be replayed, and none is here twice. A
    /// Sampler makes a new task only when this list runs dry, so it never
    /// holds more than were ever in flight at once.
    returned: Mutex<Vec<TrainTask>>,
    /// Pre-sampling's samples of epoch-0 batches `0..min(batches_per_epoch,
    /// queue_capacity)`, slot `b` for batch `b`. The Sampler that leases
    /// batch `b` takes its slot instead of sampling it again; a slot lost
    /// with a crashed burst stays empty and is sampled afresh, to the same
    /// bits. Empty when α = 0 skips the pass.
    presampled: Mutex<Vec<Option<Sample>>>,
    /// Samplers in their sampling phase: counted at spawn, uncounted when
    /// the phase ends or unwinds.
    samplers: AtomicUsize,
    /// Unique executor ids (also the lease owner ids and respawn RNG
    /// stream indices).
    next_exec: AtomicUsize,
    produced: AtomicUsize,
    trained: AtomicUsize,
    /// Dedicated Trainers of the starting fleet that have not leased a
    /// batch yet; a consumer's second lease waits until none is.
    unleased: Mutex<usize>,
    /// Signalled when `unleased` reaches zero.
    all_leased: Condvar,
}

impl Ledgers {
    /// The ledgers of a run of `cfg`'s fleet, queue and epochs, before
    /// any lease.
    pub(super) fn new(
        cfg: &ThreadedConfig,
        batches_per_epoch: usize,
        obs: Arc<Obs>,
        presampled: Vec<Option<Sample>>,
    ) -> Self {
        Ledgers {
            samples: GlobalQueue::bounded_with_obs(cfg.queue_capacity, obs),
            ids: GlobalQueue::bounded((batches_per_epoch * cfg.epochs).max(1)),
            returned: Mutex::new(Vec::new()),
            presampled: Mutex::new(presampled),
            samplers: AtomicUsize::new(0),
            // The starting fleet takes ids `0..num_samplers + num_trainers`
            // (`run_threaded_obs`); respawns take the ones after.
            next_exec: AtomicUsize::new(cfg.num_samplers + cfg.num_trainers),
            produced: AtomicUsize::new(0),
            trained: AtomicUsize::new(0),
            unleased: Mutex::new(cfg.num_trainers),
            all_leased: Condvar::new(),
        }
    }

    /// The sample queue: consumers lease from it, Samplers fill it.
    pub(super) fn samples(&self) -> &GlobalQueue<TrainTask> {
        &self.samples
    }

    /// The Samplers' id queue.
    pub(super) fn ids(&self) -> &GlobalQueue<u64> {
        &self.ids
    }

    /// Queues `ids` — every id the master has not stepped on — for the
    /// Samplers, then closes the id queue.
    pub(super) fn post_ids(&self, ids: Vec<u64>) {
        gnnlab_par::invariant!(
            self.ids.enqueue_many(ids),
            "a fresh id queue holds every id and is neither closed nor poisoned"
        );
        self.ids.close();
    }

    /// Poisons both queues, so every blocked executor unwinds promptly — a
    /// Sampler waiting on a peer's ids included.
    pub(super) fn poison(&self, reason: &str) {
        self.samples.poison(reason);
        self.ids.poison(reason);
    }

    /// Moves up to `n` returned tasks onto `tasks` for a Sampler to refill.
    pub(super) fn take_returned(&self, n: usize, tasks: &mut Vec<TrainTask>) {
        let mut returned = self.returned.lock();
        let from = returned.len().saturating_sub(n);
        tasks.extend(returned.drain(from..));
    }

    /// Takes pre-sampling's sample of global batch `i`, if it is kept and
    /// no one took it before. Only epoch 0's first batches are kept, and
    /// their global ids are their indices in the epoch.
    pub(super) fn take_presampled(&self, i: usize) -> Option<Sample> {
        self.presampled.lock().get_mut(i).and_then(Option::take)
    }

    /// Completes a Sampler's id leases once their samples are queued, and
    /// counts them produced.
    pub(super) fn delivered(&self, leases: &[Lease<u64>]) {
        for lease in leases {
            self.ids.complete(lease.id);
        }
        self.produced.fetch_add(leases.len(), Ordering::Relaxed);
    }

    /// Confirms a trained batch's lease and hands its task back for a
    /// Sampler to refill. The unwrap succeeds only for the sole owner, so
    /// a task the queue still holds — one a reclaim could replay — is
    /// never reused.
    pub(super) fn give_back(&self, lease: Lease<TrainTask>) {
        self.samples.complete(lease.id);
        if let Ok(task) = Arc::try_unwrap(lease.task) {
            self.returned.lock().push(task);
        }
    }

    /// Counts one batch trained.
    pub(super) fn trained_one(&self) {
        self.trained.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn trained(&self) -> usize {
        self.trained.load(Ordering::Relaxed)
    }

    pub(super) fn produced(&self) -> usize {
        self.produced.load(Ordering::Relaxed)
    }

    /// A resume's trained batches: produced and trained, their kept
    /// samples dropped (they would never be leased).
    pub(super) fn restore(&self, trained: &[usize]) {
        trained.iter().for_each(|&i| drop(self.take_presampled(i)));
        self.trained.store(trained.len(), Ordering::Relaxed);
        self.produced.store(trained.len(), Ordering::Relaxed);
    }

    /// A fresh executor id.
    pub(super) fn next_exec(&self) -> usize {
        self.next_exec.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts a Sampler live, before its thread starts.
    pub(super) fn sampler_up(&self) {
        self.samplers.fetch_add(1, Ordering::AcqRel);
    }

    /// Uncounts a Sampler whose phase ended or unwound; `true` if it was
    /// the last one live.
    pub(super) fn sampler_down(&self) -> bool {
        self.samplers.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Samplers in their sampling phase.
    pub(super) fn samplers(&self) -> usize {
        self.samplers.load(Ordering::Acquire)
    }

    /// A consumer's place in the first-lease barrier: a dedicated
    /// Trainer's, or none for a standby.
    pub(super) fn first_lease(&self, trainer: bool) -> FirstLease<'_> {
        FirstLease(trainer.then_some(self))
    }

    /// Blocks until every dedicated Trainer has leased a batch. On a short
    /// run the consumers that are up first — a peer that loaded its cache
    /// sooner, a standby — would otherwise drain the queue while a Trainer
    /// is still loading or waiting for a core, and that Trainer's `T_t`,
    /// batch-time gauge and cache counters would never be measured.
    pub(super) fn await_first_leases(&self) {
        let mut left = self.unleased.lock();
        while *left > 0 {
            self.all_leased.wait(&mut left);
        }
    }
}

/// A dedicated Trainer's place in [`Ledgers::await_first_leases`]' count:
/// released at the Trainer's first lease, or when dropped before one —
/// the Trainer exited, or unwound while loading or consuming — so no
/// consumer waits on a Trainer that will never lease.
pub(super) struct FirstLease<'a>(Option<&'a Ledgers>);

impl FirstLease<'_> {
    pub(super) fn release(&mut self) {
        if let Some(ledgers) = self.0.take() {
            // Saturating: a respawned Trainer holds a place too, after
            // the starting fleet's count has run out.
            let mut left = ledgers.unleased.lock();
            *left = left.saturating_sub(1);
            if *left == 0 {
                ledgers.all_leased.notify_all();
            }
        }
    }
}

impl Drop for FirstLease<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::MutexGuard;

    impl Ledgers {
        /// Every kept pre-sample slot, for the runtime tests.
        pub(in crate::threaded) fn kept(&self) -> MutexGuard<'_, Vec<Option<Sample>>> {
            self.presampled.lock()
        }
    }

    fn ledgers(num_trainers: usize) -> Ledgers {
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers,
            queue_capacity: 4,
            epochs: 2,
            ..ThreadedConfig::default()
        };
        Ledgers::new(&cfg, 4, Arc::new(Obs::wall()), Vec::new())
    }

    /// Dedicated Trainers that have not leased yet.
    fn unleased(l: &Ledgers) -> usize {
        *l.unleased.lock()
    }

    /// Releases `last` while a peer waits at the barrier; the peer must
    /// wake.
    fn release_under_a_waiter(l: &Ledgers, last: impl FnOnce() + Send) {
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| l.await_first_leases());
            last();
            waiter.join().unwrap();
        });
    }

    #[test]
    fn the_barrier_opens_at_the_last_trainers_first_lease() {
        let l = ledgers(2);
        let (mut a, mut b) = (l.first_lease(true), l.first_lease(true));
        drop(l.first_lease(false));
        a.release();
        a.release();
        assert_eq!(
            unleased(&l),
            1,
            "a standby and a second release count nothing"
        );
        release_under_a_waiter(&l, || b.release());
        assert_eq!(unleased(&l), 0);
        // A respawned Trainer's place, after the count ran out.
        l.first_lease(true).release();
        assert_eq!(unleased(&l), 0);
        l.await_first_leases();
    }

    #[test]
    fn a_trainer_that_drops_before_leasing_opens_the_barrier_too() {
        let l = ledgers(2);
        let (mut a, b) = (l.first_lease(true), l.first_lease(true));
        a.release();
        assert_eq!(unleased(&l), 1);
        release_under_a_waiter(&l, || drop(b));
        assert_eq!(unleased(&l), 0);
    }

    #[test]
    fn counts_and_returned_tasks_follow_the_leases() {
        let l = ledgers(1);
        l.post_ids((0..3).collect());
        assert_eq!((l.next_exec(), l.next_exec()), (2, 3));
        l.sampler_up();
        l.sampler_up();
        assert_eq!(l.samplers(), 2);
        assert!(!l.sampler_down());
        assert!(l.sampler_down(), "the last one");
        let ids = l.ids().dequeue_leased_many(0, 2).unwrap();
        let tasks = ids.iter().map(|id| TrainTask {
            id: *id.task,
            ..TrainTask::default()
        });
        l.samples().enqueue_many(tasks).unwrap();
        l.delivered(&ids);
        assert_eq!(l.produced(), 2);
        let lease = l.samples().dequeue_leased(1).unwrap();
        l.give_back(lease);
        l.trained_one();
        assert_eq!(l.trained(), 1);
        let mut refill = Vec::new();
        l.take_returned(4, &mut refill);
        assert_eq!(refill.iter().map(|t| t.id).collect::<Vec<_>>(), [0]);
        l.restore(&[0, 1]);
        assert_eq!((l.trained(), l.produced()), (2, 2));
    }
}
