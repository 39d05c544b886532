//! Model checks over the **real** `GlobalQueue` (built with
//! `gnnlab-core/chk`, so its `core::sync` façade resolves to this
//! crate's scheduled types) and the real `par::Worker` handoff slot.
//!
//! Every test here explores *all* interleavings within the preemption
//! budget, so what a green run certifies is a statement about the
//! protocol, not about one lucky timing:
//!
//! - **exactly-once delivery** across a consumer crash + `reclaim`
//!   replay, including burst enqueue backpressure;
//! - **no lost wakeup** across `close`/`poison` broadcast paths — model
//!   condvar waits have no timeout escape, so the runtime's 50ms
//!   `WAIT_SLICE` safety net cannot mask a missing notify here;
//! - **no deadlock at capacity** with a blocking producer;
//! - **Drained-requires-no-leases**: a consumer never observes
//!   `Drained` while a crashed sibling's lease could still be replayed;
//! - **lease-count conservation** at every quiescent point;
//! - **drained is one read**: `is_drained()` never calls a closed queue
//!   drained while a batch is in flight across a supervisor's `reclaim`,
//!   where the same predicate composed from two locked reads is caught
//!   doing so;
//! - **the wake rule loses nobody**: a producer parked at capacity is
//!   woken at the low watermark even when a multi-lease pop steps over
//!   the mark, an enqueue finds the consumer that parked before it, and
//!   both waiter counts are back at zero at every quiescent point —
//!   also across waits that time out;
//! - **a trained batch goes back once**: the threaded runtime's return
//!   path (complete, then `Arc::try_unwrap`) never puts a buffer on the
//!   return list twice or while the queue could still replay it, and
//!   every buffer comes back; a lease that also returns its batch when
//!   dropped is caught.
//!
//! Spurious wakeups are disabled in the lost-wakeup-sensitive tests so
//! a missing notification is an immediate deadlock report rather than
//! something a spurious wake could paper over.

use gnnlab_chk::sync::Mutex;
use gnnlab_chk::{check, Config, Mode, ModelError, Report};
use gnnlab_core::queue::{DequeueError, EnqueueError, GlobalQueue};
use gnnlab_par::worker::handoff_pair;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The acceptance floor: across this suite we must explore at least
/// this many distinct schedules (each test also reports its own count).
const SUITE_SCHEDULE_FLOOR: usize = 10_000;

fn cfg(preemption_bound: usize) -> Config {
    Config {
        preemption_bound,
        // The queue's monitoring counters (peak depth, blocked time,
        // gauges) are atomics with no control-flow influence; exploring their
        // interleavings would square the tree for no extra coverage.
        atomic_noise: false,
        // A lost wakeup must be a hard deadlock, not something a
        // spurious wake can rescue.
        spurious_wakeups: false,
        ..Config::default()
    }
}

/// The crash+reclaim protocol under test, shared by the DFS and
/// random-walk suites. Three threads:
///
/// - the supervisor/producer bursts `n_tasks` through a capacity-2
///   queue (blocking mid-burst on backpressure), closes, waits out the
///   crash, and replays the dead consumer's lease;
/// - a "crashing" consumer leases one task and exits without
///   completing it (or observes `Drained` if the survivor beat it to
///   every task — both are legal races);
/// - a surviving consumer burst-drains until `Drained`, completing
///   every lease.
///
/// The supervisor closes *before* joining the crasher: the crasher's
/// blocking dequeue is then guaranteed to terminate (task or
/// `Drained`), and `Drained`'s no-outstanding-leases gate keeps the
/// survivor alive until the reclaim replays the crashed lease. Exactly
/// once means: the survivor completes every task exactly once.
fn crash_reclaim_scenario(n_tasks: u64) {
    let q = Arc::new(GlobalQueue::bounded(2));
    let q_crash = Arc::clone(&q);
    let q_live = Arc::clone(&q);

    let crasher = gnnlab_chk::thread::spawn(move || {
        match q_crash.dequeue_leased(1) {
            // Crash: exit holding the lease, never complete it.
            Ok(lease) => Some(*lease.task),
            Err(DequeueError::Drained) => None,
            Err(e) => panic!("unexpected dequeue error: {e:?}"),
        }
    });

    let survivor = gnnlab_chk::thread::spawn(move || {
        let mut got = Vec::new();
        loop {
            match q_live.dequeue_leased_many(2, 2) {
                Ok(leases) => {
                    for lease in leases {
                        got.push(*lease.task);
                        q_live.complete(lease.id);
                    }
                }
                Err(DequeueError::Drained) => return got,
                Err(e) => panic!("unexpected dequeue error: {e:?}"),
            }
        }
    });

    // Burst past capacity: the producer blocks mid-burst until a
    // consumer drains, exercising enqueue backpressure under contention.
    q.enqueue_many(1..=n_tasks).expect("queue is open");
    q.close();

    let crashed_with = crasher.join();
    let reclaimed = q.reclaim(1);
    assert_eq!(
        reclaimed,
        usize::from(crashed_with.is_some()),
        "reclaim resolves exactly the crashed lease"
    );

    let got = survivor.join();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    let expect: Vec<u64> = (1..=n_tasks).collect();
    assert_eq!(
        sorted, expect,
        "every task completes exactly once (crasher leased {crashed_with:?}, delivered {got:?})"
    );
}

/// Exactly-once delivery under crash + reclaim, three threads, burst
/// enqueue/dequeue paths, exhaustively at the default preemption bound.
#[test]
fn exactly_once_under_crash_and_reclaim() {
    let report = check(cfg(2), || crash_reclaim_scenario(3))
        .expect("exactly-once must hold in every schedule");
    assert!(report.exhausted, "DFS must cover the whole tree");
    assert!(report.max_threads_seen >= 3);
    println!(
        "exactly_once_under_crash_and_reclaim: {} schedules (bound {})",
        report.schedules, report.preemption_bound
    );
    assert!(report.schedules >= 100, "suspiciously small tree");
}

/// Two consumers parked on an empty queue; `close` must wake both to
/// observe `Drained`. With spurious wakeups off, a lost close wakeup is
/// a deadlock.
#[test]
fn no_lost_wakeup_across_close() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::<u64>::bounded(2));
        let consumers: Vec<_> = (0..2)
            .map(|owner| {
                let q = Arc::clone(&q);
                gnnlab_chk::thread::spawn(move || match q.dequeue_leased(owner) {
                    Err(DequeueError::Drained) => {}
                    other => panic!("expected Drained, got {other:?}"),
                })
            })
            .collect();
        q.close();
        for c in consumers {
            c.join();
        }
    })
    .expect("close must wake every parked consumer in every schedule");
    assert!(report.exhausted);
    println!(
        "no_lost_wakeup_across_close: {} schedules",
        report.schedules
    );
}

/// A producer bursting into a full queue and a consumer racing the
/// drain are both released by `poison` — in every schedule, with no
/// timeout safety net to fall back on. (Whether the producer manages to
/// finish its burst before the poison lands is a legal race; what may
/// never happen is a thread sleeping through it.)
#[test]
fn no_lost_wakeup_across_poison() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::bounded(1));
        let q_prod = Arc::clone(&q);
        let q_cons = Arc::clone(&q);

        // Pre-fill so the producer's burst must block unless the
        // consumer drains first.
        q.enqueue(0u64).expect("queue is open");
        let producer = gnnlab_chk::thread::spawn(move || {
            match q_prod.enqueue_many([1, 2]) {
                // The consumer may have drained fast enough for the
                // whole burst, or the poison may land mid-burst.
                Ok(()) | Err(EnqueueError::Poisoned(_)) => {}
                other => panic!("expected Ok or Poisoned, got {other:?}"),
            }
        });
        let consumer = gnnlab_chk::thread::spawn(move || loop {
            match q_cons.dequeue_leased(1) {
                Ok(lease) => q_cons.complete(lease.id),
                Err(DequeueError::Poisoned(reason)) => {
                    assert_eq!(reason, "executor 7 crashed");
                    return;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        });
        q.poison("executor 7 crashed");
        producer.join();
        consumer.join();
    })
    .expect("poison must wake blocked producers and consumers");
    assert!(report.exhausted);
    println!(
        "no_lost_wakeup_across_poison: {} schedules",
        report.schedules
    );
}

/// Producer bursts past capacity while a consumer drains: no schedule
/// may deadlock, and FIFO order must survive the backpressure window.
#[test]
fn no_deadlock_at_capacity() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::bounded(1));
        let q_cons = Arc::clone(&q);
        let consumer = gnnlab_chk::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match q_cons.dequeue_leased(1) {
                    Ok(lease) => {
                        got.push(*lease.task);
                        q_cons.complete(lease.id);
                    }
                    Err(DequeueError::Drained) => return got,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        });
        q.enqueue_many(1..=3u64).expect("queue is open");
        q.close();
        let got = consumer.join();
        assert_eq!(got, vec![1, 2, 3], "FIFO must survive backpressure");
    })
    .expect("bounded enqueue against a draining consumer never deadlocks");
    assert!(report.exhausted);
    println!("no_deadlock_at_capacity: {} schedules", report.schedules);
}

/// `Drained` must never be observed while a lease is outstanding: the
/// blocked consumer is released only by `complete` (or a reclaim that
/// re-enqueues). This is the lost-wakeup-prone edge `complete` guards
/// with its conditional notify.
#[test]
fn drained_requires_no_outstanding_leases() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::bounded(2));
        q.enqueue(7u64).expect("queue is open");
        q.close();
        let lease = q.dequeue_leased(1).expect("one task is queued");

        let q_b = Arc::clone(&q);
        let blocked = gnnlab_chk::thread::spawn(move || match q_b.dequeue_leased(2) {
            Err(DequeueError::Drained) => {}
            other => panic!("expected Drained after the lease resolved, got {other:?}"),
        });

        // While the lease is outstanding the sibling consumer must not
        // have seen Drained; completing it must wake the sibling.
        assert_eq!(q.leased_count(), 1);
        q.complete(lease.id);
        assert_eq!(q.leased_count(), 0);
        blocked.join();
    })
    .expect("complete must release the Drained-gated consumer");
    assert!(report.exhausted);
    println!(
        "drained_requires_no_outstanding_leases: {} schedules",
        report.schedules
    );
}

/// Lease-count conservation: delivered = completed + reclaimed +
/// outstanding at every quiescent point, and a reclaimed batch replays
/// to the front.
#[test]
fn lease_count_conservation() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::bounded(4));
        q.enqueue_many([10u64, 20]).expect("queue is open");

        let q_crash = Arc::clone(&q);
        let crasher = gnnlab_chk::thread::spawn(move || {
            let leases = q_crash
                .dequeue_leased_many(1, 2)
                .expect("two tasks are queued");
            let ids: Vec<u64> = leases.iter().map(|l| *l.task).collect();
            // Complete the first, die holding the rest.
            if let Some(first) = leases.first() {
                q_crash.complete(first.id);
            }
            ids
        });

        let delivered = crasher.join();
        let outstanding = q.leased_count();
        // The crasher leased 1 or 2 tasks (the burst takes what is
        // there) and completed exactly one of them.
        assert_eq!(outstanding, delivered.len() - 1);
        let reclaimed = q.reclaim(1);
        assert_eq!(reclaimed, outstanding, "reclaim resolves every lease");
        assert_eq!(q.leased_count(), 0, "no lease survives a reclaim");

        q.close();
        // Replays plus never-delivered tasks drain in order; total
        // completions across both consumers must cover {10, 20} once.
        let mut rest = Vec::new();
        loop {
            match q.dequeue_leased(2) {
                Ok(lease) => {
                    rest.push(*lease.task);
                    q.complete(lease.id);
                }
                Err(DequeueError::Drained) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        let mut all: Vec<u64> = delivered.iter().take(1).copied().chain(rest).collect();
        all.sort_unstable();
        assert_eq!(all, vec![10, 20], "conservation: every task resolves once");
    })
    .expect("lease conservation must hold in every schedule");
    assert!(report.exhausted);
    println!("lease_count_conservation: {} schedules", report.schedules);
}

/// On a closed queue, a consumer dies holding a lease; the supervisor
/// reclaims it while a peer asks whether the queue is drained (the crash
/// handler's and a parked consumer's question). The batch is in flight
/// the whole time — leased, then waiting again — so `drained` must never
/// read true.
fn drained_across_reclaim_scenario(drained: fn(&GlobalQueue<u64>) -> bool) {
    let q = Arc::new(GlobalQueue::bounded(2));
    q.enqueue(7u64).expect("queue is open");
    q.close();
    let q_dead = Arc::clone(&q);
    let dead = gnnlab_chk::thread::spawn(move || {
        // Crash: exit holding the lease, never complete it.
        q_dead.dequeue_leased(1).expect("one task is queued").id
    });
    let q_peer = Arc::clone(&q);
    let peer = gnnlab_chk::thread::spawn(move || {
        assert!(
            !drained(&q_peer),
            "drained read while a batch was in flight"
        );
    });
    dead.join();
    assert_eq!(q.reclaim(1), 1, "the dead consumer's lease is replayed");
    peer.join();
}

/// `is_drained()` reads "closed, nothing waiting, nothing leased" under
/// one lock, so a reclaim cannot fall between its halves.
#[test]
fn is_drained_is_exact_across_a_reclaim() {
    let report = check(cfg(2), || {
        drained_across_reclaim_scenario(GlobalQueue::is_drained)
    })
    .expect("one locked read never calls a batch in flight drained");
    assert!(report.exhausted);
    println!(
        "is_drained_is_exact_across_a_reclaim: {} schedules",
        report.schedules
    );
}

/// The twin: the same predicate from two locked reads, as the checkpoint
/// gate, the consumer's park check and `Shared::queue_drained` once
/// composed it. The scenario's queue is closed, so this is `… && closed`.
/// A reclaim between `remaining()` (the batch is leased) and
/// `leased_count()` (it is waiting again) reads drained — the checker must
/// find that schedule.
#[test]
fn drained_from_two_reads_is_caught_across_a_reclaim() {
    let err = check(cfg(2), || {
        drained_across_reclaim_scenario(|q| q.remaining() == 0 && q.leased_count() == 0)
    })
    .expect_err("a reclaim between the two reads must be found");
    match &*err {
        ModelError::Panic { message, .. } => assert!(
            message.contains("in flight"),
            "the report carries the assertion text: {message}"
        ),
        other => panic!("expected Panic, got {other}"),
    }
    println!(
        "drained_from_two_reads_is_caught_across_a_reclaim: found in schedule {}",
        err.schedule()
    );
}

/// How many batch buffers the return-path scenario can make.
const BUFFERS: usize = 3;

/// A batch buffer of the return-path scenario. Every live copy of a
/// buffer is counted: the runtime moves buffers and never clones one, so
/// a second copy of a slot is that buffer reused while something else
/// still holds it.
#[derive(Debug)]
struct Buf {
    slot: usize,
    batch: u64,
    copies: Arc<[AtomicUsize; BUFFERS]>,
}

impl Buf {
    fn new(slot: usize, batch: u64, copies: &Arc<[AtomicUsize; BUFFERS]>) -> Self {
        copies[slot].fetch_add(1, Ordering::Relaxed);
        Buf {
            slot,
            batch,
            copies: Arc::clone(copies),
        }
    }
}

impl Clone for Buf {
    fn clone(&self) -> Self {
        Buf::new(self.slot, self.batch, &self.copies)
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        self.copies[self.slot].fetch_sub(1, Ordering::Relaxed);
    }
}

/// Puts a trained buffer on the return list, checking the list's
/// invariant: a buffer is on it at most once, and never while it is
/// queued or leased — the queue would hold a second copy then.
fn give_back(list: &Mutex<Vec<Buf>>, buf: Buf) {
    let mut list = list.lock();
    assert!(
        list.iter().all(|b| b.slot != buf.slot),
        "buffer {} returned twice",
        buf.slot
    );
    assert_eq!(
        buf.copies[buf.slot].load(Ordering::Relaxed),
        1,
        "buffer {} returned while still queued or leased",
        buf.slot
    );
    list.push(buf);
}

/// The runtime's batch return path (`threaded::consumer` and
/// `threaded::sampler`): a consumer that trained a batch completes its
/// lease and takes the buffer back with `Arc::try_unwrap`, which only its
/// sole owner can do; a producer refills returned buffers before it makes
/// new ones. Three threads:
///
/// - the producer/supervisor enqueues batches 1 and 2 in new buffers,
///   then batch 3 in a returned buffer if a consumer has given one back
///   yet, closes, waits out the crash and reclaims the dead consumer's
///   lease;
/// - a consumer leases one batch and dies holding it (or sees `Drained`);
/// - a survivor trains until `Drained`, returning every buffer it can
///   unwrap — the reclaimed batch included.
///
/// `return_dropped_lease` seeds the defect: the dying consumer also hands
/// its batch back as it drops the lease, while the queue still holds it
/// for the replay.
fn return_path_scenario(return_dropped_lease: bool) {
    let copies = Arc::new([(); BUFFERS].map(|()| AtomicUsize::new(0)));
    let q = Arc::new(GlobalQueue::<Buf>::bounded(2));
    let returned = Arc::new(Mutex::new(Vec::new()));

    let (q_dead, returned_dead) = (Arc::clone(&q), Arc::clone(&returned));
    let dead = gnnlab_chk::thread::spawn(move || match q_dead.dequeue_leased(1) {
        Ok(lease) => {
            if return_dropped_lease {
                give_back(&returned_dead, (*lease.task).clone());
            }
            Some(lease.task.batch)
        }
        Err(DequeueError::Drained) => None,
        Err(e) => panic!("unexpected dequeue error: {e:?}"),
    });

    let (q_live, returned_live) = (Arc::clone(&q), Arc::clone(&returned));
    let survivor = gnnlab_chk::thread::spawn(move || {
        let mut trained = Vec::new();
        loop {
            match q_live.dequeue_leased(2) {
                Ok(lease) => {
                    trained.push(lease.task.batch);
                    q_live.complete(lease.id);
                    if let Ok(buf) = Arc::try_unwrap(lease.task) {
                        give_back(&returned_live, buf);
                    }
                }
                Err(DequeueError::Drained) => return trained,
                Err(e) => panic!("unexpected dequeue error: {e:?}"),
            }
        }
    });

    q.enqueue_many([Buf::new(0, 1, &copies), Buf::new(1, 2, &copies)])
        .expect("queue is open");
    let reused = returned.lock().pop();
    let third = match reused {
        Some(mut buf) => {
            buf.batch = 3;
            buf
        }
        None => Buf::new(2, 3, &copies),
    };
    q.enqueue(third).expect("queue is open");
    q.close();
    dead.join();
    q.reclaim(1);
    let mut trained = survivor.join();
    trained.sort_unstable();
    assert_eq!(trained, vec![1, 2, 3], "every batch trains exactly once");
    // Every buffer made came back, once.
    let live: usize = copies.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(live, returned.lock().len(), "a buffer was lost or copied");
}

/// A trained batch goes back to the producers at most once, never while
/// the queue could still replay it, and every buffer comes back — across
/// a consumer crash, its reclaim and the survivor's replay.
#[test]
fn returned_batches_are_never_queued_leased_or_returned_twice() {
    let report = check(cfg(2), || return_path_scenario(false))
        .expect("the return path holds its invariant in every schedule");
    assert!(report.exhausted);
    println!(
        "returned_batches_are_never_queued_leased_or_returned_twice: {} schedules",
        report.schedules
    );
}

/// The twin: a lease that also hands its batch back when it is dropped
/// puts a buffer on the return list that the queue holds for the replay.
#[test]
fn returning_a_dropped_lease_is_caught() {
    let err = check(cfg(2), || return_path_scenario(true))
        .expect_err("a batch returned by a dropped lease must be found");
    match &*err {
        ModelError::Panic { message, .. } => assert!(
            message.contains("returned"),
            "the report carries the assertion text: {message}"
        ),
        other => panic!("expected Panic, got {other}"),
    }
    println!(
        "returning_a_dropped_lease_is_caught: found in schedule {}",
        err.schedule()
    );
}

/// The low-watermark wake rule under a pop that steps over the mark.
/// Capacity 4 puts the mark at depth 2. The producer bursts six tasks
/// and parks at depth 4; the consumer alternates a single lease with a
/// two-lease burst, so in the schedule where it starts on a full queue
/// the depth goes 4 → 3 → 1 — never *equal* to the mark. A rule that
/// wakes on `== capacity / 2` leaves the producer parked, the consumer
/// drains the rest and parks on the empty queue, and with no timed
/// re-check in the model that is a deadlock. `<=` wakes at depth 1.
/// The consumer parking first (empty queue, then the enqueue flush must
/// find it counted) is explored by the same tree.
#[test]
fn watermark_wake_survives_a_pop_that_steps_over_the_mark() {
    let report = check(cfg(2), || {
        let q = Arc::new(GlobalQueue::bounded(4));
        let q_cons = Arc::clone(&q);
        let consumer = gnnlab_chk::thread::spawn(move || {
            let mut got = Vec::new();
            for max in [1usize, 2].into_iter().cycle() {
                match q_cons.dequeue_leased_many(1, max) {
                    Ok(leases) => {
                        for lease in leases {
                            got.push(*lease.task);
                            q_cons.complete(lease.id);
                        }
                    }
                    Err(DequeueError::Drained) => break,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
            got
        });
        q.enqueue_many(1..=6u64).expect("queue is open");
        q.close();
        let got = consumer.join();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6], "FIFO across the watermark");
        assert_eq!(q.parked(), (0, 0), "waiter counts return to zero");
    })
    .expect("a parked producer is woken at or under the low watermark");
    assert!(report.exhausted);
    println!(
        "watermark_wake_survives_a_pop_that_steps_over_the_mark: {} schedules",
        report.schedules
    );
}

/// Waiter counts across waits that *time out*. The model reports a
/// scheduler-chosen spurious wake as a timeout, so with those enabled a
/// consumer's timed dequeue wakes with nothing to take, re-parks, and is
/// finally served by the enqueue; a producer at capacity does the same
/// on its side. Every wait must give its count back however it ended:
/// at the quiescent end both are zero. (A count left behind loses no
/// wake-up — it only makes every later pop or enqueue notify for nobody,
/// which no functional test would ever see.)
#[test]
fn waiter_counts_return_to_zero_across_timed_out_waits() {
    let mut config = cfg(2);
    config.spurious_wakeups = true;
    let report = check(config, || {
        let q = Arc::new(GlobalQueue::bounded(1));
        let q_cons = Arc::clone(&q);
        let consumer = gnnlab_chk::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 2 {
                // The hour never passes in the model: only a task or a
                // modelled timeout ends the wait.
                match q_cons.dequeue_leased_timeout(1, std::time::Duration::from_secs(3600)) {
                    Ok(Some(lease)) => {
                        got.push(*lease.task);
                        q_cons.complete(lease.id);
                    }
                    Ok(None) => {}
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
            got
        });
        // Capacity 1: the second task parks the producer until the first
        // is taken.
        q.enqueue_many([1u64, 2]).expect("queue is open");
        assert_eq!(consumer.join(), vec![1, 2]);
        assert_eq!(q.parked(), (0, 0), "a wait kept its count");
    })
    .expect("every wait returns its waiter count, timed out or not");
    assert!(report.exhausted);
    println!(
        "waiter_counts_return_to_zero_across_timed_out_waits: {} schedules",
        report.schedules
    );
}

/// The `par::Worker` result slot: fill and join under the model. The
/// joiner's condvar wait is untimed in the model, so a missing
/// `notify_all` in `fill` would deadlock instead of limping through.
#[test]
fn worker_slot_handoff() {
    let report = check(cfg(2), || {
        let (filler, handle) = handoff_pair::<u64>();
        let producer = gnnlab_chk::thread::spawn(move || {
            filler.fill_ok(99);
        });
        assert_eq!(handle.join(), 99);
        producer.join();
    })
    .expect("slot fill/join must be deadlock-free");
    assert!(report.exhausted);
    println!("worker_slot_handoff: {} schedules", report.schedules);
}

/// The acceptance gate: the crash+reclaim scenario at increasing
/// preemption bounds must clear the suite's floor of distinct
/// schedules, count reported. Three threads, bound ≥ 2, as required.
#[test]
fn schedule_floor_is_met() {
    let mut total = 0usize;
    for bound in [2usize, 3] {
        let report: Report = check(cfg(bound), || crash_reclaim_scenario(3))
            .expect("exactly-once at a deeper preemption bound");
        assert!(report.exhausted, "bound {bound} tree must be finite");
        println!(
            "schedule_floor: bound {bound} explored {} schedules",
            report.schedules
        );
        total += report.schedules;
    }
    println!("schedule_floor: total {total} distinct schedules explored");
    assert!(
        total >= SUITE_SCHEDULE_FLOOR,
        "acceptance requires ≥ {SUITE_SCHEDULE_FLOOR} schedules, explored {total}"
    );
}

/// A long seeded random walk over the crash+reclaim scenario — the
/// deep-schedule complement to the bounded DFS, deterministic for a
/// fixed seed (CI runs this with a larger schedule count). Spurious
/// wakeups are enabled here: the queue's predicate loops must absorb
/// them.
#[test]
fn seeded_random_walk_is_clean_and_deterministic() {
    let walk = |seed: u64| {
        let mut config = cfg(usize::MAX);
        config.mode = Mode::RandomWalk {
            seed,
            schedules: 300,
        };
        config.spurious_wakeups = true;
        check(config, || crash_reclaim_scenario(4)).expect("random walk must stay clean")
    };
    let a = walk(0xC0FFEE);
    let b = walk(0xC0FFEE);
    assert_eq!(a.schedules, 300);
    assert_eq!(
        a.max_steps_seen, b.max_steps_seen,
        "walks must replay identically"
    );
    println!(
        "seeded_random_walk: {} schedules, deepest {} steps",
        a.schedules, a.max_steps_seen
    );
}

/// The CI nightly soak: a much longer seeded random walk over the
/// crash+reclaim scenario with spurious wakeups enabled and no
/// preemption bound — sampling schedules far past the exhaustive
/// frontier. `#[ignore]`d locally (it is pure depth, not new coverage);
/// the model-check CI job runs it by name. `GNNLAB_CHK_SEED` varies the
/// stream so successive nightly runs explore different schedules while
/// any single run stays reproducible from its logged seed.
#[test]
#[ignore = "CI-sized soak; run explicitly via the model-check job"]
fn long_seeded_random_walk_soaks_the_lease_protocol() {
    let seed = std::env::var("GNNLAB_CHK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let mut config = cfg(usize::MAX);
    config.mode = Mode::RandomWalk {
        seed,
        schedules: 20_000,
    };
    config.spurious_wakeups = true;
    let report =
        check(config, || crash_reclaim_scenario(4)).expect("the long walk must stay clean");
    assert_eq!(report.schedules, 20_000);
    println!(
        "long walk: seed {seed:#x}, {} schedules, deepest {} steps",
        report.schedules, report.max_steps_seen
    );
}
