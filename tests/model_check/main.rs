//! Regression suite for the model checker's bug-finding power.
//!
//! The `crates/chk/tests/queue_model.rs` suite proves the *real*
//! `GlobalQueue` clean under exhaustive schedule exploration. That proof
//! is only worth something if the checker would actually catch the bugs
//! it claims to rule out — so this suite runs the same checker against
//! `broken_queue`'s seeded defects and asserts each one is **found**:
//!
//! - the lost-wakeup variant (notify only on the empty→non-empty edge)
//!   must surface as a deadlock with both consumers parked;
//! - the double-delivery variant (first dequeue forgets to pop) must
//!   surface as a panic from the exactly-once assertion;
//! - the `== capacity / 2` watermark (a two-item pop steps over the mark)
//!   must surface as a deadlock with the producer parked at capacity;
//! - the waiter count a timed-out wait forgets to give back must surface
//!   as a panic from the quiescent-point assertion on the counts.
//!
//! If a checker refactor ever stops detecting either, this fails — the
//! canary for the canary.

mod broken_queue;

use broken_queue::{BrokenQueue, Defect, WakeDefect, WatermarkQueue};
use gnnlab_chk::{check, Config, ModelError};
use std::sync::Arc;

fn cfg() -> Config {
    Config {
        // No spurious wakeups: a lost signal must be a hard deadlock,
        // not something a lucky spurious wake papers over.
        spurious_wakeups: false,
        atomic_noise: false,
        ..Config::default()
    }
}

/// Two consumers, two back-to-back enqueues: the broken queue signals
/// only the first (empty→non-empty edge), so in schedules where both
/// consumers park before the producer runs, the second consumer sleeps
/// forever next to an available item. The checker must find that
/// schedule and report it as a deadlock.
#[test]
fn checker_catches_seeded_lost_wakeup() {
    let err = check(cfg(), || {
        let q = Arc::new(BrokenQueue::new(Defect::LostWakeup));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                gnnlab_chk::thread::spawn(move || q.dequeue())
            })
            .collect();
        q.enqueue(1u64);
        q.enqueue(2u64);
        let mut got: Vec<u64> = consumers.into_iter().map(|c| c.join()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    })
    .expect_err("the lost wakeup must be reachable within the preemption budget");
    match &*err {
        ModelError::Deadlock { threads, .. } => {
            assert!(
                threads.iter().any(|t| t.contains("waiting")),
                "the report names the parked consumer: {threads:?}"
            );
        }
        other => panic!("expected Deadlock, got {other}"),
    }
    assert!(
        !err.trace().is_empty(),
        "the defect report carries the offending schedule's trace"
    );
    println!("lost wakeup found in schedule {}", err.schedule());
}

/// Two consumers, two items: the broken queue delivers the first item
/// twice, so some consumer pair observes a duplicate and the
/// exactly-once assertion fires. The checker must surface that panic.
#[test]
fn checker_catches_seeded_double_delivery() {
    let err = check(cfg(), || {
        let q = Arc::new(BrokenQueue::new(Defect::DoubleDelivery));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                gnnlab_chk::thread::spawn(move || q.dequeue())
            })
            .collect();
        q.enqueue(1u64);
        q.enqueue(2u64);
        let mut got: Vec<u64> = consumers.into_iter().map(|c| c.join()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "exactly-once delivery");
    })
    .expect_err("the double delivery must violate exactly-once");
    match &*err {
        ModelError::Panic { message, .. } => {
            assert!(
                message.contains("exactly-once"),
                "the report carries the assertion text: {message}"
            );
        }
        other => panic!("expected Panic, got {other}"),
    }
    println!("double delivery found in schedule {}", err.schedule());
}

/// Capacity 4, mark at depth 2: the producer parks at depth 4, the
/// consumer alternates a pop of one with a pop of two, so the depth goes
/// 4 → 3 → 1 and never stands on the mark.
fn watermark_scenario(defect: Option<WakeDefect>) {
    let q = Arc::new(WatermarkQueue::new(4, defect));
    let q_cons = Arc::clone(&q);
    let consumer = gnnlab_chk::thread::spawn(move || {
        let mut got = Vec::new();
        for max in [1usize, 2].into_iter().cycle() {
            match q_cons.pop_many(max) {
                Some(items) => got.extend(items),
                None => break,
            }
        }
        got
    });
    for i in 1..=6u64 {
        q.enqueue(i);
    }
    q.close();
    assert_eq!(consumer.join(), vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(q.parked(), (0, 0), "parked counts at the quiescent end");
}

/// A consumer retries a timed pop until the one item arrives. Under the
/// model a spurious wake *is* the timeout, so this needs them enabled.
fn timed_pop_scenario(defect: Option<WakeDefect>) {
    let q = Arc::new(WatermarkQueue::new(2, defect));
    let q_cons = Arc::clone(&q);
    let consumer = gnnlab_chk::thread::spawn(move || loop {
        if let Some(item) = q_cons.pop_timeout() {
            return item;
        }
    });
    q.enqueue(7u64);
    assert_eq!(consumer.join(), 7);
    assert_eq!(q.parked(), (0, 0), "parked counts at the quiescent end");
}

fn cfg_with_timeouts() -> Config {
    Config {
        spurious_wakeups: true,
        ..cfg()
    }
}

/// The `==` watermark loses the producer's only wake-up; with no timed
/// re-check in the model (`WAIT_SLICE` is what hides it in production)
/// the checker must report the deadlock.
#[test]
fn checker_catches_seeded_watermark_equality() {
    let err = check(cfg(), || watermark_scenario(Some(WakeDefect::MarkEquality)))
        .expect_err("a pop that steps over the mark must strand the parked producer");
    match &*err {
        ModelError::Deadlock { threads, .. } => {
            assert_eq!(
                threads.iter().filter(|t| t.contains("waiting")).count(),
                2,
                "producer parked at capacity, consumer parked on empty: {threads:?}"
            );
        }
        other => panic!("expected Deadlock, got {other}"),
    }
    println!("watermark equality found in schedule {}", err.schedule());
}

/// The count a timed-out wait keeps deadlocks nothing — it silently turns
/// the wake rule back into notify-on-every-operation — so the quiescent
/// assertion on the counts is what must catch it.
#[test]
fn checker_catches_seeded_stale_waiter_count() {
    let err = check(cfg_with_timeouts(), || {
        timed_pop_scenario(Some(WakeDefect::StaleWaiterCount))
    })
    .expect_err("a timed-out wait that keeps its count must trip the invariant");
    match &*err {
        ModelError::Panic { message, .. } => {
            assert!(
                message.contains("parked counts"),
                "the report carries the assertion text: {message}"
            );
        }
        other => panic!("expected Panic, got {other}"),
    }
    println!("stale waiter count found in schedule {}", err.schedule());
}

/// Both wake-rule harnesses stay green on the correct rule.
#[test]
fn correct_wake_rule_is_clean_under_the_same_harnesses() {
    let a = check(cfg(), || watermark_scenario(None)).expect("`<=` wakes the producer");
    let b = check(cfg_with_timeouts(), || timed_pop_scenario(None))
        .expect("every wait gives its count back");
    assert!(a.exhausted && b.exhausted);
    println!(
        "correct wake rule: {} + {} schedules, all clean",
        a.schedules, b.schedules
    );
}

/// The same harness on a *correct* queue protocol stays green — the
/// checker's defect reports above are signal, not noise.
#[test]
fn correct_protocol_is_clean_under_the_same_harness() {
    let report = check(cfg(), || {
        let q = Arc::new(gnnlab_core::queue::GlobalQueue::bounded(2));
        let consumers: Vec<_> = (0..2)
            .map(|owner| {
                let q = Arc::clone(&q);
                gnnlab_chk::thread::spawn(move || match q.dequeue_leased(owner) {
                    Ok(lease) => {
                        q.complete(lease.id);
                        Some(*lease.task)
                    }
                    Err(gnnlab_core::queue::DequeueError::Drained) => None,
                    Err(e) => panic!("unexpected {e:?}"),
                })
            })
            .collect();
        q.enqueue(1u64).expect("queue is open");
        q.enqueue(2u64).expect("queue is open");
        q.close();
        let mut got: Vec<u64> = consumers.into_iter().filter_map(|c| c.join()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    })
    .expect("the real GlobalQueue passes where the broken variants fail");
    assert!(report.exhausted);
    println!(
        "correct protocol: {} schedules, all clean",
        report.schedules
    );
}
