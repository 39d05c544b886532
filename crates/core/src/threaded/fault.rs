//! The fault part: injected crashes that have fired, the respawn budget
//! spent, the run's first fatal error, and the cumulative
//! [`RecoveryReport`]. Each recovery event is one method that moves its
//! report field and its metric together.

use super::config::{RecoveryReport, ThreadedError, ThreadedErrorKind};
use crate::faults::FaultPlan;
use crate::sync::Ordering::{AcqRel, Acquire};
use crate::sync::{AtomicBool, AtomicUsize, Mutex};
use gnnlab_obs::{names, Obs};
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// What the supervisor knows about the run's faults.
pub(super) struct Faults {
    obs: Arc<Obs>,
    /// [`FaultPlan::max_respawns`].
    budget: usize,
    /// One fired flag per [`FaultPlan::crashes`] entry, so each injected
    /// crash fires exactly once across respawns.
    crash_fired: Vec<AtomicBool>,
    /// Units of the budget spent so far.
    respawns_used: AtomicUsize,
    first_error: Mutex<Option<ThreadedError>>,
    /// Recovery events are rare — a crash, a retry — so one leaf lock
    /// keeps the report a single value that checkpoints copy out and
    /// resume copies back whole.
    recovery: Mutex<RecoveryReport>,
}

impl Faults {
    pub(super) fn new(obs: Arc<Obs>, plan: &FaultPlan) -> Self {
        let crashes = plan.crashes.len();
        Faults {
            obs,
            budget: plan.max_respawns,
            crash_fired: (0..crashes).map(|_| AtomicBool::new(false)).collect(),
            respawns_used: AtomicUsize::new(0),
            first_error: Mutex::new(None),
            recovery: Mutex::new(RecoveryReport::default()),
        }
    }

    /// Adds `n` to one report field and to its metric.
    fn count(&self, field: fn(&mut RecoveryReport) -> &mut usize, metric: &str, n: usize) {
        *field(&mut self.recovery.lock()) += n;
        self.obs.metrics.counter_add(metric, n as f64);
    }

    /// The injected-crash point: panics — at most once per
    /// [`FaultPlan::crashes`] entry, across respawns — once `who` has
    /// finished the entry's batch count.
    pub(super) fn crash_point(&self, crash: Option<(usize, usize)>, done: usize, who: &str) {
        if let Some((ci, after)) = crash {
            if done >= after && !self.crash_fired[ci].swap(true, AcqRel) {
                self.count(|r| &mut r.faults_injected, names::FAULTS_INJECTED, 1);
                panic!("injected fault: {who} after {after} batches");
            }
        }
    }

    /// One transient error, an injected fault, retried in place after
    /// `backoff`.
    pub(super) fn retried(&self, backoff: Duration) {
        self.count(|r| &mut r.faults_injected, names::FAULTS_INJECTED, 1);
        self.count(|r| &mut r.retries, names::RETRY_ATTEMPTS, 1);
        let ns = backoff.as_nanos() as f64;
        self.obs.metrics.counter_add(names::RETRY_BACKOFF_NS, ns);
    }

    /// A dead Sampler's `n` leased ids, back at the front of the id queue,
    /// whose hub is private: the run's metric is counted here.
    pub(super) fn ids_replayed(&self, n: usize) {
        self.samples_replayed(n);
        if n > 0 {
            let m = &self.obs.metrics;
            m.counter_add(names::RECOVERY_REPLAYED_BATCHES, n as f64);
        }
    }

    /// A dead consumer's `n` leased samples, back at the front of the
    /// sample queue, which counts the run's metric itself.
    pub(super) fn samples_replayed(&self, n: usize) {
        self.recovery.lock().replayed_batches += n;
    }

    /// Spends one unit of the respawn budget on an absorbed crash and
    /// counts it as a respawn or a reassignment. `false` — nothing
    /// counted — once the budget is spent.
    pub(super) fn absorb(&self, respawn: bool) -> bool {
        let (used, take) = (&self.respawns_used, |n| (n < self.budget).then_some(n + 1));
        let spent = used.fetch_update(AcqRel, Acquire, take).is_ok();
        if spent && respawn {
            self.count(|r| &mut r.respawns, names::RECOVERY_RESPAWNS, 1);
        } else if spent {
            self.count(|r| &mut r.reassignments, names::RECOVERY_REASSIGNMENTS, 1);
        }
        spent
    }

    /// Books `elapsed` as supervisor downtime for one absorbed crash.
    pub(super) fn downtime(&self, elapsed: Duration) {
        // Recovery is fast enough that a coarse clock can read 0; floor at
        // 1ns so "downtime was accounted" stays observable.
        let ns = (elapsed.as_nanos() as u64).max(1);
        self.recovery.lock().downtime_ns += ns;
        let m = &self.obs.metrics;
        m.counter_add(names::RECOVERY_DOWNTIME_NS, ns as f64);
    }

    /// The error a caught panic fails the run with, the payload rendered as
    /// text: the run had no respawn budget at all, or the budget ran out —
    /// the kinds (and exit codes) differ.
    pub(super) fn panic_error(&self, who: String, payload: Box<dyn Any + Send>) -> ThreadedError {
        let kind = match self.budget {
            0 => ThreadedErrorKind::ExecutorPanic,
            _ => ThreadedErrorKind::RespawnBudgetExhausted,
        };
        let text = payload.downcast_ref::<&str>().copied();
        let text = text.or(payload.downcast_ref::<String>().map(String::as_str));
        ThreadedError::new(kind, who, text.unwrap_or("non-string panic payload"))
    }

    /// Records `err` unless an earlier error is recorded: the first wins.
    pub(super) fn record_error(&self, err: &ThreadedError) {
        self.first_error.lock().get_or_insert_with(|| err.clone());
    }

    /// The run's first fatal error, if any.
    pub(super) fn take_error(&self) -> Option<ThreadedError> {
        self.first_error.lock().take()
    }

    /// The cumulative report (a checkpoint's copy, and the run's).
    pub(super) fn report(&self) -> RecoveryReport {
        *self.recovery.lock()
    }

    /// Puts a checkpoint's report back.
    pub(super) fn restore(&self, report: RecoveryReport) {
        *self.recovery.lock() = report;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ExecutorRole;

    fn faults(plan: &FaultPlan) -> (Arc<Obs>, Faults) {
        let obs = Arc::new(Obs::wall());
        (Arc::clone(&obs), Faults::new(Arc::clone(&obs), plan))
    }

    #[test]
    fn the_budget_grants_exactly_max_respawns_then_refuses() {
        for budget in [0, 1, 3] {
            let (obs, f) = faults(&FaultPlan::none().with_max_respawns(budget));
            for i in 0..budget {
                assert!(f.absorb(i % 2 == 0), "unit {i} of {budget}");
            }
            assert!(!f.absorb(true) && !f.absorb(false), "budget {budget}");
            let r = f.report();
            assert_eq!(
                (r.respawns, r.reassignments),
                (budget.div_ceil(2), budget / 2)
            );
            let m = &obs.metrics;
            assert_eq!(m.counter(names::RECOVERY_RESPAWNS), r.respawns as f64);
            assert_eq!(
                m.counter(names::RECOVERY_REASSIGNMENTS),
                r.reassignments as f64
            );
            let kind = f.panic_error("Trainer 0".into(), Box::new("boom")).kind;
            let want = if budget > 0 {
                ThreadedErrorKind::RespawnBudgetExhausted
            } else {
                ThreadedErrorKind::ExecutorPanic
            };
            assert_eq!(kind, want);
        }
    }

    #[test]
    fn each_recovery_event_moves_its_field_and_its_metric_by_one() {
        let plan = FaultPlan::none()
            .with_max_respawns(2)
            .with_crash(ExecutorRole::Trainer, 0, 1);
        let (obs, f) = faults(&plan);
        let snapshot = || {
            let r = f.report();
            let m = |name| obs.metrics.counter(name);
            (
                [
                    r.faults_injected,
                    r.retries,
                    r.replayed_batches,
                    r.respawns,
                    r.reassignments,
                ],
                [
                    m(names::FAULTS_INJECTED),
                    m(names::RETRY_ATTEMPTS),
                    m(names::RECOVERY_REPLAYED_BATCHES),
                    m(names::RECOVERY_RESPAWNS),
                    m(names::RECOVERY_REASSIGNMENTS),
                ],
            )
        };
        // (event, the one report field and metric it moves)
        let events: [(&dyn Fn(), usize); 5] = [
            (&|| f.retried(Duration::from_nanos(5)), 1),
            (&|| f.ids_replayed(1), 2),
            (&|| assert!(f.absorb(true)), 3),
            (&|| assert!(f.absorb(false)), 4),
            (
                &|| {
                    let crash = plan.crash_for(ExecutorRole::Trainer, 0);
                    f.crash_point(crash, 0, "Trainer 0");
                    let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f.crash_point(crash, 1, "Trainer 0")
                    }));
                    assert!(fired.is_err());
                    f.crash_point(crash, 2, "Trainer 0");
                },
                0,
            ),
        ];
        for (event, moved) in events {
            let (report, metrics) = snapshot();
            event();
            let (report_after, metrics_after) = snapshot();
            for i in 0..5 {
                // A retry is an injected fault too.
                let by = usize::from(i == moved || (moved == 1 && i == 0));
                assert_eq!(report_after[i], report[i] + by, "event {moved}, field {i}");
                assert_eq!(
                    metrics_after[i],
                    metrics[i] + by as f64,
                    "event {moved}, metric {i}"
                );
            }
        }
        // A reclaimed sample's metric is the sample queue's own.
        f.samples_replayed(3);
        assert_eq!(f.report().replayed_batches, 4);
        assert_eq!(obs.metrics.counter(names::RECOVERY_REPLAYED_BATCHES), 1.0);
        assert_eq!(obs.metrics.counter(names::RETRY_BACKOFF_NS), 5.0);
        f.downtime(Duration::ZERO);
        assert_eq!(f.report().downtime_ns, 1, "downtime is floored at 1 ns");
        assert_eq!(obs.metrics.counter(names::RECOVERY_DOWNTIME_NS), 1.0);
        let restored = faults(&plan).1;
        restored.restore(f.report());
        assert_eq!(restored.report(), f.report());
    }

    #[test]
    fn the_first_error_wins() {
        let (_, f) = faults(&FaultPlan::none());
        assert!(f.take_error().is_none());
        let err = |who: &str| ThreadedError::new(ThreadedErrorKind::Checkpoint, who, "x");
        f.record_error(&err("first"));
        f.record_error(&err("second"));
        assert_eq!(f.take_error(), Some(err("first")));
    }
}
