//! The scheduler part: the live `T_s`/`T_t`/`T_t'` estimates every
//! executor feeds, the set of executors consuming right now (`N_t`), and
//! the two rules that read them — §5.2's allocation rule and §5.3's
//! switching decision `P = M_r·T_t/N_t − T_t'`.

use crate::checkpoint::SchedSnapshot;
use crate::schedule::{num_samplers, seed_standby_estimate, switch_profit};
use crate::sync::Ordering::Relaxed;
use crate::sync::{AtomicU64, AtomicUsize, Mutex};
use gnnlab_obs::{names, Executor, MetricsRegistry, Obs};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// EWMA smoothing factor for the live stage-time estimates.
const EWMA_ALPHA: f64 = 0.2;

/// One EWMA step: the first observation is the estimate.
fn ewma(prev: Option<f64>, x: f64) -> f64 {
    prev.map_or(x, |prev| prev + EWMA_ALPHA * (x - prev))
}

/// A lock-free EWMA cell (f64 bits in an atomic; NaN = no samples yet).
struct AtomicEwma(AtomicU64);

impl AtomicEwma {
    fn bits(value: Option<f64>) -> u64 {
        value.unwrap_or(f64::NAN).to_bits()
    }

    fn value(bits: u64) -> Option<f64> {
        let v = f64::from_bits(bits);
        (!v.is_nan()).then_some(v)
    }

    /// A cell holding `value` (`None` = never updated).
    fn new(value: Option<f64>) -> Self {
        AtomicEwma(AtomicU64::new(Self::bits(value)))
    }

    /// Overwrites the cell with a checkpointed estimate.
    fn set(&self, value: Option<f64>) {
        self.0.store(Self::bits(value), Relaxed);
    }

    /// Folds one observation in and returns the new estimate.
    fn update(&self, x: f64) -> f64 {
        let step = |bits| Some(ewma(Self::value(bits), x).to_bits());
        let (Ok(old) | Err(old)) = self.0.fetch_update(Relaxed, Relaxed, step);
        ewma(Self::value(old), x)
    }

    fn get(&self) -> Option<f64> {
        Self::value(self.0.load(Relaxed))
    }
}

/// One executor's feed into the live estimates: where its per-batch work
/// times go.
pub(super) struct BatchClock<'a> {
    metrics: &'a MetricsRegistry,
    /// The scheduler EWMA this executor's role feeds, and its gauge.
    cell: &'a AtomicEwma,
    cell_gauge: &'static str,
    /// The slot's straggler factor (1.0 = healthy).
    slowdown: f64,
    /// This executor's own batch-time EWMA, published as a gauge so the
    /// straggler alert can compare it against its fleet's median.
    own: Option<f64>,
    gauge: String,
}

impl BatchClock<'_> {
    /// Records one batch that took `secs` of work. A straggling device
    /// first stretches the batch to `slowdown` times its natural duration
    /// (a real sleep); the stretched time is what both EWMAs observe, so
    /// the allocation rule and the switching metric see the straggler.
    pub(super) fn record(&mut self, mut secs: f64) {
        if self.slowdown > 1.0 {
            std::thread::sleep(Duration::from_secs_f64(secs * (self.slowdown - 1.0)));
            secs *= self.slowdown;
        }
        let m = self.metrics;
        m.gauge_set(self.cell_gauge, self.cell.update(secs));
        let own = *self.own.insert(ewma(self.own, secs));
        m.gauge_set(&self.gauge, own);
    }
}

/// The scheduler's live state, shared by every executor of the run.
pub(super) struct Scheduler {
    obs: Arc<Obs>,
    t_sample: AtomicEwma,
    t_train: AtomicEwma,
    t_standby: AtomicEwma,
    /// EWMA of measured cache-refresh seconds, amortized into the `T_t'`
    /// seed.
    refresh_secs: AtomicEwma,
    /// Planned standby/trainer extraction-traffic ratio (≥ 1), the `T_t'`
    /// seed before any standby has run.
    standby_miss_ratio: f64,
    switches: AtomicUsize,
    /// Executor ids currently consuming (Trainers + switched standbys):
    /// the `N_t` every switch decision divides the backlog by. A consumer
    /// leaves it on exit and on a crash, so it never counts a dead one;
    /// the supervisor respawns a Trainer when a crash empties it with work
    /// still queued.
    consuming: Mutex<HashSet<usize>>,
}

impl Scheduler {
    /// No estimate yet but `T_s`, which pre-sampling may have measured.
    pub(super) fn new(obs: Arc<Obs>, standby_miss_ratio: f64, t_sample: Option<f64>) -> Self {
        Scheduler {
            obs,
            t_sample: AtomicEwma::new(t_sample),
            t_train: AtomicEwma::new(None),
            t_standby: AtomicEwma::new(None),
            refresh_secs: AtomicEwma::new(None),
            standby_miss_ratio,
            switches: AtomicUsize::new(0),
            consuming: Mutex::new(HashSet::new()),
        }
    }

    /// The clock an executor of `role` on `slot` feeds its role's estimate
    /// through. Its own estimate starts at the role's and is published as
    /// the slot's gauge and the role's, so the slot shows
    /// up before it records a batch — which a Sampler whose claims all come
    /// pre-sampled, or a Trainer on a run with fewer batches than
    /// consumers, never does. Before any `T_t` exists a Trainer starts at
    /// the `T_t ≈ T_s` the scheduler reads in its place, and the first
    /// recorded batch replaces it. Without either there is nothing to
    /// publish yet.
    pub(super) fn clock(&self, role: Executor, slot: usize, slowdown: f64) -> BatchClock<'_> {
        let t_s = self.t_sample.get();
        let (cell, cell_gauge, fallback) = match role {
            Executor::Sampler => (&self.t_sample, names::SCHEDULER_EWMA_T_SAMPLE, None),
            Executor::Standby => (&self.t_standby, names::SCHEDULER_EWMA_T_STANDBY, None),
            _ => (&self.t_train, names::SCHEDULER_EWMA_T_TRAIN, t_s),
        };
        let (own, m) = (cell.get(), &self.obs.metrics);
        let gauge = names::executor_ewma(role.metric_role(), slot);
        if let Some(start) = own.or(fallback) {
            m.gauge_set(&gauge, start);
            m.gauge_set(cell_gauge, start);
        }
        BatchClock {
            metrics: m,
            cell,
            cell_gauge,
            slowdown,
            own,
            gauge,
        }
    }

    /// Folds one measured cache fill into the refresh estimate.
    pub(super) fn record_refresh(&self, ns: u64) {
        self.refresh_secs.update(ns as f64 / 1e9);
    }

    /// Counts `exec` in `N_t`.
    pub(super) fn enlist(&self, exec: usize) {
        self.consuming.lock().insert(exec);
    }

    /// Stops counting `exec` in `N_t`.
    pub(super) fn retire(&self, exec: usize) {
        self.consuming.lock().remove(&exec);
    }

    /// `N_t`: the executors consuming right now.
    pub(super) fn consumers(&self) -> usize {
        self.consuming.lock().len()
    }

    /// The §5.2 allocation rule on live estimates: with `n_g` devices,
    /// how many should currently train.
    pub(super) fn ideal_trainers(&self, n_g: usize) -> usize {
        let t_s = self.t_sample.get().unwrap_or(1e-3).max(1e-9);
        let t_t = self.t_train.get().unwrap_or(t_s).max(1e-9);
        n_g - num_samplers(n_g, t_s, t_t)
    }

    /// §5.3's first read, when Sampler `exec` has no sampling work left and
    /// `remaining` batches wait: the profit of switching it to a standby.
    /// Not positive, the switch is denied (`None`). Otherwise `exec` counts
    /// in `N_t` from here on, and the `T_t` and `T_t'` this read used come
    /// back for [`Scheduler::confirm_switch`].
    pub(super) fn offer_switch(&self, exec: usize, remaining: usize) -> Option<(f64, f64)> {
        let m = &self.obs.metrics;
        // Until estimates exist, fall back T_t ≈ T_s (same order of work per
        // batch here).
        let t_train = self.t_train.get().or(self.t_sample.get()).unwrap_or(0.0);
        // T_t' is the measured standby EWMA once one exists; before that it
        // is *seeded* from the standby's planned cache shape and the measured
        // refresh cost (§5.3: the standby keeps topology, so its cache is
        // smaller and T_t' > T_t) — no hard-coded prior.
        let refresh = self.refresh_secs.get().unwrap_or(0.0);
        let seed = || seed_standby_estimate(t_train, self.standby_miss_ratio, refresh, remaining);
        let t_standby = self.t_standby.get().unwrap_or_else(seed);
        let n_t = self.consumers();
        m.gauge_set(names::SCHEDULER_SWITCH_TRAINERS, n_t as f64);
        let profit = switch_profit(remaining, t_train, n_t, t_standby);
        m.sample(names::SCHEDULER_SWITCH_PROFIT, self.obs.now_ns(), profit);
        m.observe(names::SCHEDULER_SWITCH_PROFIT, profit);
        if profit <= 0.0 {
            m.counter_inc(names::SCHEDULER_SWITCH_DENIED);
            return None;
        }
        self.enlist(exec);
        Some((t_train, t_standby))
    }

    /// The re-check after the standby paid its replica init and cache
    /// refresh, on a fresh read of `remaining`: committing on the stale
    /// first read both wasted the init cost on a drained queue and
    /// overcounted `scheduler.switches`. Not positive — the queue drained
    /// or peers multiplied meanwhile — it is a futile wake, not a switch.
    pub(super) fn confirm_switch(&self, first: (f64, f64), remaining: usize) -> bool {
        let (t_train, t_standby) = first;
        let peers = self.consumers().saturating_sub(1);
        let profit = switch_profit(
            remaining,
            self.t_train.get().unwrap_or(t_train),
            peers,
            self.t_standby.get().unwrap_or(t_standby),
        );
        let m = &self.obs.metrics;
        if profit <= 0.0 {
            m.counter_inc(names::SCHEDULER_SWITCH_FUTILE);
            return false;
        }
        m.counter_inc(names::SCHEDULER_SWITCHES);
        self.switches.fetch_add(1, Relaxed);
        true
    }

    /// Sampler→standby switches granted so far.
    pub(super) fn switches(&self) -> usize {
        self.switches.load(Relaxed)
    }

    /// The estimates and the switch count, as a checkpoint persists them.
    pub(super) fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            t_sample: self.t_sample.get(),
            t_train: self.t_train.get(),
            t_standby: self.t_standby.get(),
            refresh_secs: self.refresh_secs.get(),
            switches: self.switches() as u64,
        }
    }

    /// Puts a checkpoint's estimates and switch count back.
    pub(super) fn restore(&self, s: &SchedSnapshot) {
        self.t_sample.set(s.t_sample);
        self.t_train.set(s.t_train);
        self.t_standby.set(s.t_standby);
        self.refresh_secs.set(s.refresh_secs);
        self.switches.store(s.switches as usize, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scheduler {
        /// The planned standby/trainer miss ratio, for the runtime tests.
        pub(in crate::threaded) fn standby_miss_ratio(&self) -> f64 {
            self.standby_miss_ratio
        }
    }

    fn scheduler(miss_ratio: f64, t_sample: Option<f64>) -> (Arc<Obs>, Scheduler) {
        let obs = Arc::new(Obs::wall());
        (Arc::clone(&obs), Scheduler::new(obs, miss_ratio, t_sample))
    }

    /// The three switch counters, in the order denied, futile, granted.
    fn counters(obs: &Obs) -> [f64; 3] {
        [
            names::SCHEDULER_SWITCH_DENIED,
            names::SCHEDULER_SWITCH_FUTILE,
            names::SCHEDULER_SWITCHES,
        ]
        .map(|name| obs.metrics.counter(name))
    }

    #[test]
    fn ideal_trainers_is_the_allocation_rule_on_the_live_estimates() {
        for (t_s, t_t) in [(1e-3, 1e-3), (1e-3, 5e-3), (4e-3, 1e-3), (2e-3, 7e-3)] {
            let (_, sched) = scheduler(1.0, Some(t_s));
            sched.clock(Executor::Trainer, 0, 1.0).record(t_t);
            for n_g in 1..=8 {
                let want = n_g - num_samplers(n_g, t_s, t_t);
                assert_eq!(sched.ideal_trainers(n_g), want, "{t_s} {t_t} {n_g}");
            }
        }
        // No estimate at all: 1 ms for `T_s`, and `T_t ≈ T_s`.
        let (_, sched) = scheduler(1.0, None);
        assert_eq!(sched.ideal_trainers(6), 6 - num_samplers(6, 1e-3, 1e-3));
    }

    #[test]
    fn each_switch_outcome_moves_its_own_counter() {
        // `T_t` = 1 ms, `T_t'` = 1.5 ms: with one consumer, 10 waiting
        // batches are worth a switch and 1 is not.
        let (obs, sched) = scheduler(1.5, Some(1e-3));
        sched.enlist(7);
        assert_eq!(sched.offer_switch(3, 1), None);
        assert_eq!(counters(&obs), [1.0, 0.0, 0.0]);
        assert_eq!(sched.consumers(), 1, "a denied Sampler is not counted");

        let first = sched.offer_switch(3, 10).expect("10 batches are worth it");
        assert_eq!(first, (1e-3, 1e-3 * 1.5));
        assert_eq!(sched.consumers(), 2, "an offered standby counts in N_t");
        assert!(
            !sched.confirm_switch(first, 1),
            "the queue drained meanwhile"
        );
        assert_eq!(counters(&obs), [1.0, 1.0, 0.0]);
        assert_eq!(sched.switches(), 0);

        let first = sched.offer_switch(4, 10).unwrap();
        assert!(sched.confirm_switch(first, 10));
        assert_eq!(counters(&obs), [1.0, 1.0, 1.0]);
        assert_eq!(sched.switches(), 1);
        sched.retire(3);
        sched.retire(4);
        assert_eq!(sched.consumers(), 1);
    }

    #[test]
    fn restore_of_a_snapshot_keeps_every_bit_and_an_empty_cell() {
        let (_, sched) = scheduler(1.0, Some(0.1 + 0.2));
        sched.clock(Executor::Standby, 0, 1.0).record(1.0 / 3.0);
        sched.record_refresh(7);
        let first = sched.offer_switch(0, 100).unwrap();
        assert!(sched.confirm_switch(first, 100));
        let snap = sched.snapshot();
        assert_eq!(snap.t_train, None);
        let (_, restored) = scheduler(2.0, None);
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        let bits = |s: &SchedSnapshot| {
            [s.t_sample, s.t_train, s.t_standby, s.refresh_secs].map(|t| t.map(f64::to_bits))
        };
        assert_eq!(bits(&restored.snapshot()), bits(&snap));
        assert_eq!(restored.switches(), 1);
    }
}
