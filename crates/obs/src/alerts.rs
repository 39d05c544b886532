//! The alert engine: rule evaluation over live metrics.
//!
//! Four rules watch the signals the GNNLab runtimes already publish:
//!
//! * **straggler** — a per-executor batch-time EWMA
//!   (`executor.ewma.<role>.<slot>` gauges) exceeds
//!   [`AlertRules::straggler_ratio`] × the fleet median for its role.
//!   This is the live version of the paper's observation that one slow
//!   GPU stalls the whole factored pipeline.
//! * **queue_saturation** — the rate at which executors accumulate
//!   `queue.blocked_ns` exceeds
//!   [`AlertRules::saturation_blocked_rate`] blocked-seconds per
//!   wall-second: producers or consumers are pinned on the bounded
//!   queue instead of working.
//! * **cache_collapse** — an executor cache's hit rate
//!   (`cache.<role>.<slot>.hits / .lookups`, one subject per
//!   executor-owned store; aggregate `cache.hits / cache.lookups` when no
//!   per-executor family exists) falls below
//!   [`AlertRules::cache_collapse_hit_rate`] once enough lookups have
//!   happened to be meaningful.
//! * **respawn_burn** — recovery actions (respawns + reassignments)
//!   consume at least [`AlertRules::respawn_burn_fraction`] of the
//!   fault supervisor's respawn budget (`faults.respawn_budget` gauge):
//!   the run is about to stop tolerating crashes.
//! * **checkpoint_stall** — the most recent durable checkpoint write
//!   (`ckpt.last_write_ns` gauge) took longer than
//!   [`AlertRules::ckpt_stall_secs`]: the checkpoint disk is slow or
//!   failing, and the consumer that writes is not training meanwhile.
//!
//! Alerts are edge-triggered: a rule fires once per subject when its
//! condition becomes true and re-arms when the condition clears, so a
//! persistent straggler yields one event, not one per evaluation tick.
//! Events land in the registry via [`MetricsRegistry::raise`], which
//! also bumps the `alerts.<rule>` counter.
//!
//! [`MetricsRegistry::raise`]: crate::MetricsRegistry::raise

use crate::names;
use crate::Obs;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// A structured alert event, exported in the metrics JSON.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct AlertEvent {
    /// Rule that fired (`straggler`, `queue_saturation`, …).
    pub rule: String,
    /// What the rule fired on (`trainer.0`, `queue`, `cache`, …).
    pub subject: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// When it fired (nanoseconds on the owning clock).
    pub t_ns: u64,
}

/// Thresholds for the alert rules. The defaults are deliberately loose:
/// they flag the pathologies the fault-injection harness creates
/// (20× stragglers, starved queues, zeroed caches) without tripping on
/// the ordinary jitter of a healthy run.
#[derive(Debug, Clone, Copy)]
pub struct AlertRules {
    /// Straggler: per-executor EWMA > ratio × fleet median (per role).
    pub straggler_ratio: f64,
    /// Queue saturation: blocked-seconds accumulated per wall-second.
    pub saturation_blocked_rate: f64,
    /// Cache collapse: hit rate below this, after `cache_min_lookups`.
    pub cache_collapse_hit_rate: f64,
    /// Minimum lookups before the cache rule is meaningful.
    pub cache_min_lookups: f64,
    /// Respawn burn: fraction of the respawn budget consumed.
    pub respawn_burn_fraction: f64,
    /// Checkpoint stall: the latest checkpoint write exceeded this many
    /// wall seconds.
    pub ckpt_stall_secs: f64,
}

impl Default for AlertRules {
    fn default() -> Self {
        AlertRules {
            straggler_ratio: 2.0,
            saturation_blocked_rate: 0.5,
            cache_collapse_hit_rate: 0.1,
            cache_min_lookups: 500.0,
            respawn_burn_fraction: 0.75,
            ckpt_stall_secs: 1.0,
        }
    }
}

/// Evaluates [`AlertRules`] against an [`Obs`] hub; owned by the
/// telemetry thread, which calls [`AlertEngine::evaluate`] once per tick.
#[derive(Debug)]
pub struct AlertEngine {
    rules: AlertRules,
    last_eval: Instant,
    last_blocked_ns: f64,
    /// Rising-edge state: `rule:subject` keys currently firing.
    active: HashSet<String>,
}

impl AlertEngine {
    /// A fresh engine; rate rules measure from this instant.
    pub fn new(rules: AlertRules) -> Self {
        AlertEngine {
            rules,
            last_eval: Instant::now(),
            last_blocked_ns: 0.0,
            active: HashSet::new(),
        }
    }

    /// Runs every rule once against the current metrics, raising
    /// edge-triggered events into `obs.metrics`.
    pub fn evaluate(&mut self, obs: &Obs) {
        let gauges = obs.metrics.gauges_snapshot();
        let t_ns = obs.now_ns();

        self.eval_stragglers(obs, &gauges, t_ns);
        self.eval_saturation(obs, t_ns);
        self.eval_cache(obs, t_ns);
        self.eval_respawn_burn(obs, &gauges, t_ns);
        self.eval_checkpoint_stall(obs, &gauges, t_ns);
    }

    /// Fires `rule` on `subject` on the rising edge of `firing`; clears
    /// the edge state when the condition goes away.
    #[allow(clippy::too_many_arguments)]
    fn edge(
        &mut self,
        obs: &Obs,
        firing: bool,
        rule: &str,
        subject: &str,
        message: String,
        value: f64,
        threshold: f64,
        t_ns: u64,
    ) {
        let key = format!("{rule}:{subject}");
        if firing {
            if self.active.insert(key) {
                obs.metrics.raise(AlertEvent {
                    rule: rule.to_string(),
                    subject: subject.to_string(),
                    message,
                    value,
                    threshold,
                    t_ns,
                });
            }
        } else {
            self.active.remove(&key);
        }
    }

    fn eval_stragglers(&mut self, obs: &Obs, gauges: &BTreeMap<String, crate::Gauge>, t_ns: u64) {
        // Group executor.ewma.<role>.<slot> gauges by role.
        let mut fleets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for (name, g) in gauges {
            if let Some(rest) = name.strip_prefix(names::EXECUTOR_EWMA_PREFIX) {
                if let Some(role) = rest.split('.').next() {
                    fleets
                        .entry(role.to_string())
                        .or_default()
                        .push((rest.to_string(), g.last));
                }
            }
        }
        for (role, fleet) in fleets {
            // A fleet of one has no peers to be slower than.
            if fleet.len() < 2 {
                continue;
            }
            let mut sorted: Vec<f64> = fleet.iter().map(|(_, v)| *v).collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[(sorted.len() - 1) / 2];
            if median <= 0.0 {
                continue;
            }
            let threshold = self.rules.straggler_ratio * median;
            for (subject, ewma) in fleet {
                let firing = ewma > threshold;
                let message = format!(
                    "{subject} batch-time EWMA {:.3}s is {:.1}x the {role} fleet median {:.3}s",
                    ewma,
                    ewma / median,
                    median
                );
                self.edge(
                    obs,
                    firing,
                    names::RULE_STRAGGLER,
                    &subject,
                    message,
                    ewma,
                    threshold,
                    t_ns,
                );
            }
        }
    }

    fn eval_saturation(&mut self, obs: &Obs, t_ns: u64) {
        let blocked_ns = obs.metrics.counter(names::QUEUE_BLOCKED_NS);
        let now = Instant::now();
        let wall_secs = now.duration_since(self.last_eval).as_secs_f64();
        if wall_secs > 0.0 {
            // Blocked-seconds accumulated per wall-second across all
            // executors (can exceed 1.0 with several blocked threads).
            let rate = (blocked_ns - self.last_blocked_ns) / 1e9 / wall_secs;
            let threshold = self.rules.saturation_blocked_rate;
            let message = format!(
                "executors accumulated {rate:.2} blocked-sec per wall-sec on the bounded queue"
            );
            self.edge(
                obs,
                rate > threshold,
                names::RULE_QUEUE_SATURATION,
                "queue",
                message,
                rate,
                threshold,
                t_ns,
            );
        }
        self.last_blocked_ns = blocked_ns;
        self.last_eval = now;
    }

    fn eval_cache(&mut self, obs: &Obs, t_ns: u64) {
        // Per-executor stores first: `cache.<role>.<slot>.lookups`
        // counters, one subject per executor-owned cache. The aggregate
        // `cache.lookups`/`cache.hits` pair is only consulted when no
        // per-executor family exists (runs that publish one shared store).
        let counters = obs.metrics.counters_snapshot();
        let mut stores: Vec<(String, f64, f64)> = Vec::new();
        for (name, &lookups) in &counters {
            let Some(rest) = name.strip_prefix(names::EXECUTOR_CACHE_PREFIX) else {
                continue;
            };
            // Exactly `<role>.<slot>.lookups` — the aggregate
            // `cache.lookups` has no role/slot segments.
            let parts: Vec<&str> = rest.split('.').collect();
            if parts.len() != 3 || parts[2] != "lookups" {
                continue;
            }
            let hits = counters
                .get(&names::executor_cache_field(parts[0], parts[1], "hits"))
                .copied()
                .unwrap_or(0.0);
            stores.push((
                names::executor_cache_family(parts[0], parts[1]),
                lookups,
                hits,
            ));
        }
        if stores.is_empty() {
            let lookups = obs.metrics.counter(names::CACHE_LOOKUPS);
            let hits = obs.metrics.counter(names::CACHE_HITS);
            stores.push(("cache".to_string(), lookups, hits));
        }
        let threshold = self.rules.cache_collapse_hit_rate;
        for (subject, lookups, hits) in stores {
            if lookups < self.rules.cache_min_lookups {
                continue;
            }
            let hit_rate = hits / lookups;
            let message = format!(
                "{subject} hit rate {:.1}% over {} lookups",
                hit_rate * 100.0,
                lookups as u64
            );
            self.edge(
                obs,
                hit_rate < threshold,
                names::RULE_CACHE_COLLAPSE,
                &subject,
                message,
                hit_rate,
                threshold,
                t_ns,
            );
        }
    }

    fn eval_respawn_burn(&mut self, obs: &Obs, gauges: &BTreeMap<String, crate::Gauge>, t_ns: u64) {
        let budget = gauges
            .get(names::FAULTS_RESPAWN_BUDGET)
            .map_or(0.0, |g| g.last);
        if budget < 1.0 {
            return;
        }
        let used = obs.metrics.counter(names::RECOVERY_RESPAWNS)
            + obs.metrics.counter(names::RECOVERY_REASSIGNMENTS);
        let fraction = used / budget;
        let threshold = self.rules.respawn_burn_fraction;
        let message = format!(
            "{} of {} respawn-budget slots consumed by recovery actions",
            used as u64, budget as u64
        );
        self.edge(
            obs,
            fraction >= threshold,
            names::RULE_RESPAWN_BURN,
            "supervisor",
            message,
            fraction,
            threshold,
            t_ns,
        );
    }

    fn eval_checkpoint_stall(
        &mut self,
        obs: &Obs,
        gauges: &BTreeMap<String, crate::Gauge>,
        t_ns: u64,
    ) {
        // The gauge only exists once a checkpoint write has completed;
        // runs without checkpointing never evaluate the rule.
        let Some(last_write_ns) = gauges.get(names::CKPT_LAST_WRITE_NS).map(|g| g.last) else {
            return;
        };
        let secs = last_write_ns / 1e9;
        let threshold = self.rules.ckpt_stall_secs;
        let message =
            format!("latest checkpoint write took {secs:.2}s (threshold {threshold:.2}s)");
        self.edge(
            obs,
            secs > threshold,
            names::RULE_CHECKPOINT_STALL,
            "checkpoint",
            message,
            secs,
            threshold,
            t_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ewma_gauges(obs: &Obs, role: &str, values: &[f64]) {
        for (slot, v) in values.iter().enumerate() {
            obs.metrics.gauge_set(&names::executor_ewma(role, slot), *v);
        }
    }

    #[test]
    fn straggler_fires_on_a_slow_executor_and_only_once() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        ewma_gauges(&obs, "trainer", &[0.010, 0.011, 0.250]);
        engine.evaluate(&obs);
        engine.evaluate(&obs);
        let alerts = obs.metrics.alerts();
        let stragglers: Vec<_> = alerts.iter().filter(|a| a.rule == "straggler").collect();
        assert_eq!(stragglers.len(), 1, "edge-trigger failed: {alerts:?}");
        assert_eq!(stragglers[0].subject, "trainer.2");
        assert_eq!(obs.metrics.counter("alerts.straggler"), 1.0);
    }

    #[test]
    fn straggler_rearms_after_recovery() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        ewma_gauges(&obs, "trainer", &[0.010, 0.011, 0.250]);
        engine.evaluate(&obs);
        // The straggler recovers…
        ewma_gauges(&obs, "trainer", &[0.010, 0.011, 0.012]);
        engine.evaluate(&obs);
        // …then degrades again: a second event fires.
        ewma_gauges(&obs, "trainer", &[0.010, 0.011, 0.300]);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.straggler"), 2.0);
    }

    #[test]
    fn straggler_needs_a_fleet_and_separates_roles() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        // One trainer alone can never be a straggler.
        ewma_gauges(&obs, "trainer", &[9.0]);
        // A slow sampler fleet is judged against samplers, not trainers.
        ewma_gauges(&obs, "sampler", &[0.010, 0.012]);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.straggler"), 0.0);
    }

    #[test]
    fn saturation_fires_on_blocked_ns_rate() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        engine.evaluate(&obs); // baseline tick
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Simulate ≫ threshold: several seconds of blocked time in ~5ms.
        obs.metrics.counter_add(names::QUEUE_BLOCKED_NS, 5e9);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.queue_saturation"), 1.0);
        let alert = &obs.metrics.alerts()[0];
        assert_eq!(alert.subject, "queue");
        assert!(alert.value > alert.threshold);
    }

    #[test]
    fn cache_collapse_waits_for_min_lookups() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        obs.metrics.counter_add(names::CACHE_LOOKUPS, 100.0);
        obs.metrics.counter_add(names::CACHE_HITS, 0.0);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.cache_collapse"), 0.0);
        obs.metrics.counter_add(names::CACHE_LOOKUPS, 900.0);
        obs.metrics.counter_add(names::CACHE_HITS, 10.0);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.cache_collapse"), 1.0);
    }

    #[test]
    fn cache_collapse_keys_on_per_executor_stores() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        // A healthy trainer cache and a collapsed standby cache; the
        // aggregate would look healthy, but the standby must fire.
        obs.metrics
            .counter_add(&names::executor_cache("trainer", 0, "lookups"), 1000.0);
        obs.metrics
            .counter_add(&names::executor_cache("trainer", 0, "hits"), 800.0);
        obs.metrics
            .counter_add(&names::executor_cache("standby", 1, "lookups"), 600.0);
        obs.metrics
            .counter_add(&names::executor_cache("standby", 1, "hits"), 6.0);
        // The aggregate pair exists too and is healthy — it must be
        // ignored once per-executor families are present.
        obs.metrics.counter_add(names::CACHE_LOOKUPS, 1600.0);
        obs.metrics.counter_add(names::CACHE_HITS, 806.0);
        engine.evaluate(&obs);
        let alerts = obs.metrics.alerts();
        let collapsed: Vec<_> = alerts
            .iter()
            .filter(|a| a.rule == names::RULE_CACHE_COLLAPSE)
            .collect();
        assert_eq!(collapsed.len(), 1, "{alerts:?}");
        assert_eq!(collapsed[0].subject, "cache.standby.1");
    }

    #[test]
    fn checkpoint_stall_fires_on_a_slow_write_and_rearms() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        // No checkpoint gauge → rule never evaluates.
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.checkpoint_stall"), 0.0);
        // A healthy fast write stays quiet.
        obs.metrics.gauge_set(names::CKPT_LAST_WRITE_NS, 5e6);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.checkpoint_stall"), 0.0);
        // A slow-disk write crosses the 1s default threshold; the edge
        // trigger fires once even across repeated evaluations.
        obs.metrics.gauge_set(names::CKPT_LAST_WRITE_NS, 2.5e9);
        engine.evaluate(&obs);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.checkpoint_stall"), 1.0);
        let alert = obs
            .metrics
            .alerts()
            .into_iter()
            .find(|a| a.rule == names::RULE_CHECKPOINT_STALL)
            .unwrap();
        assert_eq!(alert.subject, "checkpoint");
        assert!(alert.value > alert.threshold);
        // Recovery re-arms the rule.
        obs.metrics.gauge_set(names::CKPT_LAST_WRITE_NS, 1e6);
        engine.evaluate(&obs);
        obs.metrics.gauge_set(names::CKPT_LAST_WRITE_NS, 3e9);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.checkpoint_stall"), 2.0);
    }

    #[test]
    fn respawn_burn_fires_as_the_budget_depletes() {
        let obs = Obs::wall();
        let mut engine = AlertEngine::new(AlertRules::default());
        obs.metrics.gauge_set(names::FAULTS_RESPAWN_BUDGET, 4.0);
        obs.metrics.counter_add(names::RECOVERY_RESPAWNS, 2.0);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.respawn_burn"), 0.0);
        obs.metrics.counter_add(names::RECOVERY_RESPAWNS, 1.0);
        engine.evaluate(&obs);
        assert_eq!(obs.metrics.counter("alerts.respawn_burn"), 1.0);
        // Healthy runs (budget 0 / no faults) never evaluate the rule.
        let healthy = Obs::wall();
        let mut engine2 = AlertEngine::new(AlertRules::default());
        engine2.evaluate(&healthy);
        assert!(healthy.metrics.alerts().is_empty());
    }
}
