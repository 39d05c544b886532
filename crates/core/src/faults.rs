//! Deterministic, seeded fault plans for the factored runtime.
//!
//! GNNLab's factored design decouples Samplers and Trainers through the
//! host-memory global queue, which means losing one executor does not have
//! to abort the epoch: its in-flight batches can be replayed and its role
//! re-planned on the surviving devices (the §5.2 allocation rule and the
//! §5.3 switching machinery already know how to re-balance). This module
//! is the *description* half of that story: a [`FaultPlan`] says, ahead of
//! time and reproducibly, which executors crash after how many batches,
//! which devices run slow (stragglers), how often transient Extract/Train
//! errors strike, and when whole simulated devices fail. The threaded
//! runtime ([`crate::threaded`]) and the factored co-simulation
//! ([`crate::runtime::run_factored_epoch_opts`]) both consume the same
//! plan, so a failure scenario reproduced in the simulator can be replayed
//! against real threads and vice versa.
//!
//! Everything is a pure function of the plan: transient-error counts and
//! retry jitter derive from `(seed, batch, attempt)` via SplitMix64, so
//! two runs with the same plan inject byte-identical fault sequences.

use gnnlab_par::splitmix64;
use std::time::Duration;

/// Which kind of executor a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorRole {
    /// A Sampler executor (produces mini-batch samples).
    Sampler,
    /// A Trainer executor (consumes samples; includes respawned Trainers).
    Trainer,
}

/// An executor crash: the targeted executor panics once it has processed
/// `after_batches` batches. Fires at most once per plan (a respawned
/// replacement on the same slot does not re-crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Role of the executor to crash.
    pub role: ExecutorRole,
    /// Slot index of the executor (0-based within its role).
    pub index: usize,
    /// Batches it processes successfully before crashing.
    pub after_batches: usize,
}

/// A persistent per-device slowdown (multi-tenant contention, a dying fan,
/// thermal throttling): every batch on this executor takes `slowdown`
/// times as long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerFault {
    /// Role of the slowed executor.
    pub role: ExecutorRole,
    /// Slot index of the executor.
    pub index: usize,
    /// Multiplicative slowdown (≥ 1.0; 1.0 = no effect).
    pub slowdown: f64,
}

/// Seeded transient Extract/Train errors: each batch independently suffers
/// a deterministic number of consecutive failures before succeeding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientFaults {
    /// Per-attempt failure probability in `[0, 1)`.
    pub probability: f64,
    /// Upper bound on consecutive failures of one batch, so a plan can
    /// guarantee recoverability (keep it ≤ the retry budget) or force the
    /// unrecoverable path (set it above the budget).
    pub max_consecutive: usize,
}

/// Capped exponential backoff for transient-error retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per batch before the fault counts as unrecoverable.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff (before jitter).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

/// A whole simulated device failing at an absolute virtual time — the
/// co-simulation's analogue of a GPU falling off the bus. Devices index
/// the factored runtime's global device space: `0..ns` are Samplers,
/// `ns..ns+nt` are Trainers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFail {
    /// Virtual time (nanoseconds) at which the device dies.
    pub at_ns: u64,
    /// Global device index (Samplers first, then Trainers).
    pub device: usize,
}

/// A deterministic, seeded fault plan consumed by both the threaded
/// runtime and the factored co-simulation. The default plan is empty: no
/// crashes, no stragglers, no transients, no device failures, and a
/// zero respawn budget (any executor panic fails fast, exactly the
/// pre-recovery behavior).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every derived randomness (transient draws, jitter).
    pub seed: u64,
    /// Executor crashes at batch N.
    pub crashes: Vec<CrashFault>,
    /// Per-device slowdown factors.
    pub stragglers: Vec<StragglerFault>,
    /// Transient Extract/Train error process, if any.
    pub transients: Option<TransientFaults>,
    /// Simulated whole-device failures (co-simulation only).
    pub device_failures: Vec<DeviceFail>,
    /// Executor crashes the supervisor may absorb (respawn or reassign)
    /// before falling back to the poison/fail-fast path.
    pub max_respawns: usize,
    /// Retry policy for transient errors.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: nothing injected, zero respawn budget.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            transients: None,
            device_failures: Vec::new(),
            max_respawns: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// A plan that crashes Trainer `index` after `after_batches` batches,
    /// with a respawn budget of 1 (recoverable by default).
    pub fn crash_trainer(index: usize, after_batches: usize) -> Self {
        FaultPlan {
            crashes: vec![CrashFault {
                role: ExecutorRole::Trainer,
                index,
                after_batches,
            }],
            max_respawns: 1,
            ..Self::none()
        }
    }

    /// A plan that crashes Sampler `index` after `after_batches` batches,
    /// with a respawn budget of 1.
    pub fn crash_sampler(index: usize, after_batches: usize) -> Self {
        FaultPlan {
            crashes: vec![CrashFault {
                role: ExecutorRole::Sampler,
                index,
                after_batches,
            }],
            max_respawns: 1,
            ..Self::none()
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the supervisor's respawn/reassignment budget (builder style).
    pub fn with_max_respawns(mut self, n: usize) -> Self {
        self.max_respawns = n;
        self
    }

    /// Adds a crash fault (builder style).
    pub fn with_crash(mut self, role: ExecutorRole, index: usize, after_batches: usize) -> Self {
        self.crashes.push(CrashFault {
            role,
            index,
            after_batches,
        });
        self
    }

    /// Adds a straggler (builder style).
    pub fn with_straggler(mut self, role: ExecutorRole, index: usize, slowdown: f64) -> Self {
        self.stragglers.push(StragglerFault {
            role,
            index,
            slowdown,
        });
        self
    }

    /// Enables seeded transient Extract/Train errors (builder style).
    pub fn with_transients(mut self, probability: f64, max_consecutive: usize) -> Self {
        self.transients = Some(TransientFaults {
            probability,
            max_consecutive,
        });
        self
    }

    /// Adds a simulated device failure (builder style).
    pub fn with_device_failure(mut self, at_ns: u64, device: usize) -> Self {
        self.device_failures.push(DeviceFail { at_ns, device });
        self
    }

    /// The crash scheduled for `(role, index)`, as `(crash slot in
    /// [`FaultPlan::crashes`], after_batches)`. The crash slot lets the
    /// runtime arm each crash exactly once across respawns.
    pub fn crash_for(&self, role: ExecutorRole, index: usize) -> Option<(usize, usize)> {
        self.crashes
            .iter()
            .position(|c| c.role == role && c.index == index)
            .map(|i| (i, self.crashes[i].after_batches))
    }

    /// The slowdown factor for `(role, index)`; 1.0 when not a straggler.
    pub fn slowdown(&self, role: ExecutorRole, index: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.role == role && s.index == index)
            .map_or(1.0, |s| s.slowdown.max(1.0))
    }

    /// How many consecutive transient failures batch `batch` suffers
    /// before succeeding — a pure function of `(seed, batch)`, so retries
    /// converge deterministically.
    pub fn transient_failures(&self, batch: u64) -> usize {
        let Some(t) = self.transients else { return 0 };
        if t.probability <= 0.0 || t.max_consecutive == 0 {
            return 0;
        }
        let mut z = splitmix64(splitmix64(self.seed ^ 0xFA17_F1A6) ^ batch);
        let mut failures = 0;
        while failures < t.max_consecutive {
            z = splitmix64(z);
            // Map the top 53 bits to [0, 1).
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            if u < t.probability.min(1.0) {
                failures += 1;
            } else {
                break;
            }
        }
        failures
    }

    /// The backoff before retry number `attempt` (0-based) of `batch`:
    /// capped exponential plus deterministic jitter in `[0, base)`.
    pub fn backoff(&self, attempt: usize, batch: u64) -> Duration {
        let base = self.retry.base_backoff.max(Duration::from_nanos(1));
        let exp = base.saturating_mul(1u32 << attempt.min(20) as u32);
        let capped = exp.min(self.retry.max_backoff.max(base));
        let jitter_ns =
            splitmix64(splitmix64(self.seed ^ 0x00BA_C0FF).wrapping_add(batch) ^ attempt as u64)
                % (base.as_nanos() as u64).max(1);
        capped + Duration::from_nanos(jitter_ns)
    }

    /// Virtual fail time of global device `device`, if the plan kills it.
    pub fn device_fail_ns(&self, device: usize) -> Option<u64> {
        self.device_failures
            .iter()
            .filter(|f| f.device == device)
            .map(|f| f.at_ns)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert_eq!(p.max_respawns, 0);
        assert_eq!(p.crash_for(ExecutorRole::Trainer, 0), None);
        assert_eq!(p.slowdown(ExecutorRole::Sampler, 3), 1.0);
        assert_eq!(p.transient_failures(17), 0);
        assert_eq!(p.device_fail_ns(2), None);
    }

    #[test]
    fn crash_lookup_finds_the_right_slot() {
        let p = FaultPlan::none()
            .with_crash(ExecutorRole::Trainer, 1, 5)
            .with_crash(ExecutorRole::Sampler, 0, 2)
            .with_max_respawns(2);
        assert_eq!(p.crash_for(ExecutorRole::Trainer, 1), Some((0, 5)));
        assert_eq!(p.crash_for(ExecutorRole::Sampler, 0), Some((1, 2)));
        assert_eq!(p.crash_for(ExecutorRole::Trainer, 0), None);
    }

    #[test]
    fn stragglers_clamp_to_at_least_one() {
        let p = FaultPlan::none().with_straggler(ExecutorRole::Trainer, 2, 0.5);
        assert_eq!(p.slowdown(ExecutorRole::Trainer, 2), 1.0);
        let p = FaultPlan::none().with_straggler(ExecutorRole::Trainer, 2, 3.0);
        assert_eq!(p.slowdown(ExecutorRole::Trainer, 2), 3.0);
    }

    #[test]
    fn transient_failures_are_deterministic_and_bounded() {
        let p = FaultPlan::none().with_transients(0.5, 3).with_seed(9);
        let q = FaultPlan::none().with_transients(0.5, 3).with_seed(9);
        let mut any_failure = false;
        for b in 0..200u64 {
            let f = p.transient_failures(b);
            assert_eq!(f, q.transient_failures(b), "batch {b} not deterministic");
            assert!(f <= 3);
            any_failure |= f > 0;
        }
        assert!(any_failure, "p=0.5 over 200 batches must fail sometimes");
        // A different seed gives a different fault sequence.
        let r = FaultPlan::none().with_transients(0.5, 3).with_seed(10);
        let same = (0..200u64).all(|b| p.transient_failures(b) == r.transient_failures(b));
        assert!(!same, "seeds 9 and 10 produced identical sequences");
    }

    #[test]
    fn zero_probability_never_fails() {
        let p = FaultPlan::none().with_transients(0.0, 5);
        assert!((0..100u64).all(|b| p.transient_failures(b) == 0));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = FaultPlan {
            retry: RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            },
            ..FaultPlan::none()
        };
        let b0 = p.backoff(0, 7);
        let b2 = p.backoff(2, 7);
        let b9 = p.backoff(9, 7);
        // Exponential below the cap (jitter < base keeps ordering).
        assert!(b0 < b2, "{b0:?} vs {b2:?}");
        // Capped: max_backoff + jitter < max + base.
        assert!(b9 <= Duration::from_millis(5), "{b9:?}");
        // Deterministic.
        assert_eq!(p.backoff(2, 7), b2);
    }

    #[test]
    fn device_fail_takes_the_earliest() {
        let p = FaultPlan::none()
            .with_device_failure(500, 3)
            .with_device_failure(200, 3)
            .with_device_failure(100, 1);
        assert_eq!(p.device_fail_ns(3), Some(200));
        assert_eq!(p.device_fail_ns(1), Some(100));
        assert_eq!(p.device_fail_ns(0), None);
    }

    #[test]
    fn convenience_constructors_grant_budget() {
        let p = FaultPlan::crash_trainer(0, 3);
        assert_eq!(p.max_respawns, 1);
        assert_eq!(p.crash_for(ExecutorRole::Trainer, 0), Some((0, 3)));
        let p = FaultPlan::crash_sampler(1, 2);
        assert_eq!(p.crash_for(ExecutorRole::Sampler, 1), Some((0, 2)));
    }
}
