//! The placement table: which devices run which stages of
//! Sample → Extract → Train, what they keep resident, and what sits
//! between them.
//!
//! Every system the paper compares runs the same stages; a [`Placement`]
//! is the data that tells them apart, and [`super::run_epoch`] is the one
//! engine that executes it. Every behavioural difference between the
//! systems is a field here (DESIGN §2, "Co-sim placements").

use crate::faults::FaultPlan;
use crate::memory::Residency;
use crate::report::RunError;
use crate::systems::SystemKind;
use gnnlab_obs::{Executor, Stage};
use gnnlab_sim::{GatherPath, SampleDevice};
use Assign::{FirstDone, FirstFree, RoundRobin};
use Executor::{Sampler, Standby, Trainer};
use Stage::{Extract, LoadCache, LoadTopology, SampleC, SampleG, SampleM, Train};

/// How a phase's scheduler picks the lane for the next mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assign {
    /// Batch `i` runs on lane `i mod lanes` (static shares).
    RoundRobin,
    /// The live lane that frees up first; ties go to the lowest index
    /// (the global scheduler's dynamic Sampler assignment, §5.2).
    FirstFree,
    /// The live lane predicted to *complete* the batch first; ties go to
    /// the lowest index, and standby lanes come after the phase's own.
    /// Extract availability alone would funnel everything to one Trainer
    /// whenever extraction is cheap (high hit rates).
    FirstDone,
}

/// What sits between the producing and the consuming phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The host-memory queue, streaming: consumers run beside the
    /// producers on GPUs of their own (numbered after the producers'),
    /// each sample flows through as it becomes ready and consumers take
    /// them in ready order. The dequeue copy runs ahead of the consumer —
    /// a sample arrives one copy after it became ready, hidden whenever
    /// the lane is still busy.
    Stream,
    /// The queue holds the whole epoch: the same GPUs change role once
    /// the producers have drained, take batches in epoch order, and pay
    /// each dequeue copy on their own lane, ahead of Extract.
    Drain,
    /// No queue: the same GPUs change role once the producers have
    /// drained and take batches in epoch order; nothing is copied.
    Swap,
}

/// A set of identical lanes running one stage list.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The stages each batch runs back to back on its lane, drawn from
    /// the five per-batch ones (G, M, C, Extract, Train); `Train`, if
    /// listed, comes last and keeps its own clock, so a pipelined lane
    /// overlaps it with the next batch's earlier stages. A stage that is
    /// not listed costs nothing and records no span (no `SampleM` without
    /// a cache to mark against, no `SampleC` without a queue).
    pub stages: &'static [Stage],
    /// Number of lanes (GPUs in this role).
    pub lanes: usize,
    /// The executor label spans carry. `Sampler` and `Trainer` lanes take
    /// the fault plan's stragglers; a `Standby` lane counts its batches
    /// as switched.
    pub executor: Executor,
    /// The lane-assignment rule.
    pub assign: Assign,
    /// Whether the next batch's earlier stages may start while this one
    /// trains (§5.2); otherwise the lane is busy until Train completes.
    pub pipelined: bool,
    /// What each lane's GPU keeps resident; the plan must fit, and the
    /// consuming phase's plan yields the reported cache ratio.
    pub resident: Residency,
    /// A per-epoch reload every lane pays before its first batch
    /// (`LoadTopology` or `LoadCache`, PCIe shared by all lanes).
    pub load: Option<Stage>,
}

/// One system design, as data for [`super::run_epoch`].
#[derive(Debug, Clone)]
pub struct Placement {
    /// The system reported, blamed for an OOM, and sized for its sampling
    /// workspace.
    pub system: SystemKind,
    /// Where graph sampling runs.
    pub sample_device: SampleDevice,
    /// Which path gathers missed features.
    pub gather: GatherPath,
    /// One phase (every lane runs the whole pipeline) or a producing and
    /// a consuming phase.
    pub phases: Vec<Phase>,
    /// What connects two phases; unused with one.
    pub link: Link,
    /// If set, each producing lane that survives the epoch's sampling
    /// leaves a standby consumer on its device, resident as given (so
    /// with a smaller cache), eligible for a batch only while the profit
    /// metric `P = M_r·T_t/N_t − T_t'` is positive (§5.3). A plan that
    /// does not fit just means no standby.
    pub standby: Option<Residency>,
    /// Simulated device failures and stragglers.
    pub faults: FaultPlan,
}

/// Knobs of the factored epoch simulation.
#[derive(Debug, Clone)]
pub struct FactoredOptions {
    /// GPUs allocated to Samplers (≥ 1).
    pub num_samplers: usize,
    /// GPUs allocated to Trainers (≥ 1; the single-GPU alternating mode
    /// is [`Placement::single_gpu`]).
    pub num_trainers: usize,
    /// Whether standby Trainers may wake via the profit metric (§5.3).
    pub enable_switching: bool,
    /// Whether Trainers overlap Extract with Train (§5.2 pipelining);
    /// `false` serializes the two stages — the ablation knob.
    pub pipelining: bool,
    /// The fault plan: simulated device failures
    /// ([`crate::faults::DeviceFail`], devices `0..ns` are Samplers,
    /// `ns..ns+nt` Trainers) kill an executor at a virtual time; its
    /// in-flight batch is re-dispatched to a survivor and the epoch
    /// re-balances mid-flight. Stragglers (multi-tenant contention, §5.3)
    /// stretch every stage of the executor they name.
    pub faults: FaultPlan,
}

impl FactoredOptions {
    /// Standard options for an `ns`×`nt` split.
    pub fn new(ns: usize, nt: usize) -> Self {
        FactoredOptions {
            num_samplers: ns,
            num_trainers: nt,
            enable_switching: true,
            pipelining: true,
            faults: FaultPlan::none(),
        }
    }
}

// The stage lists of the table below.
const SAMPLE_ENQUEUE: &[Stage] = &[SampleG, SampleM, SampleC];
const SAMPLE_MARK: &[Stage] = &[SampleG, SampleM];
const CONSUME: &[Stage] = &[Extract, Train];
const WHOLE: &[Stage] = &[SampleG, Extract, Train];
const WHOLE_CACHED: &[Stage] = &[SampleG, SampleM, Extract, Train];

impl Phase {
    /// `lanes` serial lanes, no reload.
    fn new(
        stages: &'static [Stage],
        lanes: usize,
        executor: Executor,
        assign: Assign,
        resident: Residency,
    ) -> Phase {
        Phase {
            stages,
            lanes,
            executor,
            assign,
            pipelined: false,
            resident,
            load: None,
        }
    }
}

impl Placement {
    /// `system`'s devices and paths, no standby, no faults.
    fn new(system: SystemKind, phases: Vec<Phase>, link: Link) -> Placement {
        Placement {
            system,
            sample_device: system.sample_device(),
            gather: system.gather_path(),
            phases,
            link,
            standby: None,
            faults: FaultPlan::none(),
        }
    }

    /// The conventional design (§2, Fig. 2): every GPU runs the full
    /// Sample → Extract → Train sequence for its share of mini-batches,
    /// so topology, both workspaces and the cache contend for one GPU,
    /// and all GPUs extract over the host path at once (Fig. 14).
    pub fn timeshare(system: SystemKind, gpus: usize) -> Result<Placement, RunError> {
        let (stages, resident) = match system {
            SystemKind::PygLike => (WHOLE, Residency::TRAIN_WS),
            SystemKind::DglLike => (WHOLE, Residency::TIMESHARE),
            SystemKind::TSota => (WHOLE_CACHED, Residency::TIMESHARE_CACHED),
            SystemKind::GnnLab => {
                let why = "GNNLab is not a time-sharing system";
                return Err(RunError::Unsupported(why.to_string()));
            }
        };
        let gpus = Phase::new(stages, gpus, Trainer, RoundRobin, resident);
        Ok(Self::new(system, vec![gpus], Link::Swap))
    }

    /// One GPU running Sample → Extract → Train back to back for every
    /// batch, with each choice Table 1 varies made explicit: where
    /// sampling runs, which path gathers, what stays resident (a cache
    /// only if `resident` holds one, topology only if sampling is on the
    /// GPU). `system` sizes the sampling workspace.
    pub fn solo(
        system: SystemKind,
        sample_device: SampleDevice,
        gather: GatherPath,
        resident: Residency,
    ) -> Placement {
        let gpu = Phase::new(WHOLE, 1, Trainer, RoundRobin, resident);
        Placement {
            sample_device,
            gather,
            ..Self::new(system, vec![gpu], Link::Swap)
        }
    }

    /// The factored design (§5): Samplers and Trainers on dedicated GPUs
    /// bridged by the host-memory queue; a global scheduler hands each
    /// batch to the next free Sampler, Trainers pipeline Extract and
    /// Train, and standby Trainers wake on Sampler GPUs that are done.
    pub fn factored(opts: &FactoredOptions) -> Placement {
        let (ns, nt) = (opts.num_samplers, opts.num_trainers);
        assert!(ns >= 1, "need at least one Sampler");
        assert!(nt >= 1, "need at least one Trainer");
        let samplers = Phase::new(SAMPLE_ENQUEUE, ns, Sampler, FirstFree, Residency::SAMPLER);
        let mut trainers = Phase::new(CONSUME, nt, Trainer, FirstDone, Residency::TRAINER);
        trainers.pipelined = opts.pipelining;
        let mut p = Self::new(SystemKind::GnnLab, vec![samplers, trainers], Link::Stream);
        // Standby Trainers co-reside with Samplers: topology stays loaded,
        // so their cache is what is left after it and both workspaces.
        p.standby = opts.enable_switching.then_some(Residency::TIMESHARE_CACHED);
        p.faults = opts.faults.clone();
        p
    }

    /// GNNLab on a single GPU (§7.9): "a special case of dynamic
    /// switching, where the solo GPU is used by alternating between graph
    /// sampling and model training, switching once an epoch. Storing all
    /// samples of an epoch in the global queue located at host memory is
    /// affordable." The sampling workspace is released before the Trainer
    /// half, so each half must fit rather than their sum.
    pub fn single_gpu() -> Placement {
        let sampler = Phase::new(SAMPLE_ENQUEUE, 1, Sampler, FirstFree, Residency::SAMPLER);
        let mut trainer = Phase::new(CONSUME, 1, Standby, FirstDone, Residency::SOLO_TRAINER);
        trainer.pipelined = true;
        Self::new(SystemKind::GnnLab, vec![sampler, trainer], Link::Drain)
    }

    /// The AGL batch-mode alternative (§3 Discussion): each epoch all
    /// GPUs load topology and sample, then swap it for the feature cache
    /// and extract/train. Topology and cache never coexist, so the cache
    /// ratio equals a GNNLab Trainer's — and the two reloads cost more
    /// than tens of GNNLab epochs.
    pub fn agl(gpus: usize) -> Placement {
        let mut sample = Phase::new(SAMPLE_MARK, gpus, Sampler, RoundRobin, Residency::SAMPLER);
        sample.load = Some(LoadTopology);
        let mut train = Phase::new(CONSUME, gpus, Trainer, RoundRobin, Residency::TRAINER);
        train.load = Some(LoadCache);
        Self::new(SystemKind::GnnLab, vec![sample, train], Link::Swap)
    }
}
