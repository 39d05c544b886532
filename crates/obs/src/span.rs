//! Execution spans: who ran which stage of which mini-batch, and when.
//!
//! A span is one `(device, executor, stage, batch)` interval on a timeline.
//! The co-simulation runtimes record spans in *virtual* nanoseconds (the
//! simulated GPU clocks); the threaded runtime records wall-clock
//! nanoseconds since the run started. Either way the invariant holds that
//! spans on one `(run, device, lane)` track never overlap — a Sampler
//! executes G, M and C serially, and a Trainer runs Extract then Train.

use gnnlab_par::sync::Mutex;

/// Which kind of executor produced a span (§5.2's factored roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum Executor {
    /// A dedicated Sampler GPU.
    Sampler,
    /// A dedicated Trainer GPU.
    Trainer,
    /// A standby Trainer woken on a Sampler GPU (dynamic switching, §5.3).
    Standby,
    /// Host-side work (preprocessing phases, Table 6).
    Host,
}

/// The pipeline stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum Stage {
    /// Sample: GPU-based graph sampling (the `G` step).
    SampleG,
    /// Sample: marking cached input vertices (the `M` step).
    SampleM,
    /// Sample: copying the sample into the host global queue (`C`).
    SampleC,
    /// Feature extraction (two-tier cache + host gather).
    Extract,
    /// Model training (forward/backward/update).
    Train,
    /// Preprocessing P1: disk → DRAM load.
    DiskToDram,
    /// Preprocessing P2a: DRAM → GPU topology load.
    LoadTopology,
    /// Preprocessing P2b: DRAM → GPU feature-cache fill.
    LoadCache,
    /// Preprocessing P3: PreSC pre-sampling epoch.
    Presample,
}

impl Stage {
    /// The display track a stage renders on. The three Sample sub-stages
    /// share one lane (they are serial on a Sampler); Extract and Train
    /// get separate lanes because a pipelined co-simulation overlaps them
    /// on one device.
    pub fn lane(self) -> u32 {
        match self {
            Stage::SampleG | Stage::SampleM | Stage::SampleC => 0,
            Stage::Extract => 1,
            Stage::Train => 2,
            Stage::DiskToDram | Stage::LoadTopology | Stage::LoadCache | Stage::Presample => 3,
        }
    }

    /// The human-readable lane name for trace viewers.
    pub fn lane_name(self) -> &'static str {
        match self.lane() {
            0 => "Sample",
            1 => "Extract",
            2 => "Train",
            _ => "Preprocess",
        }
    }

    /// The per-stage latency histogram this stage's spans feed
    /// (`stage.<stage>.ns`); every recorded span observes its duration
    /// there, which is where the scrape endpoint's p50/p90/p99 come from.
    pub fn histogram_name(self) -> &'static str {
        use crate::names;
        match self {
            Stage::SampleG => names::STAGE_SAMPLE_G_NS,
            Stage::SampleM => names::STAGE_SAMPLE_M_NS,
            Stage::SampleC => names::STAGE_SAMPLE_C_NS,
            Stage::Extract => names::STAGE_EXTRACT_NS,
            Stage::Train => names::STAGE_TRAIN_NS,
            Stage::DiskToDram => names::STAGE_DISK_TO_DRAM_NS,
            Stage::LoadTopology => names::STAGE_LOAD_TOPOLOGY_NS,
            Stage::LoadCache => names::STAGE_LOAD_CACHE_NS,
            Stage::Presample => names::STAGE_PRESAMPLE_NS,
        }
    }

    /// The span name shown in trace viewers.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SampleG => "Sample:G",
            Stage::SampleM => "Sample:M",
            Stage::SampleC => "Sample:C",
            Stage::Extract => "Extract",
            Stage::Train => "Train",
            Stage::DiskToDram => "Disk→DRAM",
            Stage::LoadTopology => "Load topology",
            Stage::LoadCache => "Load cache",
            Stage::Presample => "Pre-sampling",
        }
    }
}

/// The pseudo-device id used for host-side spans.
pub const HOST_DEVICE: u32 = u32::MAX;

/// One recorded execution interval.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Span {
    /// The sub-run this span belongs to (see [`crate::Obs::begin_run`]).
    pub run: u32,
    /// Simulated GPU index (or [`HOST_DEVICE`] for host work).
    pub device: u32,
    /// The executor role that ran the stage.
    pub executor: Executor,
    /// The pipeline stage.
    pub stage: Stage,
    /// Mini-batch index within the run.
    pub batch: u64,
    /// Start time in nanoseconds (virtual or wall, per the recorder).
    pub t_start: u64,
    /// End time in nanoseconds; `t_end >= t_start`.
    pub t_end: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.t_end - self.t_start
    }
}

/// A thread-safe, append-only span log.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Mutex<Vec<Span>>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one span.
    pub fn record(&self, span: Span) {
        debug_assert!(span.t_end >= span.t_start, "span ends before it starts");
        self.spans.lock().push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_separate_extract_from_train() {
        assert_eq!(Stage::SampleG.lane(), Stage::SampleC.lane());
        assert_ne!(Stage::Extract.lane(), Stage::Train.lane());
        assert_eq!(Stage::Extract.lane_name(), "Extract");
    }

    #[test]
    fn recorder_appends_and_snapshots() {
        let r = SpanRecorder::new();
        assert!(r.is_empty());
        r.record(Span {
            run: 0,
            device: 1,
            executor: Executor::Sampler,
            stage: Stage::SampleG,
            batch: 7,
            t_start: 10,
            t_end: 25,
        });
        let spans = r.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_ns(), 15);
    }
}
