//! The one Sample → Extract → Train engine.
//!
//! [`run_epoch`] list-schedules a recorded epoch over the lanes a
//! [`Placement`] describes, one per-lane clock pair at a time. Costs,
//! faults, slowdowns, spans, metrics and the report are handled here
//! once; nothing in this file knows which system it is simulating.

use super::context::{cache_table, SimContext};
use super::placement::{Assign, Link, Phase, Placement};
use crate::faults::{ExecutorRole, FaultPlan};
use crate::memory::{plan_gpu, Residency};
use crate::report::{EpochReport, RunError, StageBreakdown};
use crate::schedule::switch_profit;
use crate::trace::{BatchTrace, EpochTrace};
use gnnlab_cache::{CacheStats, CacheTable};
use gnnlab_obs::{names, Executor, Obs, Stage};
use gnnlab_sim::{ns_to_secs, SimTime};

/// Profiled per-mini-batch stage times (seconds) for the allocation rule.
#[derive(Debug, Clone, Copy)]
pub struct StageTimes {
    /// Sampler per-batch time `T_s` (G + M + C).
    pub t_sample: f64,
    /// Trainer per-batch time `T_t` (pipelined: max(extract, train)).
    pub t_trainer: f64,
    /// Standby-Trainer per-batch time `T_t'` (smaller cache), infinite if
    /// no standby Trainer fits on the Sampler GPU.
    pub t_standby: f64,
}

/// One placement over one recorded epoch, planned: the memory plans of
/// its roles and the cache tables they afford. These depend on the
/// residencies only, not on the lane counts, so [`Sim::with`] reuses them
/// for profiling and for every split of the same GPUs.
pub(super) struct Sim<'a, 'c> {
    ctx: &'a SimContext<'c>,
    trace: &'a EpochTrace,
    p: &'a Placement,
    /// Cache ratio of the consuming phase's lanes.
    alpha: f64,
    /// Their cache, if they hold one.
    cache: Option<CacheTable>,
    /// The standby lanes' (smaller) cache, if standby is on and fits.
    standby: Option<CacheTable>,
}

/// One executor: a device with a clock for the stages before Train and a
/// clock for Train.
#[derive(Clone, Copy)]
struct Lane {
    device: u32,
    executor: Executor,
    slowdown: f64,
    fail_at: Option<SimTime>,
    front_free: SimTime,
    train_free: SimTime,
    alive: bool,
    /// A standby lane on a producing lane's device: profit-gated, and
    /// extracting against the standby cache.
    standby: bool,
}

/// One batch laid out on one lane.
#[derive(Default)]
struct Run {
    start: SimTime,
    /// `(start, end)` per stage of the phase's list.
    spans: [(SimTime, SimTime); 5],
    /// When the stages before Train end (a pipelined lane's next batch
    /// may start).
    front: SimTime,
    done: SimTime,
    /// The lane's steady-state time per batch like this one: the slower
    /// of its two clocks.
    pace: SimTime,
    /// Paper-scale (miss, hit) bytes of its Extract.
    bytes: (f64, f64),
}

fn stage_total(s: &mut StageBreakdown, stage: Stage) -> &mut f64 {
    match stage {
        Stage::SampleG => &mut s.sample_g,
        Stage::SampleM => &mut s.sample_m,
        Stage::SampleC => &mut s.sample_c,
        Stage::Extract => &mut s.extract,
        _ => &mut s.train,
    }
}

/// Reconstructs the global queue's depth-over-time series from the
/// virtual-time enqueue and dequeue instants, sampling `queue.depth` at
/// every event (enqueues win ties: a sample is in the queue the instant
/// it becomes ready).
fn record_queue_depth(obs: &Obs, enqueues: &[(SimTime, usize)], dequeues: &[SimTime]) {
    let mut events: Vec<(SimTime, i64)> = enqueues.iter().map(|&(t, _)| (t, 1)).collect();
    events.extend(dequeues.iter().map(|&t| (t, -1)));
    events.sort_unstable_by_key(|&(t, step)| (t, -step));
    let mut depth = 0;
    for (t, step) in events {
        depth += step;
        obs.metrics.sample(names::QUEUE_DEPTH, t, depth as f64);
        obs.metrics.gauge_set(names::QUEUE_DEPTH, depth as f64);
    }
}

impl<'a, 'c> Sim<'a, 'c> {
    /// Plans every phase's GPUs in order — each must fit — and builds
    /// the cache tables from one hotness map (one pre-sampling pass under
    /// PreSC, however many tables).
    pub(super) fn plan(
        ctx: &'a SimContext<'c>,
        trace: &'a EpochTrace,
        p: &'a Placement,
    ) -> Result<Self, RunError> {
        let plan = |r| plan_gpu(&ctx.testbed, ctx.workload, p.system, r).map(|g| g.cache_alpha);
        let mut hotness = None;
        let mut table = |alpha| cache_table(ctx.workload, ctx.policy, alpha, &mut hotness);
        let mut alpha = 0.0;
        for phase in &p.phases {
            alpha = plan(phase.resident)?;
        }
        let cached = (p.phases.last()).is_some_and(|c| c.resident.holds(Residency::CACHE));
        let cache = cached.then(|| table(alpha));
        let standby = p.standby.and_then(|r| plan(r).ok()).map(table);
        Ok(Sim {
            ctx,
            trace,
            p,
            alpha,
            cache,
            standby,
        })
    }

    /// The same plans and tables under `p`, a placement with the same
    /// residencies (another split of the GPUs).
    pub(super) fn with(self, p: &'a Placement) -> Self {
        Sim { p, ..self }
    }

    /// The one place a stage's cost for one batch is derived. Extract
    /// also leaves the paper-scale (miss, hit) bytes behind it in `bytes`.
    fn stage_cost(
        &self,
        b: &BatchTrace,
        stage: Stage,
        standby: bool,
        contention: usize,
        bytes: &mut (f64, f64),
    ) -> SimTime {
        let (cost, trace, factor) = (&self.ctx.cost, self.trace, self.trace.factor);
        match stage {
            Stage::SampleG => {
                cost.sample_time(&self.ctx.sample_cost(b, trace), self.p.sample_device)
            }
            Stage::SampleM => cost.mark_time(b.input_nodes.len() as f64 * factor),
            Stage::SampleC => cost.queue_time(b.queue_bytes as f64 * factor),
            Stage::Extract => {
                let cache = if standby { &self.standby } else { &self.cache };
                *bytes = self.ctx.extract_bytes(b, cache.as_ref(), factor);
                cost.extract_time(bytes.0, bytes.1, self.p.gather, contention)
            }
            Stage::Train => cost.train_time(b.flops * factor),
            other => unreachable!("{other:?} is not a per-batch stage"),
        }
    }

    /// Lays batch `b` out on `lane`: the stages run back to back from
    /// when both the lane and the batch (after an on-lane dequeue copy)
    /// are there, except that Train waits for the lane's Train clock.
    fn lay_out(
        &self,
        b: &BatchTrace,
        phase: &Phase,
        lane: &Lane,
        arrival: SimTime,
        on_lane: SimTime,
        contention: usize,
    ) -> Run {
        let start = lane.front_free.max(arrival);
        let mut run = Run {
            start,
            ..Run::default()
        };
        let mut t = start + on_lane;
        for (k, &stage) in phase.stages.iter().enumerate() {
            let d = self.stage_cost(b, stage, lane.standby, contention, &mut run.bytes);
            // Through f64 and back: the identity only for a slowdown of 1.
            let d = (d as f64 * lane.slowdown).round() as SimTime;
            if stage == Stage::Train {
                t = t.max(lane.train_free);
                run.pace = run.pace.max(d);
            } else {
                run.front = t + d;
                run.pace = run.front - start;
            }
            run.spans[k] = (t, t + d);
            t += d;
        }
        run.done = t;
        run
    }

    /// Mean steady-state seconds per batch of one undisturbed lane of
    /// `phase` while `contention` lanes extract.
    fn mean_batch_secs(&self, phase: &Phase, standby: bool, contention: usize) -> f64 {
        let mut lane = Lane::new(phase, 0, 0, 0, &FaultPlan::none());
        lane.standby = standby;
        let secs = |b| ns_to_secs(self.lay_out(b, phase, &lane, 0, 0, contention).pace);
        let batches = &self.trace.batches;
        batches.iter().map(secs).sum::<f64>() / batches.len().max(1) as f64
    }

    /// `T_s`, `T_t`, `T_t'` of a two-phase placement from a recorded
    /// epoch — the paper's "training an epoch in advance" (§5.3): one lane
    /// of each role alone on the host path.
    pub(super) fn profile(&self) -> StageTimes {
        let mean = |k: usize, standby| self.mean_batch_secs(&self.p.phases[k], standby, 1);
        let fits = self.standby.is_some();
        StageTimes {
            t_sample: mean(0, false),
            t_trainer: mean(1, false),
            t_standby: if fits { mean(1, true) } else { f64::INFINITY },
        }
    }

    /// Simulates the epoch.
    pub(super) fn run(&self) -> Result<EpochReport, RunError> {
        let (ctx, trace, p) = (self.ctx, self.trace, self.p);
        let total = trace.num_batches();
        let row_bytes = ctx.workload.dataset.row_bytes();
        let mut report = EpochReport::new(p.system);
        report.cache_ratio = self.alpha;
        report.num_trainers = p.phases.last().map_or(0, |c| c.lanes);
        if p.phases.len() > 1 && p.link != Link::Swap {
            report.num_samplers = p.phases[0].lanes;
        }
        let mut stats = CacheStats::default();
        let metrics = ctx.obs.map(|obs| &obs.metrics);
        // The phase's input: when each batch left the previous phase. The
        // first phase takes the epoch's batches in order from the scheduler.
        let mut ready: Vec<(SimTime, usize)> = (0..total).map(|i| (0, i)).collect();
        let mut prev: Vec<Lane> = Vec::new();
        let mut end: SimTime = 0;

        for (k, phase) in p.phases.iter().enumerate() {
            let linked = k > 0;
            let streams = p.link == Link::Stream;
            let queued = linked && p.link != Link::Swap;
            let barrier = linked && !streams;
            let enqueues = phase.stages.contains(&Stage::SampleC);
            let extracts = phase.stages.contains(&Stage::Extract);
            let base = if barrier { end } else { 0 };
            let (ds, cost) = (&ctx.workload.dataset, &ctx.cost);
            let load = match phase.load {
                None => 0,
                Some(Stage::LoadTopology) => cost.topo_load_time(ds.topo_bytes_paper() as f64),
                Some(_) => cost.cache_load_time(self.alpha * ds.feature_bytes_paper() as f64),
            };
            let begin = base + load * phase.lanes as u64;
            // Streaming consumers have GPUs of their own, numbered after
            // the producers'; otherwise the same GPUs play both roles.
            let first = if streams { prev.len() } else { 0 };
            let lane = |i| Lane::new(phase, i, first + i, begin, &p.faults);
            let mut lanes: Vec<Lane> = (0..phase.lanes).map(lane).collect();
            if let (Some(stage), Some(obs)) = (phase.load, ctx.obs) {
                for l in &lanes {
                    obs.record_span(l.device, l.executor, stage, 0, base, begin);
                }
            }
            // Standby consumers ride on the producing lanes that survived,
            // from the moment each finished (never on a dead device).
            let mut mean_t = 0.0;
            if linked && self.standby.is_some() {
                lanes.extend(prev.iter().filter(|l| l.alive).map(|l| Lane {
                    executor: Executor::Standby,
                    slowdown: 1.0,
                    standby: true,
                    ..*l
                }));
                // The profit metric's `T_t`: a lane's mean batch time with
                // every lane of the phase proper extracting.
                mean_t = self.mean_batch_secs(phase, false, phase.lanes);
            }
            let proper = |l: &&Lane| l.alive && !l.standby;
            let first_free = phase.assign == Assign::FirstFree;
            let copy = |b| self.stage_cost(b, Stage::SampleC, false, 1, &mut (0.0, 0.0));
            let drains = p.link == Link::Drain;

            let mut done_at: Vec<(SimTime, usize)> = Vec::with_capacity(total);
            // Dequeue instants, kept to reconstruct the queue-depth series.
            let mut dequeues: Vec<SimTime> = Vec::new();
            for (idx, &(ready_at, i)) in ready.iter().enumerate() {
                let b = &trace.batches[i];
                let deq = if queued { copy(b) } else { 0 };
                let on_lane = if drains { deq } else { 0 };
                let mut arrival = if barrier { base } else { ready_at + deq };

                // Dispatch loop: re-runs when the chosen lane's device
                // fails mid-batch — the partial work is lost, the batch
                // goes back to the scheduler (a sample re-enters the queue
                // at the fail instant), and a survivor replays it.
                let (lane, run) = loop {
                    // Live lanes of the phase proper: they share the host
                    // path during Extract and divide the backlog in the
                    // profit metric.
                    let live = lanes.iter().filter(proper).count().max(1);
                    let mut best: Option<(SimTime, usize, Run)> = None;
                    for (li, lane) in lanes.iter().enumerate() {
                        let skip = phase.assign == Assign::RoundRobin && li != i % lanes.len();
                        if !lane.alive || skip {
                            continue;
                        }
                        let run = self.lay_out(b, phase, lane, arrival, on_lane, live);
                        if lane.standby {
                            // P = M_r * T_t / N_t - T_t' (§5.3): the
                            // standby lane is a candidate iff waking it
                            // pays off *now*.
                            let t_standby = ns_to_secs(run.pace);
                            let profit = switch_profit(total - idx, mean_t, live, t_standby);
                            if let Some(m) = metrics {
                                m.sample(names::SCHEDULER_SWITCH_PROFIT, arrival, profit);
                                m.observe(names::SCHEDULER_SWITCH_PROFIT, profit);
                                if profit <= 0.0 {
                                    m.counter_inc(names::SCHEDULER_SWITCH_DENIED);
                                }
                            }
                            if profit <= 0.0 {
                                continue;
                            }
                        }
                        let key = if first_free { run.start } else { run.done };
                        if best.as_ref().is_none_or(|(k, ..)| key < *k) {
                            best = Some((key, li, run));
                        }
                    }
                    // Running out of lanes is a typed error, not a panic:
                    // device failures consumed the pool and no standby is
                    // eligible.
                    let Some((_, li, run)) = best else {
                        let detail =
                            format!("no {:?} left for batch {i} of {total}", phase.executor);
                        return Err(RunError::ExecutorsLost { detail });
                    };
                    let lane = &mut lanes[li];
                    let Some(fail_at) = lane.fail_at.filter(|&f| run.done > f) else {
                        break (lane, run);
                    };
                    lane.alive = false;
                    lane.front_free = lane.front_free.max(fail_at);
                    lane.train_free = lane.train_free.max(fail_at);
                    report.failed_devices += 1;
                    report.replayed_batches += 1;
                    if let Some(m) = metrics {
                        let down = fail_at.saturating_sub(run.start) as f64;
                        m.counter_inc(names::FAULTS_INJECTED);
                        m.counter_inc(names::RECOVERY_REPLAYED_BATCHES);
                        m.counter_inc(names::RECOVERY_REASSIGNMENTS);
                        m.counter_add(names::RECOVERY_DOWNTIME_NS, down);
                    }
                    if linked {
                        arrival = arrival.max(fail_at);
                    }
                };

                lane.front_free = if phase.pipelined { run.front } else { run.done };
                lane.train_free = run.done;
                done_at.push((run.done, i));
                for (&stage, &(t0, t1)) in phase.stages.iter().zip(&run.spans) {
                    *stage_total(&mut report.stages, stage) += ns_to_secs(t1 - t0);
                    if let Some(obs) = ctx.obs {
                        obs.record_span(lane.device, lane.executor, stage, i as u64, t0, t1);
                    }
                }
                let (miss, hit) = run.bytes;
                let switched = lane.executor == Executor::Standby;
                report.switched_batches += switched as usize;
                if extracts {
                    report.transferred_bytes += miss;
                    // The reported hit rate is the phase's own cache's.
                    if let (false, Some(cache)) = (lane.standby, &self.cache) {
                        stats.record(cache, &b.input_nodes, row_bytes);
                    }
                }
                let Some(m) = metrics else { continue };
                if enqueues {
                    m.counter_inc(names::QUEUE_ENQUEUED);
                }
                if queued {
                    m.counter_inc(names::QUEUE_DEQUEUED);
                    m.observe(names::QUEUE_WAIT_NS, (run.start - arrival) as f64);
                    dequeues.push(if drains { run.start + deq } else { arrival });
                }
                if extracts {
                    m.counter_add(names::CACHE_HIT_BYTES, hit);
                    m.counter_add(names::CACHE_MISS_BYTES, miss);
                    if hit + miss > 0.0 {
                        m.observe(names::CACHE_BATCH_HIT_RATE, hit / (hit + miss));
                    }
                }
                if switched {
                    m.counter_inc(names::SCHEDULER_SWITCHES);
                }
            }

            if let (true, Some(obs)) = (queued, ctx.obs) {
                record_queue_depth(obs, &ready, &dequeues);
            }
            end = lanes.iter().map(|l| l.train_free).fold(end, SimTime::max);
            ready = done_at;
            if streams {
                ready.sort_by_key(|&(t, i)| (t, i));
            }
            prev = lanes;
        }
        report.hit_rate = stats.hit_rate();
        report.epoch_time = ns_to_secs(end);
        if let Some(m) = metrics {
            stats.publish(m);
        }
        Ok(report)
    }
}

impl Lane {
    /// Lane `i` of `phase` on `device`, free from `at`. `Sampler` and
    /// `Trainer` lanes take the fault plan's stragglers, every lane its
    /// device's failure.
    fn new(phase: &Phase, i: usize, device: usize, at: SimTime, faults: &FaultPlan) -> Self {
        let role = match phase.executor {
            Executor::Sampler => Some(ExecutorRole::Sampler),
            Executor::Trainer => Some(ExecutorRole::Trainer),
            _ => None,
        };
        Lane {
            device: device as u32,
            executor: phase.executor,
            slowdown: role.map_or(1.0, |r| faults.slowdown(r, i)),
            fail_at: faults.device_fail_ns(device),
            front_free: at,
            train_free: at,
            alive: true,
            standby: false,
        }
    }
}

/// Simulates one epoch of `p` over the recorded `trace`.
pub fn run_epoch(
    ctx: &SimContext<'_>,
    trace: &EpochTrace,
    p: &Placement,
) -> Result<EpochReport, RunError> {
    Sim::plan(ctx, trace, p)?.run()
}

/// Simulates one epoch of `p` with the consuming phase's lanes extracting
/// against `cache` instead of the table their memory plan affords — the
/// sweeps that force a cache ratio (Fig. 4a, the §8 batch-size
/// discussion). Nothing is planned, so nothing can run out of memory;
/// the report carries `cache`'s own ratio.
pub fn run_epoch_with_cache(
    ctx: &SimContext<'_>,
    trace: &EpochTrace,
    p: &Placement,
    cache: CacheTable,
) -> Result<EpochReport, RunError> {
    let vertices = ctx.workload.dataset.csr.num_vertices();
    let sim = Sim {
        ctx,
        trace,
        p,
        alpha: cache.len() as f64 / vertices.max(1) as f64,
        cache: Some(cache),
        standby: None,
    };
    sim.run()
}
