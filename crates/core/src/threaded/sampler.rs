//! The Sampler executor: claim batch indices from the shared book, refill
//! trained tasks the consumers gave back, sample (G) — or take what
//! pre-sampling drew for the batch — mark (M), and enqueue (C) — §5.2.

use super::book::Claim;
use super::shared::{BatchClock, Shared, TrainTask};
use crate::faults::ExecutorRole;
use crate::sync::Ordering;
use crate::train_real::sampler_for;
use gnnlab_graph::VertexId;
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_sampling::{presample_rng, MinibatchIter, SampleBuffers};
use std::time::Instant;

/// How many batches a Sampler claims and enqueues per round: one
/// `enqueue_many` lock/condvar round-trip moves the whole burst. Small
/// enough that a burst never outlives the default queue capacity, large
/// enough to amortize the handoff.
const SAMPLER_BURST: usize = 4;

/// The clock a Sampler on `slot` feeds `T_s` through, its own estimate
/// started — and published — at the role's.
pub(super) fn sampler_clock<'a>(sh: &'a Shared<'_>, slot: usize) -> BatchClock<'a> {
    BatchClock::new(
        &sh.t_sample,
        names::SCHEDULER_EWMA_T_SAMPLE,
        names::executor_ewma("sampler", slot),
        sh.cfg.faults.slowdown(ExecutorRole::Sampler, slot),
    )
    .starting_at_role(&sh.obs)
}

/// One Sampler's main loop: claim the next [`SAMPLER_BURST`] batch indices
/// from the shared book, take back as many trained tasks as the burst
/// needs, refill each in place — sample (or take the pre-sampled epoch-0
/// sample), mark, label — then enqueue the burst in one round-trip
/// (blocking at the queue's capacity). Finding nothing left to claim
/// retires it from the book in the same step; it exits after closing the
/// queue if it was the last producer out.
pub(super) fn sampler_phase(sh: &Shared<'_>, slot: usize, exec: usize, mut clock: BatchClock<'_>) {
    let cfg = sh.cfg;
    let algo = sampler_for(sh.kind);
    let device = slot as u32;
    let crash = cfg.faults.crash_for(ExecutorRole::Sampler, slot);
    let who = format!("Sampler {slot}");
    let obs = &*sh.obs;
    // The cached epoch's shuffled training set; batch `b` of the epoch is
    // its `b`-th `batch_size` chunk.
    let mut cached_epoch = u64::MAX;
    let mut order: Vec<VertexId> = Vec::new();
    let mut sampled = 0usize;
    // Reusable sampling scratch: one set per Sampler thread, so the hot
    // loop allocates no per-batch intermediates.
    let mut bufs = SampleBuffers::new();
    // The burst being filled; `enqueue_many` drains it, keeping its
    // capacity.
    let mut tasks: Vec<TrainTask> = Vec::new();
    loop {
        // (Bound first, so the book lock is released before the match.)
        let claim = sh.book.lock().next_claims(exec, SAMPLER_BURST);
        let claims = match claim {
            Claim::Burst(claims) => claims,
            // Finished sampling; the last producer out closes the queue
            // so blocked consumers drain what remains and exit instead of
            // spinning.
            Claim::Retired { close } => {
                if close {
                    sh.queue.close();
                }
                return;
            }
        };
        // Refill trained tasks the consumers gave back; make new ones only
        // for what the return list cannot cover.
        {
            let mut returned = sh.returned.lock();
            let from = returned.len().saturating_sub(claims.len());
            tasks.extend(returned.drain(from..));
        }
        tasks.resize_with(claims.len(), TrainTask::default);
        for (k, (task, &i)) in tasks.iter_mut().zip(&claims).enumerate() {
            // If the injected crash fires here the whole burst's claims
            // stay registered: the supervisor orphans them all and
            // survivors re-sample each batch (nothing sampled here was
            // enqueued yet, so exactly-once holds).
            sh.crash_point(crash, sampled + k, &who);
            let (epoch, b) = ((i / sh.batches_per_epoch) as u64, i % sh.batches_per_epoch);
            if epoch != cached_epoch {
                // Every Sampler derives the same shuffle for a given
                // epoch, so the global index space is consistent across
                // threads.
                MinibatchIter::shuffle_into(sh.train_set, sh.shuffle_seed, epoch, &mut order);
                cached_epoch = epoch;
            }
            let batch = &order[b * cfg.batch_size..((b + 1) * cfg.batch_size).min(order.len())];
            task.id = i as u64;
            let work_started = Instant::now();
            // `sample_into` resets the mask; keep its buffer for the M step.
            let mut mask = task.sample.cache_mask.take().unwrap_or_default();
            // Pre-sampling already drew the first batches of epoch 0: the G
            // step of a kept one is done.
            let kept = sh.take_presampled(i);
            let sampled_here = kept.is_none();
            if let Some(sample) = kept {
                task.sample = sample;
            } else {
                // Per-batch domain-tagged RNG: the sampler's random state
                // is a pure function of (seed, epoch, batch), so the batch
                // cursor IS the RNG position — resume replays nothing and
                // skips nothing, and it doesn't matter which executor (or
                // pre-sampling) samples which batch, in which burst.
                let mut rng = presample_rng(cfg.seed, epoch, b as u64);
                let _g = obs.start_span(device, Executor::Sampler, Stage::SampleG, task.id);
                algo.sample_into(&sh.graph.csr, batch, &mut rng, &mut bufs, &mut task.sample);
            }
            // The M step (§5.2): the Sampler marks which input vertices
            // the Trainers' cache holds, so Trainers need no second
            // membership pass.
            {
                let _g = obs.start_span(device, Executor::Sampler, Stage::SampleM, task.id);
                sh.mark_table
                    .mark_into(task.sample.input_nodes(), &mut mask);
                task.sample.cache_mask = Some(mask);
            }
            // T_s counts sampling *work* (G + M, stretched by any
            // straggler factor); the C step below may block on
            // backpressure, which is waiting, not work. A kept batch's G
            // ran in pre-sampling, which seeded T_s with it.
            if sampled_here {
                clock.record(work_started.elapsed().as_secs_f64(), obs);
            }
            task.labels.clear();
            task.labels
                .extend(batch.iter().map(|&v| sh.graph.labels[v as usize]));
        }
        let n = tasks.len();
        let first_id = tasks[0].id;
        let enqueued = {
            let _g = obs.start_span(device, Executor::Sampler, Stage::SampleC, first_id);
            sh.queue.enqueue_many(tasks.drain(..))
        };
        match enqueued {
            Ok(()) => {
                sh.book.lock().complete_claims(exec);
                sh.produced.fetch_add(n, Ordering::Relaxed);
                sampled += n;
                obs.metrics
                    .counter_add(names::THREADED_SAMPLES_PRODUCED, n as f64);
            }
            // Poisoned (a peer crashed beyond recovery): stop producing.
            Err(_) => {
                sh.book.lock().complete_claims(exec);
                return;
            }
        }
    }
}
