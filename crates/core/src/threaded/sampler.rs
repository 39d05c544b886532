//! The Sampler executor: lease batch ids from the id queue, refill
//! trained tasks the consumers gave back, sample (G) — or take what
//! pre-sampling drew for the batch — and enqueue (C) — §5.2. There is no
//! M step: the consumer's gather looks each vertex up in its own table
//! with one load, the same load a mark would have cost (DESIGN §1).

use super::sched::BatchClock;
use super::shared::{Shared, TrainTask};
use crate::faults::ExecutorRole;
use crate::queue::DequeueError;
use gnnlab_graph::VertexId;
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_sampling::{presample_rng, MinibatchIter, SampleBuffers};
use std::time::Instant;

/// How many batch ids a Sampler leases and enqueues per round: one
/// `enqueue_many` lock/condvar round-trip moves the whole burst. Small
/// enough that a burst never outlives the default queue capacity, large
/// enough to amortize the handoff.
const SAMPLER_BURST: usize = 4;

/// The clock a Sampler on `slot` feeds `T_s` through, its own estimate
/// started — and published — at the role's.
pub(super) fn sampler_clock<'a>(sh: &'a Shared<'_>, slot: usize) -> BatchClock<'a> {
    let slowdown = sh.cfg.faults.slowdown(ExecutorRole::Sampler, slot);
    sh.sched().clock(Executor::Sampler, slot, slowdown)
}

/// One Sampler's main loop: lease the next [`SAMPLER_BURST`] batch ids
/// from the id queue, take back as many trained tasks as the burst
/// needs, refill each in place — sample (or take the pre-sampled epoch-0
/// sample), label — then enqueue the burst in one round-trip
/// (blocking at the queue's capacity) and complete its leases. Once the
/// id queue is drained — every id delivered, none leased — it closes the
/// sample queue and exits.
pub(super) fn sampler_phase(sh: &Shared<'_>, slot: usize, exec: usize, mut clock: BatchClock<'_>) {
    let (cfg, ledger, obs) = (sh.cfg, sh.ledger(), &*sh.obs);
    let (device, who) = (slot as u32, format!("Sampler {slot}"));
    let crash = cfg.faults.crash_for(ExecutorRole::Sampler, slot);
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
        let leases = match ledger.ids().dequeue_leased_many(exec as u32, SAMPLER_BURST) {
            Ok(leases) => leases,
            // Every sample is in the queue: close it so blocked consumers
            // drain what remains and exit instead of spinning. Idempotent,
            // so every Sampler that gets here may.
            Err(DequeueError::Drained) => {
                ledger.samples().close();
                return;
            }
            // A peer crashed beyond recovery: stop producing.
            Err(DequeueError::Poisoned(_)) => return,
        };
        // Refill trained tasks the consumers gave back; make new ones only
        // for what the return list cannot cover.
        ledger.take_returned(leases.len(), &mut tasks);
        tasks.resize_with(leases.len(), TrainTask::default);
        for (k, (task, lease)) in tasks.iter_mut().zip(&leases).enumerate() {
            // If the injected crash fires here the whole burst stays
            // leased: the supervisor reclaims it to the front of the id
            // queue, in order, and a survivor re-samples each batch
            // (nothing sampled here was enqueued yet, so exactly-once
            // holds).
            sh.faults().crash_point(crash, sampled + k, &who);
            let i = *lease.task as usize;
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
            // Pre-sampling already drew the first batches of epoch 0: the G
            // step of a kept one is done, and its time seeded T_s.
            if let Some(sample) = ledger.take_presampled(i) {
                task.sample = sample;
            } else {
                let work_started = Instant::now();
                // Per-batch domain-tagged RNG: the sampler's random state
                // is a pure function of (seed, epoch, batch), so the batch
                // cursor IS the RNG position — resume replays nothing and
                // skips nothing, and it doesn't matter which executor (or
                // pre-sampling) samples which batch, in which burst.
                let mut rng = presample_rng(cfg.seed, epoch, b as u64);
                {
                    let _g = obs.start_span(device, Executor::Sampler, Stage::SampleG, task.id);
                    let (csr, out) = (&sh.graph.csr, &mut task.sample);
                    sh.sampler.sample_into(csr, batch, &mut rng, &mut bufs, out);
                }
                // T_s counts sampling *work* (G, stretched by any straggler
                // factor); the C step below may block on backpressure,
                // which is waiting, not work.
                clock.record(work_started.elapsed().as_secs_f64());
            }
            task.labels.clear();
            task.labels
                .extend(batch.iter().map(|&v| sh.graph.labels[v as usize]));
        }
        let (n, first_id) = (tasks.len(), tasks[0].id);
        let enqueued = {
            let _g = obs.start_span(device, Executor::Sampler, Stage::SampleC, first_id);
            ledger.samples().enqueue_many(tasks.drain(..))
        };
        // Poisoned (a peer crashed beyond recovery): stop producing.
        if enqueued.is_err() {
            return;
        }
        ledger.delivered(&leases);
        sampled += n;
        obs.metrics
            .counter_add(names::THREADED_SAMPLES_PRODUCED, n as f64);
    }
}
