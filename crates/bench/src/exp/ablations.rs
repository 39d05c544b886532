//! Ablations of GNNLab's design choices beyond the paper's figures.
//!
//! Each sub-experiment isolates one mechanism DESIGN.md calls out:
//!
//! - `pipelining`: Extract/Train overlap inside Trainers (§5.2).
//! - `multitenant`: a contended (slowed) executor in a shared cluster —
//!   the scenario §5.3 gives for dynamic switching.
//! - `batch_size`: the §8 mini-batch-size discussion (epoch time falls
//!   with batch size; PreSC's hit rate is batch-size-invariant).
//! - `trainset_size`: the §8 training-set-size discussion (GNNLab's
//!   advantage grows with |T|).
//! - `partitioning`: the §8 cross-GPU partitioned-sampling alternative
//!   (remote memory access is ~74× slower than local).
//! - `subgraph_presc`: the §8 "other sampling algorithms" caveat —
//!   ClusterGCN's uniform footprint gives PreSC nothing to exploit, while
//!   the capacity benefit of the factored design remains.

use crate::exp::{dataset, workload_on, Recorded};
use crate::table::{error_cell, pct, secs};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::faults::{ExecutorRole, FaultPlan};
use gnnlab_core::memory::Residency;
use gnnlab_core::runtime::{
    build_cache_table, run_epoch_with_cache, run_factored_epoch_opts, FactoredOptions, Placement,
    SimContext,
};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{SystemKind, Workload};
use gnnlab_graph::{trainset, Dataset, DatasetKind};
use gnnlab_sampling::{ClusterGcn, FootprintRecorder, Kernel, MinibatchIter, SamplingAlgorithm};
use gnnlab_tensor::ModelKind;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Ablation: Trainer pipelining on/off (GCN on PA, 2S6T).
fn pipelining(gcn_pa: &mut Recorded) -> Table {
    let (ctx, trace) = gcn_pa.cell(SystemKind::GnnLab, 8);
    let mut table = Table::new(
        "Ablation: Extract/Train pipelining (GCN on PA, 2S6T)",
        &["Pipelining", "Epoch (s)"],
    );
    for (label, on) in [("on", true), ("off", false)] {
        let mut opts = FactoredOptions::new(2, 6);
        opts.pipelining = on;
        opts.enable_switching = false;
        let rep = run_factored_epoch_opts(&ctx, trace, &opts).expect("PA fits");
        table.row(vec![label.to_string(), secs(rep.epoch_time)]);
    }
    table
}

/// Ablation: one Trainer contended 4× (multi-tenant cluster, §5.3), with
/// and without dynamic switching absorbing the straggler.
fn multitenant(gcn_pa: &mut Recorded) -> Table {
    let (ctx, trace) = gcn_pa.cell(SystemKind::GnnLab, 8);
    let mut table = Table::new(
        "Ablation: contended Trainer (4x slower) in a shared cluster (GCN on PA, 2S6T)",
        &["Scenario", "Epoch (s)", "Switched batches"],
    );
    let contended = FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 4.0);
    let scenarios = [
        ("no contention", FaultPlan::none(), true),
        ("trainer0 4x slower, no DS", contended.clone(), false),
        ("trainer0 4x slower, with DS", contended, true),
    ];
    for (label, faults, ds) in scenarios {
        let mut opts = FactoredOptions::new(2, 6);
        opts.faults = faults;
        opts.enable_switching = ds;
        let rep = run_factored_epoch_opts(&ctx, trace, &opts).expect("PA fits");
        table.row(vec![
            label.to_string(),
            secs(rep.epoch_time),
            rep.switched_batches.to_string(),
        ]);
    }
    table
}

/// Ablation: mini-batch size (§8). Epoch time falls with batch size;
/// PreSC's hit rate does not move.
fn batch_size(cfg: &ExpConfig, w: &Workload) -> Table {
    let base = w.batch_size();
    let cache = build_cache_table(w, PolicyKind::PreSC { k: 1 }, 0.15);
    // One GNNLab-class GPU doing all three stages against the forced cache.
    let ctx = SimContext::new(w, SystemKind::GnnLab);
    let gpu = Placement::solo(
        ctx.system,
        ctx.system.sample_device(),
        ctx.system.gather_path(),
        Residency::TIMESHARE_CACHED,
    );
    let mut table = Table::new(
        "Ablation: mini-batch size (GCN on PA; paper batch = 8000)",
        &[
            "Batch (paper-scale)",
            "Sample+Extract+Train sum (s)",
            "PreSC hit rate",
        ],
    );
    for mult in [1usize, 2, 4, 8] {
        let bs = (base * mult).max(1);
        let trace = EpochTrace::record_with_batch(w, Kernel::FisherYates, 2, bs);
        let rep = run_epoch_with_cache(&ctx, &trace, &gpu, cache.clone()).expect("no fault plan");
        table.row(vec![
            format!("{}", bs as u64 * cfg.scale.factor()),
            secs(rep.stages.total()),
            pct(rep.hit_rate),
        ]);
    }
    table
}

/// Ablation: training-set size (§8). GNNLab's advantage over T_SOTA grows
/// with |T| because Extract pressure grows.
fn trainset_size(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let mut table = Table::new(
        "Ablation: training-set size (GraphSAGE on PA, 8 GPUs)",
        &["|T| multiplier", "T_SOTA (s)", "GNNLab (s)", "Speedup"],
    );
    for mult in [0.5f64, 1.0, 2.0, 4.0] {
        let mut w = workload_on(ModelKind::GraphSage, papers.clone(), cfg);
        let n = w.dataset.csr.num_vertices();
        let size = ((w.dataset.train_set.len() as f64 * mult) as usize).clamp(8, n);
        w.dataset.train_set = trainset::recent_train_set(n, size);
        let mut w = Recorded::new(w);
        let (tsota, gnnlab) = (SystemKind::TSota, SystemKind::GnnLab);
        table.row(match (w.run_system(tsota, 8), w.run_system(gnnlab, 8)) {
            (Ok(t), Ok(g)) => vec![
                format!("{mult}x"),
                secs(t.epoch_time),
                secs(g.epoch_time),
                format!("{:.1}x", t.epoch_time / g.epoch_time),
            ],
            (Err(e), _) | (_, Err(e)) => vec![
                format!("{mult}x"),
                error_cell(&e).into(),
                "-".into(),
                "-".into(),
            ],
        });
    }
    table
}

/// Ablation: the §8 partitioning alternative. Topology split across the 8
/// GPUs; 7/8 of neighbor accesses are remote at ~74× local latency.
fn partitioning(gcn_pa: &mut Recorded) -> Table {
    // GNNLab baseline.
    let gnnlab = gcn_pa.run_system(SystemKind::GnnLab, 8).expect("PA fits");
    // Partitioned sampling: every GPU samples its share — the same kernel
    // time in total — but with the topology hash-split 8 ways, 7/8 of
    // neighbor-list reads cross GPUs at the paper's measured 74x latency
    // penalty.
    let remote_factor = 1.0 / 8.0 + (7.0 / 8.0) * 74.0;
    let sample_wall = gnnlab.stages.sample_g * remote_factor / 8.0;
    let mut table = Table::new(
        "Ablation: §8 partitioned sampling (topology hash-split over 8 GPUs)",
        &["Design", "Sample wall-time (s/epoch)"],
    );
    table.row(vec![
        "GNNLab (replicated topology)".into(),
        secs(gnnlab.stages.sample_g / gnnlab.num_samplers.max(1) as f64),
    ]);
    table.row(vec![
        "Partitioned (cross-GPU access 74x)".into(),
        secs(sample_wall),
    ]);
    table
}

/// Ablation: PreSC vs subgraph sampling (§8 "other sampling algorithms").
///
/// ClusterGCN's real setting trains on *all* vertices, one cluster per
/// batch, so every vertex is visited exactly once per epoch — a perfectly
/// flat footprint. PreSC (and even the Optimal oracle) then cannot beat
/// the cache ratio itself, while 3-hop neighborhood sampling's skewed
/// footprint is highly cacheable. We report the footprint skew
/// (max/mean visit count) alongside the hit rates.
fn subgraph_presc(cfg: &ExpConfig) -> Table {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Twitter, cfg.scale, cfg.seed);
    let csr = &w.dataset.csr;
    let n = csr.num_vertices();
    let khop = w.sampler(Kernel::FisherYates);
    let num_clusters = 32usize;
    let cluster = ClusterGcn::new(num_clusters, 3);
    let mut table = Table::new(
        "Ablation: PreSC under subgraph sampling (GCN on TW)",
        &[
            "Algorithm",
            "Footprint skew",
            "PreSC#1 hit @10%",
            "Optimal hit @10%",
        ],
    );
    // khop trains on the normal training set; ClusterGCN on all vertices,
    // one cluster per batch (its real setting).
    let all: Vec<u32> = (0..n as u32).collect();
    let configs: [(&str, &dyn SamplingAlgorithm, &[u32], usize); 2] = [
        (
            "3-hop khop",
            khop.as_ref(),
            &w.dataset.train_set,
            w.batch_size(),
        ),
        ("ClusterGCN", &cluster, &all, n.div_ceil(num_clusters)),
    ];
    for (name, algo, ts, batch) in configs {
        let footprint = |epoch: u64| {
            let mut rec = FootprintRecorder::new(n);
            let mut rng = ChaCha8Rng::seed_from_u64(w.seed ^ (epoch << 32));
            for seeds in MinibatchIter::new(ts, batch, w.seed, epoch) {
                rec.record_sample(&algo.sample(csr, &seeds, &mut rng));
            }
            rec
        };
        let fp = footprint(0);
        let counts = fp.counts();
        let visited: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        let mean = visited.iter().sum::<u64>() as f64 / visited.len().max(1) as f64;
        let skew = *visited.iter().max().unwrap_or(&0) as f64 / mean.max(1e-9);
        let measure = |hotness: &[f64]| {
            let t = gnnlab_cache::load_cache(hotness, 0.10, n);
            let mut stats = gnnlab_cache::CacheStats::default();
            let mut rng = ChaCha8Rng::seed_from_u64(w.seed ^ (3u64 << 32));
            for seeds in MinibatchIter::new(ts, batch, w.seed, 3) {
                let s = algo.sample(csr, &seeds, &mut rng);
                stats.record(&t, s.input_nodes(), w.dataset.row_bytes());
            }
            stats.hit_rate()
        };
        let hotness_presc = {
            let mut r = fp;
            r.end_epoch();
            r.hotness()
        };
        let hotness_opt = {
            let mut r = footprint(3);
            r.end_epoch();
            r.hotness()
        };
        table.row(vec![
            name.to_string(),
            format!("{skew:.1}x"),
            pct(measure(&hotness_presc)),
            pct(measure(&hotness_opt)),
        ]);
    }
    table
}

/// All ablations.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let papers = dataset(DatasetKind::Papers, cfg);
    let mut gcn_pa = Recorded::new(workload_on(ModelKind::Gcn, papers.clone(), cfg));
    vec![
        pipelining(&mut gcn_pa),
        multitenant(&mut gcn_pa),
        batch_size(cfg, &gcn_pa.workload),
        trainset_size(cfg, &papers),
        partitioning(&mut gcn_pa),
        subgraph_presc(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        }
    }

    fn gcn_pa() -> Recorded {
        Recorded::generate(ModelKind::Gcn, DatasetKind::Papers, &config())
    }

    fn val(t: &Table, r: usize, c: usize) -> f64 {
        t.rows[r][c]
            .trim_end_matches('%')
            .trim_end_matches('x')
            .parse()
            .unwrap()
    }

    #[test]
    fn pipelining_helps() {
        let t = pipelining(&mut gcn_pa());
        assert!(val(&t, 0, 1) <= val(&t, 1, 1), "{t:?}");
    }

    #[test]
    fn switching_absorbs_stragglers() {
        let t = multitenant(&mut gcn_pa());
        let clean = val(&t, 0, 1);
        let slow_no_ds = val(&t, 1, 1);
        let slow_ds = val(&t, 2, 1);
        assert!(slow_no_ds > clean, "straggler must hurt");
        assert!(slow_ds <= slow_no_ds, "switching must not make it worse");
    }

    #[test]
    fn presc_choice_is_batch_size_invariant() {
        // §8: "The mini-batch size will not affect the efficacy of our
        // PreSC caching policy" — the *vertices it chooses to cache* are
        // stable under batch-size changes (per-lookup hit rates shift a
        // little because dedup shifts the lookup mix).
        use gnnlab_cache::{CachePolicy, PolicyKind};
        let w = gcn_pa().workload;
        let top_set = |batch: usize| -> std::collections::HashSet<u32> {
            let out = CachePolicy::hotness(
                PolicyKind::PreSC { k: 1 },
                &w.dataset.csr,
                &w.dataset.train_set,
                w.sampler(Kernel::FisherYates).as_ref(),
                batch,
                w.seed,
            );
            gnnlab_cache::load_cache(&out.hotness, 0.10, w.dataset.csr.num_vertices())
                .cached_vertices()
                .iter()
                .copied()
                .collect()
        };
        let small = top_set(w.batch_size());
        let large = top_set(w.batch_size() * 8);
        let overlap = small.intersection(&large).count() as f64 / small.len().max(1) as f64;
        assert!(overlap > 0.7, "top-10% overlap only {overlap:.2}");
        // And the informative sweep still runs.
        let t = batch_size(&config(), &w);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn partitioned_sampling_is_catastrophic() {
        let t = partitioning(&mut gcn_pa());
        assert!(val(&t, 1, 1) > 3.0 * val(&t, 0, 1), "{t:?}");
    }

    #[test]
    fn clustergcn_defeats_presc_but_khop_does_not() {
        let t = subgraph_presc(&config());
        let khop_hit = val(&t, 0, 2);
        let cluster_hit = val(&t, 1, 2);
        assert!(
            khop_hit > cluster_hit + 15.0,
            "khop {khop_hit} vs cluster {cluster_hit}"
        );
        // ClusterGCN's flat footprint: even the oracle is pinned near the
        // cache ratio (10%).
        let cluster_opt = val(&t, 1, 3);
        assert!(cluster_opt < 30.0, "oracle should be capped: {cluster_opt}");
        // khop's footprint is visibly skewed, ClusterGCN's is flat.
        let khop_skew = val(&t, 0, 1);
        let cluster_skew = val(&t, 1, 1);
        assert!(
            khop_skew > 3.0 * cluster_skew,
            "{khop_skew} vs {cluster_skew}"
        );
    }
}
