//! Table 1: runtime breakdown of key optimizations (3-layer GCN on
//! OGB-Papers, one V100).
//!
//! Six variants: DGL ± GPU sampling, T_SOTA ± GPU-based caching ± GPU-based
//! sampling. Shows that each optimization helps individually but a
//! time-sharing design cannot get full benefit from both (cache ratio
//! collapses when topology moves onto the GPU).

use crate::exp::generate;
use crate::table::secs;
use crate::{ExpConfig, Table};
use gnnlab_core::memory::Residency;
use gnnlab_core::runtime::{run_epoch, Placement};
use gnnlab_core::SystemKind;
use gnnlab_graph::DatasetKind;
use gnnlab_sim::{GatherPath, SampleDevice};
use gnnlab_tensor::ModelKind;
use GatherPath::{CpuGather, GpuDirect};
use SampleDevice::{Cpu, Gpu, GpuFromPython};
use SystemKind::{DglLike, TSota};

/// The six variants: where sampling runs, which path gathers, and what the
/// GPU keeps resident — topology and the sampling workspace iff it
/// samples, and a cache, where there is one, in what is left of 16 GB.
const VARIANTS: [(&str, SystemKind, SampleDevice, GatherPath, Residency); 6] = [
    ("DGL", DglLike, Cpu, CpuGather, Residency::TRAIN_WS),
    (
        "  w/ GPU-based Sampling",
        DglLike,
        GpuFromPython,
        CpuGather,
        Residency::TIMESHARE,
    ),
    ("T_SOTA", TSota, Cpu, GpuDirect, Residency::TRAIN_WS),
    (
        "  w/ GPU-based Caching",
        TSota,
        Cpu,
        GpuDirect,
        Residency::TRAINER,
    ),
    (
        "  w/ GPU-based Sampling",
        TSota,
        Gpu,
        GpuDirect,
        Residency::TIMESHARE,
    ),
    (
        "  w/ Both",
        TSota,
        Gpu,
        GpuDirect,
        Residency::TIMESHARE_CACHED,
    ),
];

/// Regenerates Table 1: six single-GPU placements over one workload.
pub fn run(cfg: &ExpConfig) -> Table {
    let w = generate(ModelKind::Gcn, DatasetKind::Papers, cfg);
    let mut table = Table::new(
        "Table 1: runtime breakdown (s) of one epoch, GCN on OGB-Papers, 1 GPU",
        &[
            "GNN System",
            "Sample",
            "Extract",
            "Train",
            "Total",
            "Cache R%",
        ],
    );
    for (name, system, device, gather, resident) in VARIANTS {
        let placement = Placement::solo(system, device, gather, resident);
        let (ctx, epoch) = w.cell(system, 1);
        let r = run_epoch(&ctx, &epoch, &placement).expect("PA fits one GPU in every variant");
        table.row(vec![
            name.to_string(),
            secs(r.stages.sample_total()),
            secs(r.stages.extract),
            secs(r.stages.train),
            secs(r.stages.total()),
            format!("{:.0}%", r.cache_ratio * 100.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(4096),
            seed: 1,
            obs: None,
        }
    }

    fn parse(table: &Table, row: usize, col: usize) -> f64 {
        table.rows[row][col].trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn table1_shape_holds() {
        let t = run(&config());
        assert_eq!(t.rows.len(), 6);
        // Row indices: 0 DGL, 1 DGL+GPU-S, 2 TSOTA, 3 +cache, 4 +GPU-S, 5 both.
        let dgl_sample = parse(&t, 0, 1);
        let dgl_gpus_sample = parse(&t, 1, 1);
        assert!(dgl_gpus_sample < dgl_sample / 2.0, "GPU sampling speedup");

        let tsota_extract = parse(&t, 2, 2);
        let cached_extract = parse(&t, 3, 2);
        assert!(cached_extract < tsota_extract / 1.5, "caching speedup");

        // Moving topology onto the GPU shrinks the cache ratio (the §3
        // contention): w/Both ratio << w/Caching ratio.
        let full_ratio = parse(&t, 3, 5);
        let both_ratio = parse(&t, 5, 5);
        assert!(
            both_ratio < full_ratio / 2.0,
            "both {both_ratio}% vs caching-only {full_ratio}%"
        );

        // Train column is optimization-invariant.
        let trains: Vec<f64> = (0..6).map(|r| parse(&t, r, 3)).collect();
        let (min, max) = trains
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(max / min < 1.2, "train varies: {trains:?}");
    }
}
