//! Fig. 12: Extract-stage time under different caching policies inside
//! GNNLab (Degree, Random, PreSC#1), for four workloads × {TW, PA, UK}.
//!
//! PR is omitted, as in the paper, because all of its features fit in GPU
//! memory (every policy caches everything).

use crate::exp::{dataset, workload_on, Recorded};
use crate::table::{cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::report::{EpochReport, RunError};
use gnnlab_core::runtime::run_system_on;
use gnnlab_core::SystemKind;
use gnnlab_graph::DatasetKind;
use gnnlab_sampling::AlgorithmKind;
use gnnlab_tensor::ModelKind;

/// The three policies compared in Figs. 12/13.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Degree,
    PolicyKind::Random,
    PolicyKind::PreSC { k: 1 },
];

/// Runs GNNLab (8 GPUs, allocation from profiling) with an explicit
/// caching policy.
pub(crate) fn gnnlab_with_policy(
    w: &mut Recorded,
    policy: PolicyKind,
) -> Result<EpochReport, RunError> {
    let (ctx, trace) = w.cell(SystemKind::GnnLab, 8);
    run_system_on(&ctx.with_policy(policy), trace)
}

/// Figs. 12 and 13 are two readings of one sweep — the four workload
/// columns (GCN, GraphSAGE, PinSAGE, GCN-weighted) on three datasets under
/// each policy: `[Fig. 12 (Extract time), Fig. 13 (epoch time)]`.
pub fn tables(cfg: &ExpConfig) -> [Table; 2] {
    let headers = ["Workload", "Degree", "Random", "PreSC#1"];
    let mut extract = Table::new(
        "Fig. 12: Extract time (s/epoch) in GNNLab by caching policy",
        &headers,
    );
    let mut epoch = Table::new(
        "Fig. 13: end-to-end epoch time (s) in GNNLab by caching policy",
        &headers,
    );
    for ds in [DatasetKind::Twitter, DatasetKind::Papers, DatasetKind::Uk] {
        let dataset = dataset(ds, cfg);
        let on = |model| workload_on(model, dataset.clone(), cfg);
        let columns = [
            ("GCN", on(ModelKind::Gcn)),
            ("GSG", on(ModelKind::GraphSage)),
            ("PSG", on(ModelKind::PinSage)),
            (
                "GCN(W.)",
                on(ModelKind::Gcn).with_algorithm(AlgorithmKind::Khop3Weighted),
            ),
        ];
        for (name, workload) in columns {
            let mut w = Recorded::new(workload);
            let label = format!("{name}/{}", ds.abbrev());
            let (mut extract_row, mut epoch_row) = (vec![label.clone()], vec![label]);
            for policy in POLICIES {
                let rep = gnnlab_with_policy(&mut w, policy);
                extract_row.push(cell(&rep, |r| secs(r.stages.extract)));
                epoch_row.push(cell(&rep, |r| secs(r.epoch_time)));
            }
            extract.row(extract_row);
            epoch.row(epoch_row);
        }
    }
    [extract, epoch]
}

/// Regenerates Fig. 12 (Extract time per epoch, seconds).
pub fn run(cfg: &ExpConfig) -> Table {
    let [extract, _] = tables(cfg);
    extract
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn presc_extract_is_fastest_on_papers() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        let mut w = Recorded::generate(ModelKind::Gcn, DatasetKind::Papers, &cfg);
        let degree = gnnlab_with_policy(&mut w, PolicyKind::Degree).unwrap();
        let random = gnnlab_with_policy(&mut w, PolicyKind::Random).unwrap();
        let presc = gnnlab_with_policy(&mut w, PolicyKind::PreSC { k: 1 }).unwrap();
        assert!(
            presc.stages.extract < degree.stages.extract,
            "presc {} degree {}",
            presc.stages.extract,
            degree.stages.extract
        );
        assert!(
            presc.stages.extract < random.stages.extract,
            "presc {} random {}",
            presc.stages.extract,
            random.stages.extract
        );
    }
}
