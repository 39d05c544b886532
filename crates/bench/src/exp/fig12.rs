//! Figs. 12 and 13: Extract-stage and end-to-end epoch time under
//! different caching policies inside GNNLab (Degree, Random, PreSC#1), for
//! four workloads × {TW, PA, UK}.
//!
//! PR is omitted, as in the paper, because all of its features fit in GPU
//! memory (every policy caches everything). The end-to-end improvement is
//! large for compute-light models (GCN/GraphSAGE) and limited for PinSAGE,
//! whose Train stage dominates.

use crate::exp::{dataset, workload_on};
use crate::table::{cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::report::{EpochReport, RunError};
use gnnlab_core::runtime::{run_system_on, EpochStore};
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
    w: &EpochStore<'_>,
    policy: PolicyKind,
) -> Result<EpochReport, RunError> {
    let (ctx, epoch) = w.cell(SystemKind::GnnLab, 8);
    run_system_on(&ctx.with_policy(policy), &epoch)
}

/// Figs. 12 and 13 are two readings of one sweep — the four workload
/// columns (GCN, GraphSAGE, PinSAGE, GCN-weighted) on three datasets under
/// each policy: `[Fig. 12 (Extract time), Fig. 13 (epoch time)]`.
pub fn tables(cfg: &ExpConfig) -> Vec<Table> {
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
            let w = EpochStore::new(workload);
            let label = format!("{name}/{}", ds.abbrev());
            let (mut extract_row, mut epoch_row) = (vec![label.clone()], vec![label]);
            for policy in POLICIES {
                let rep = gnnlab_with_policy(&w, policy);
                extract_row.push(cell(&rep, |r| secs(r.stages.extract)));
                epoch_row.push(cell(&rep, |r| secs(r.epoch_time)));
            }
            extract.row(extract_row);
            epoch.row(epoch_row);
        }
    }
    vec![extract, epoch]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::generate;
    use gnnlab_graph::Scale;

    #[test]
    fn presc_extract_is_fastest_on_papers() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        let w = generate(ModelKind::Gcn, DatasetKind::Papers, &cfg);
        let degree = gnnlab_with_policy(&w, PolicyKind::Degree).unwrap();
        let random = gnnlab_with_policy(&w, PolicyKind::Random).unwrap();
        let presc = gnnlab_with_policy(&w, PolicyKind::PreSC { k: 1 }).unwrap();
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

    #[test]
    fn presc_end_to_end_never_loses_and_helps_light_models() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        // GraphSAGE on PA: compute-light, PreSC should clearly win vs Random.
        let w = generate(ModelKind::GraphSage, DatasetKind::Papers, &cfg);
        let random = gnnlab_with_policy(&w, PolicyKind::Random).unwrap();
        let presc = gnnlab_with_policy(&w, PolicyKind::PreSC { k: 1 }).unwrap();
        assert!(
            presc.epoch_time < random.epoch_time,
            "presc {} random {}",
            presc.epoch_time,
            random.epoch_time
        );

        // PinSAGE on PA: train-dominated, improvement is limited (paper:
        // 1-40 %) — PreSC is not *worse*, but the gap narrows.
        let w = generate(ModelKind::PinSage, DatasetKind::Papers, &cfg);
        let random = gnnlab_with_policy(&w, PolicyKind::Random).unwrap();
        let presc = gnnlab_with_policy(&w, PolicyKind::PreSC { k: 1 }).unwrap();
        assert!(presc.epoch_time <= random.epoch_time * 1.02);
    }
}
