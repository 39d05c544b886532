//! Table 2: similarity of the access footprint between two epochs, for
//! three sampling algorithms × four datasets.
//!
//! The observation PreSC rests on: the top-10 % most-sampled vertices
//! overlap heavily between epochs (paper: 64–91 %).

use crate::exp::{datasets, workload_on};
use crate::table::pct;
use crate::{ExpConfig, Table};
use gnnlab_core::Workload;
use gnnlab_sampling::{AlgorithmKind, FootprintRecorder, Kernel, MinibatchIter};
use gnnlab_tensor::ModelKind;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Records the visit counts of one sampling epoch.
fn epoch_footprint(w: &Workload, epoch: u64) -> Vec<u64> {
    let algo = w.sampler(Kernel::FisherYates);
    let mut rec = FootprintRecorder::new(w.dataset.csr.num_vertices());
    let mut rng = ChaCha8Rng::seed_from_u64(w.seed ^ (epoch << 32));
    for seeds in MinibatchIter::new(&w.dataset.train_set, w.batch_size().max(1), w.seed, epoch) {
        let s = algo.sample(&w.dataset.csr, &seeds, &mut rng);
        rec.record_sample(&s);
    }
    rec.end_epoch();
    rec.counts().to_vec()
}

/// Regenerates Table 2: similarity of epoch 0's footprint to epoch 1's.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Table 2: top-10% footprint similarity between two epochs",
        &["Sampling algorithm", "PR", "TW", "PA", "UK"],
    );
    let datasets = datasets(cfg);
    for algo in AlgorithmKind::TABLE2 {
        let mut row = vec![algo.label().to_string()];
        for dataset in &datasets {
            let w = workload_on(ModelKind::Gcn, dataset.clone(), cfg).with_algorithm(algo);
            let f0 = epoch_footprint(&w, 0);
            let f1 = epoch_footprint(&w, 1);
            let sim = gnnlab_sampling::footprint_similarity(&f0, &f1, 0.10);
            row.push(pct(sim));
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn footprints_overlap_heavily_across_epochs() {
        let t = run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        });
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                // Paper range: 64-91 %. Allow a wide but meaningful band.
                assert!(v > 40.0, "similarity too low: {row:?}");
                assert!(v <= 100.0);
            }
        }
    }
}
