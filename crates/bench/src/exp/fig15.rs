//! Fig. 15: runtime breakdown of GNNLab for GCN on PA as the Sampler (m)
//! and Trainer (n) counts vary — shows where the epoch-time floor is and
//! that flexible scheduling picks the optimum.

use crate::exp::generate;
use crate::table::secs;
use crate::{ExpConfig, Table};
use gnnlab_core::runtime::{run_factored_epoch, run_system_on};
use gnnlab_core::SystemKind;
use gnnlab_graph::DatasetKind;
use gnnlab_tensor::ModelKind;

/// Regenerates Fig. 15: epoch time for every (mS, nT), m ∈ 1..=3,
/// m+n ≤ 8, plus the allocation the rule of §5.3 picks.
pub fn run(cfg: &ExpConfig) -> Table {
    let w = generate(ModelKind::Gcn, DatasetKind::Papers, cfg);
    let (ctx, epoch) = w.cell(SystemKind::GnnLab, 8);
    let mut table = Table::new(
        "Fig. 15: GNNLab epoch time (s), GCN on PA, by (mS, nT)",
        &["Config", "Sample S", "Extract E", "Train T", "Epoch"],
    );
    for m in 1..=3usize {
        for n in 1..=(8 - m) {
            let rep = run_factored_epoch(&ctx, &epoch, m, n, false).expect("PA fits");
            table.row(vec![
                format!("{m}S{n}T"),
                secs(rep.stages.sample_total()),
                secs(rep.stages.extract),
                secs(rep.stages.train),
                secs(rep.epoch_time),
            ]);
        }
    }
    // The engine's own choice on the full machine.
    let ns = run_system_on(&ctx, &epoch).expect("PA fits").num_samplers;
    table.row(vec![
        format!("rule picks {ns}S{}T", 8 - ns),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn flexible_scheduling_is_near_optimal() {
        let t = run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        });
        // Parse all (config, epoch) pairs; find the global best for m+n=8
        // and compare with the rule's choice.
        let mut best: Option<(String, f64)> = None;
        let mut by_config = std::collections::HashMap::new();
        for row in &t.rows {
            if row[0].starts_with("rule") {
                continue;
            }
            let epoch: f64 = row[4].parse().unwrap();
            by_config.insert(row[0].clone(), epoch);
            // Full-machine configs only.
            let m: usize = row[0][0..1].parse().unwrap();
            let n: usize = row[0][2..3].parse().unwrap();
            if m + n == 8 && best.as_ref().is_none_or(|b| epoch < b.1) {
                best = Some((row[0].clone(), epoch));
            }
        }
        let (best_cfg, best_time) = best.unwrap();
        let rule_row = t.rows.iter().find(|r| r[0].starts_with("rule")).unwrap();
        let ns: usize = rule_row[0]
            .split(' ')
            .nth(2)
            .unwrap()
            .chars()
            .next()
            .unwrap()
            .to_digit(10)
            .unwrap() as usize;
        let rule_cfg = format!("{ns}S{}T", 8 - ns);
        let rule_time = by_config.get(&rule_cfg).copied().unwrap_or(f64::INFINITY);
        assert!(
            rule_time <= best_time * 1.25,
            "rule {rule_cfg} = {rule_time}s vs best {best_cfg} = {best_time}s"
        );
    }

    #[test]
    fn epoch_time_decreases_with_trainers_at_fixed_samplers() {
        let t = run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        });
        let epoch = |cfg: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == cfg).unwrap()[4]
                .parse()
                .unwrap()
        };
        assert!(epoch("2S6T") <= epoch("2S1T"));
        assert!(epoch("1S5T") <= epoch("1S1T"));
    }
}
