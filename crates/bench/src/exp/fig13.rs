//! Fig. 13: end-to-end epoch time under different caching policies inside
//! GNNLab (same setup as Fig. 12, whole-epoch view).
//!
//! The improvement is large for compute-light models (GCN/GraphSAGE) and
//! limited for PinSAGE, whose Train stage dominates.

use crate::{ExpConfig, Table};

/// Regenerates Fig. 13 (epoch time, seconds): the second reading of
/// [`super::fig12::tables`]'s sweep.
pub fn run(cfg: &ExpConfig) -> Table {
    let [_, epoch] = super::fig12::tables(cfg);
    epoch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::fig12::gnnlab_with_policy as run_policy;
    use crate::exp::Recorded;
    use gnnlab_cache::PolicyKind;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    #[test]
    fn presc_end_to_end_never_loses_and_helps_light_models() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        // GraphSAGE on PA: compute-light, PreSC should clearly win vs Random.
        let mut w = Recorded::generate(ModelKind::GraphSage, DatasetKind::Papers, &cfg);
        let random = run_policy(&mut w, PolicyKind::Random).unwrap();
        let presc = run_policy(&mut w, PolicyKind::PreSC { k: 1 }).unwrap();
        assert!(
            presc.epoch_time < random.epoch_time,
            "presc {} random {}",
            presc.epoch_time,
            random.epoch_time
        );

        // PinSAGE on PA: train-dominated, improvement is limited (paper:
        // 1-40 %) — PreSC is not *worse*, but the gap narrows.
        let mut w = Recorded::generate(ModelKind::PinSage, DatasetKind::Papers, &cfg);
        let random = run_policy(&mut w, PolicyKind::Random).unwrap();
        let presc = run_policy(&mut w, PolicyKind::PreSC { k: 1 }).unwrap();
        assert!(presc.epoch_time <= random.epoch_time * 1.02);
    }
}
