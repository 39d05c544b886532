//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§2, §3, §6, §7, §8).
//!
//! Each submodule of [`exp`] owns one table/figure; [`exp::EXPERIMENTS`]
//! is the one list of them — names, groups, runners, in print order. The
//! `experiments` binary runs any subset of it and prints the same
//! rows/series the paper reports; `EXPERIMENTS.md` records
//! paper-vs-measured.
//!
//! Scale: experiments default to 1/1024 of the paper's data sizes (see
//! `gnnlab_graph::Scale`); set `GNNLAB_SCALE` to e.g. `256` for higher
//! statistical fidelity at more runtime. All *times* are reported at paper
//! scale regardless (the cost model scales quantities back up).

pub mod exp;
pub mod table;

pub use table::Table;

use gnnlab_graph::Scale;
use gnnlab_obs::Obs;
use std::sync::Arc;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Optional observability hub: when set, experiments record spans and
    /// metrics into it (one [`Obs::begin_run`] sub-run per table/system so
    /// the Chrome trace keeps invocations apart).
    pub obs: Option<Arc<Obs>>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: scale_from_env(),
            seed: 42,
            obs: None,
        }
    }
}

impl ExpConfig {
    /// Attaches an observability hub (builder style).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached hub as a borrowed option, the shape
    /// [`gnnlab_core::runtime::SimContext::with_obs`] expects.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Opens a labelled sub-run on the attached hub, if any.
    pub fn begin_run(&self, label: &str) {
        if let Some(obs) = &self.obs {
            obs.begin_run(label);
        }
    }
}

/// Reads `GNNLAB_SCALE` (a divisor, e.g. `256`) or defaults to 1024.
///
/// Divisors below 16 would instantiate near-paper-size datasets (tens of
/// gigabytes); they are rejected with a warning rather than silently
/// melting the machine.
pub fn scale_from_env() -> Scale {
    match std::env::var("GNNLAB_SCALE") {
        Ok(v) => match v.parse::<u64>() {
            Ok(f) if f >= 16 => Scale::new(f),
            _ => {
                eprintln!("GNNLAB_SCALE='{v}' is not an integer >= 16; using the default 1024");
                Scale::new(1024)
            }
        },
        Err(_) => Scale::new(1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_has_scale() {
        let c = ExpConfig::default();
        assert!(c.scale.factor() >= 1);
        assert_eq!(c.seed, 42);
    }
}
