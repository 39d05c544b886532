//! GPU-based feature caching — the general scheme and its policies (§6).
//!
//! The paper factors every static feature-caching strategy into two
//! parameters: a **hotness metric** `h_v` (how often vertex `v` is expected
//! to be sampled) and a **cache ratio** `α` (what fraction of vertices fit
//! in GPU memory). [`load_cache`] materializes the top-`α|V|` vertices by
//! hotness into a [`CacheTable`], and a smaller cache over the same map is
//! that table's [`CacheTable::prefix`], cut without ranking again;
//! [`policy`] provides the four hotness metrics evaluated in the paper:
//!
//! - `Random` — a random permutation (baseline),
//! - `Degree` — vertex out-degree (PaGraph),
//! - `PreSC#K` — average visit count over K pre-sampling epochs (GNNLab's
//!   contribution),
//! - `Optimal` — the oracle: actual visit counts of the measured run.
//!
//! [`metrics`] computes hit rates and transferred bytes, the quantities in
//! Figs. 4, 5, 10, 11, 12.

pub mod metrics;
pub mod policy;
pub mod store;
pub mod table;

pub use metrics::{AtomicCacheStats, CacheStats};
pub use policy::{CachePolicy, PolicyKind};
pub use store::{CacheFill, CachedFeatureStore};
pub use table::{cache_rows, load_cache, load_cache_topk, CacheTable};
