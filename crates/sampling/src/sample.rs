//! The sample artifact: per-layer blocks with deduplicated local ids.

use gnnlab_graph::{Csr, VertexId};

/// Exact work counters accumulated while producing a sample.
///
/// These are the quantities the cost model (`gnnlab-sim`) converts into
/// simulated device time; they are *measured*, not estimated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleWork {
    /// Neighbor-list elements read (memory traffic proxy).
    pub edges_scanned: u64,
    /// Random numbers drawn (the Reservoir-vs-Fisher–Yates gap, §7.3).
    pub rng_draws: u64,
    /// Total neighbor selections, including duplicates.
    pub sampled_vertices: u64,
    /// Device kernel launches (per hop per batch; random walks launch more,
    /// which is why DGL's Python-call overhead hurts PinSAGE most, §7.3).
    pub kernel_launches: u64,
}

impl SampleWork {
    /// Accumulates another work record into this one.
    pub fn add(&mut self, other: &SampleWork) {
        self.edges_scanned += other.edges_scanned;
        self.rng_draws += other.rng_draws;
        self.sampled_vertices += other.sampled_vertices;
        self.kernel_launches += other.kernel_launches;
    }
}

/// One message-flow block: the bipartite graph feeding one GNN layer.
///
/// Follows the DGL MFG convention: `src_globals` lists the global ids of
/// all input vertices of this layer, with the `dst_count` *output* vertices
/// first — so a dst vertex's local id is valid in both src and dst space.
/// `edges` are `(src_local, dst_local)` pairs; every dst also has an
/// implicit self-connection (included explicitly as an edge).
#[derive(Debug, Clone)]
pub struct LayerBlock {
    /// Global vertex ids of the layer inputs; the first `dst_count` entries
    /// are the layer outputs.
    pub src_globals: Vec<VertexId>,
    /// Number of output vertices.
    pub dst_count: usize,
    /// Edges as `(src_local, dst_local)` with `src_local <
    /// src_globals.len()` and `dst_local < dst_count`.
    pub edges: Vec<(u32, u32)>,
}

impl LayerBlock {
    /// Number of input vertices.
    pub fn src_count(&self) -> usize {
        self.src_globals.len()
    }

    /// Asserts internal consistency; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.dst_count > self.src_globals.len() {
            return Err(format!(
                "dst_count {} exceeds src count {}",
                self.dst_count,
                self.src_globals.len()
            ));
        }
        for &(s, d) in &self.edges {
            if s as usize >= self.src_globals.len() {
                return Err(format!("src_local {s} out of range"));
            }
            if d as usize >= self.dst_count {
                return Err(format!("dst_local {d} out of range"));
            }
        }
        Ok(())
    }
}

/// A mini-batch sample: seeds plus one block per GNN layer.
///
/// `blocks[0]` is the *innermost* block (largest frontier, consumed by GNN
/// layer 0); `blocks.last()` outputs exactly the seeds. Features must be
/// gathered for [`Sample::input_nodes`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// The training vertices this mini-batch started from.
    pub seeds: Vec<VertexId>,
    /// Per-layer blocks, innermost first.
    pub blocks: Vec<LayerBlock>,
    /// Every vertex selected during sampling, with multiplicity (pre-dedup);
    /// drives footprint recording and hotness estimation.
    pub visit_list: Vec<VertexId>,
    /// Exact work counters.
    pub work: SampleWork,
    /// Cache marks for `input_nodes`: `true` = feature present in GPU
    /// cache. Only the perf harness's replay writes it (its `cache.mark`
    /// step); the threaded Sampler runs no `M` step, and sampling resets
    /// it to `None`.
    pub cache_mask: Option<Vec<bool>>,
}

impl Default for Sample {
    /// An empty sample — the starting state for buffer-reusing fills via
    /// [`crate::SamplingAlgorithm::sample_into`].
    fn default() -> Self {
        Sample {
            seeds: Vec::new(),
            blocks: Vec::new(),
            visit_list: Vec::new(),
            work: SampleWork::default(),
            cache_mask: None,
        }
    }
}

impl Sample {
    /// Global ids of all distinct vertices whose features this sample
    /// needs — the src set of the innermost block.
    pub fn input_nodes(&self) -> &[VertexId] {
        self.blocks
            .first()
            .map(|b| b.src_globals.as_slice())
            .unwrap_or(&self.seeds)
    }

    /// Number of distinct feature rows needed.
    pub fn num_input_nodes(&self) -> usize {
        self.input_nodes().len()
    }

    /// Total edges across all blocks (training compute proxy).
    pub fn total_block_edges(&self) -> u64 {
        self.blocks.iter().map(|b| b.edges.len() as u64).sum()
    }

    /// Approximate serialized size in bytes — what crossing the host-memory
    /// global queue costs (paper §5.2: copying samples adds < 0.1 ms).
    pub fn queue_bytes(&self) -> u64 {
        let mut bytes = (self.seeds.len() * 4) as u64;
        for b in &self.blocks {
            bytes += (b.src_globals.len() * 4 + b.edges.len() * 8) as u64;
        }
        if self.cache_mask.is_some() {
            bytes += self.num_input_nodes() as u64;
        }
        bytes
    }

    /// Validates all blocks and the layer chaining invariant: each block's
    /// dst set equals the next block's src set prefix.
    pub fn validate(&self) -> Result<(), String> {
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {i}: {e}"))?;
        }
        for w in self.blocks.windows(2) {
            let (inner, outer) = (&w[0], &w[1]);
            if inner.dst_count != outer.src_count() {
                return Err(format!(
                    "layer chaining broken: inner dst {} != outer src {}",
                    inner.dst_count,
                    outer.src_count()
                ));
            }
            if inner.src_globals[..inner.dst_count] != outer.src_globals[..] {
                return Err("layer chaining broken: id mismatch".to_string());
            }
        }
        if let Some(last) = self.blocks.last() {
            // Neighborhood samplers output exactly the seeds; subgraph
            // samplers output the whole subgraph with the seeds as the
            // prefix (the supervised rows).
            if last.dst_count < self.seeds.len()
                || last.src_globals[..self.seeds.len()] != self.seeds[..]
            {
                return Err("outermost block must output the seeds first".to_string());
            }
        }
        if let Some(mask) = &self.cache_mask {
            if mask.len() != self.num_input_nodes() {
                return Err("cache mask length mismatch".to_string());
            }
        }
        Ok(())
    }
}

/// Finalizer-style 32-bit mixer (murmur3) for [`ProbeSet`].
#[inline]
fn mix32(x: u32) -> u32 {
    let mut h = x;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// A reusable direct-indexed `u32 → u32` map over the keys
/// `0..universe`: key `k` lives in slot `k`, stamped with the generation
/// that wrote it. A lookup is one load, with no hash and no probe chain.
///
/// Sized by the graph (one 8-byte slot per vertex, as much as the CSR's
/// `indptr`), not by the insertions: the third hop of a 3-hop batch
/// makes ~100 k inserts of at most `num_vertices` distinct keys, so a
/// hash table sized for the inserts is both larger than the key set and
/// out of cache. `reset` is O(1) (a generation bump), so the per-hop
/// remap of [`SampleBuffers::finish_hop`] and the random walk's
/// per-vertex visit counter allocate only when a bigger graph arrives.
#[derive(Debug, Clone, Default)]
pub struct RemapTable {
    /// `(stamp, value)` per key; any stamp but `generation` means absent.
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl RemapTable {
    /// An empty table; [`RemapTable::reserve`] makes room for keys.
    pub fn new() -> Self {
        RemapTable::default()
    }

    /// Makes every key below `universe` insertable. The slots grow when a
    /// bigger universe arrives and are kept when a smaller one follows;
    /// the contents do not change.
    pub fn reserve(&mut self, universe: usize) {
        if self.slots.len() < universe {
            self.slots.resize(universe, (0, 0));
        }
    }

    /// Empties the table in O(1), without touching the slots.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: old entries would look live again.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    /// Empties the table as [`RemapTable::reset`] does and moves the stamp
    /// to the last generation before the wrap, so the next `reset` takes
    /// the refill path. Lets a test reach the wrap without 2³² resets.
    #[doc(hidden)]
    pub fn skip_to_last_generation(&mut self) {
        if self.generation == u32::MAX {
            self.reset();
        }
        // Every stamp is at most the current generation, so none equals
        // the new one.
        self.generation = u32::MAX;
    }

    /// Inserts `key → val` unless `key` is present; returns the existing
    /// value if it was.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not below the universe [`RemapTable::reserve`]
    /// made room for.
    #[inline]
    pub fn insert_if_absent(&mut self, key: u32, val: u32) -> Option<u32> {
        debug_assert!(self.generation != 0, "reset before insert");
        let slot = &mut self.slots[key as usize];
        if slot.0 == self.generation {
            return Some(slot.1);
        }
        *slot = (self.generation, val);
        None
    }
}

/// A reusable open-addressing `u32` set with generation stamps, used by
/// the Fisher–Yates kernel's duplicate probe at large fan-outs.
#[derive(Debug, Clone, Default)]
pub struct ProbeSet {
    keys: Vec<u32>,
    stamps: Vec<u32>,
    generation: u32,
    mask: usize,
}

impl ProbeSet {
    /// An empty set; storage grows on first [`ProbeSet::reset`].
    pub fn new() -> Self {
        ProbeSet::default()
    }

    /// Prepares the set for up to `items` members, clearing in O(1).
    pub fn reset(&mut self, items: usize) {
        let needed = (items.max(1) * 2).next_power_of_two();
        if self.keys.len() < needed {
            self.keys = vec![0; needed];
            self.stamps = vec![0; needed];
            self.generation = 0;
            self.mask = needed - 1;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Inserts `key`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, key: u32) -> bool {
        debug_assert!(!self.keys.is_empty(), "reset before insert");
        let mut slot = mix32(key) as usize & self.mask;
        loop {
            if self.stamps[slot] != self.generation {
                self.stamps[slot] = self.generation;
                self.keys[slot] = key;
                return true;
            }
            if self.keys[slot] == key {
                return false;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// Reusable scratch for allocation-free sampling: hop-local intermediates
/// (selection list, per-dst ranges, the running frontier), the
/// direct-indexed remap table, the Fisher–Yates probe scratch and the
/// random walk's ranking. One instance per sampler thread; thread it through
/// [`crate::SamplingAlgorithm::sample_with`] /
/// [`crate::SamplingAlgorithm::sample_into`] and per-batch allocations
/// disappear after the first call.
#[derive(Debug, Default)]
pub struct SampleBuffers {
    pub(crate) selected: Vec<VertexId>,
    pub(crate) ranges: Vec<(usize, usize)>,
    pub(crate) frontier: Vec<VertexId>,
    /// A hop's vertex → local id in [`SampleBuffers::finish_hop`]; while a
    /// random walk selects, visited vertex → its index in `ranked`. The
    /// two uses never overlap: a hop's selections all finish before its
    /// remap starts.
    pub(crate) remap: RemapTable,
    /// Floyd's chosen indices in the per-vertex Fisher–Yates loop.
    pub(crate) scratch: Vec<u32>,
    pub(crate) probe: ProbeSet,
    /// A run of bounded draws: the hop-wide Fisher–Yates' and the
    /// Reservoir's words, divisors and remainders.
    pub(crate) draws: crate::khop::Draws,
    /// Random walks: `(vertex, visit count)` for the vertex being walked.
    pub(crate) ranked: Vec<(VertexId, u32)>,
}

impl SampleBuffers {
    /// Empty buffers; capacity grows to the working-set size on first use.
    pub fn new() -> Self {
        SampleBuffers::default()
    }

    /// Resets `out` to an empty `layers`-block sample of `seeds`, keeping
    /// every vector's capacity, makes the seeds the first frontier of an
    /// empty selection list, and sizes the remap table to `csr`'s
    /// vertices.
    pub(crate) fn begin(&mut self, csr: &Csr, seeds: &[VertexId], layers: usize, out: &mut Sample) {
        out.work = SampleWork::default();
        out.cache_mask = None;
        out.seeds.clear();
        out.seeds.extend_from_slice(seeds);
        out.visit_list.clear();
        out.visit_list.extend_from_slice(seeds);
        out.blocks.resize_with(layers, || LayerBlock {
            src_globals: Vec::new(),
            dst_count: 0,
            edges: Vec::new(),
        });
        self.frontier.clear();
        self.frontier.extend_from_slice(seeds);
        self.selected.clear();
        self.ranges.clear();
        self.remap.reserve(csr.num_vertices());
    }

    /// Closes a hop whose frontier vertex `i` selected
    /// `selected[ranges[i]]`: records the visits, writes the hop's block —
    /// the paper's "deduplicated and reassigned with consecutive IDs
    /// (starting from 0)" step (Fig. 1) — and makes the block's inputs the
    /// next frontier. The (duplicate-free) frontier takes local ids
    /// `0..dst_count`; every other vertex takes the next id where the
    /// selection list first names it, in the same probe that emits its
    /// `(src_local, dst_local)` edge. Every dst also gets an explicit
    /// self-connection, so an isolated one still aggregates itself. The
    /// selection list is left empty for the next hop.
    pub(crate) fn finish_hop(&mut self, block: &mut LayerBlock, visit_list: &mut Vec<VertexId>) {
        visit_list.extend_from_slice(&self.selected);
        self.remap.reset();
        block.src_globals.clear();
        block.src_globals.extend_from_slice(&self.frontier);
        for (local, &v) in self.frontier.iter().enumerate() {
            let prev = self.remap.insert_if_absent(v, local as u32);
            debug_assert!(prev.is_none(), "the frontier is duplicate-free");
        }
        block.dst_count = self.frontier.len();
        block.edges.clear();
        // Exact: one self-connection per dst and one edge per selection.
        block.edges.reserve(self.ranges.len() + self.selected.len());
        for (dst, &(start, end)) in self.ranges.iter().enumerate() {
            let dst = dst as u32;
            block.edges.push((dst, dst));
            for &nbr in &self.selected[start..end] {
                let next = block.src_globals.len() as u32;
                let local = self.remap.insert_if_absent(nbr, next).unwrap_or_else(|| {
                    block.src_globals.push(nbr);
                    next
                });
                block.edges.push((local, dst));
            }
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(&block.src_globals);
        self.selected.clear();
        self.ranges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One hop over `frontier` where vertex `i` selected `picks[i]`, on
    /// a 64-vertex graph (only its vertex count matters).
    fn hop(bufs: &mut SampleBuffers, frontier: &[VertexId], picks: &[&[VertexId]]) -> LayerBlock {
        let csr = gnnlab_graph::GraphBuilder::new(64).build().unwrap();
        let mut out = Sample::default();
        bufs.begin(&csr, frontier, 1, &mut out);
        for p in picks {
            let start = bufs.selected.len();
            bufs.selected.extend_from_slice(p);
            bufs.ranges.push((start, bufs.selected.len()));
        }
        let Sample {
            blocks, visit_list, ..
        } = &mut out;
        bufs.finish_hop(&mut blocks[0], visit_list);
        let picked: usize = picks.iter().map(|p| p.len()).sum();
        assert_eq!(out.visit_list.len(), frontier.len() + picked);
        out.blocks.remove(0)
    }

    #[test]
    fn finish_hop_numbers_dsts_first_then_first_appearance() {
        let mut bufs = SampleBuffers::new();
        let block = hop(&mut bufs, &[10, 20], &[&[30, 10, 30], &[40, 20, 50, 30]]);
        assert_eq!(block.src_globals, vec![10, 20, 30, 40, 50]);
        assert_eq!(block.dst_count, 2);
        assert_eq!(
            block.edges,
            vec![
                (0, 0),
                (2, 0),
                (0, 0),
                (2, 0),
                (1, 1),
                (3, 1),
                (1, 1),
                (4, 1),
                (2, 1)
            ]
        );
        assert_eq!(bufs.frontier, block.src_globals);
        // Reuse across hops: a second block sees none of the first's ids.
        let block = hop(&mut bufs, &[1], &[&[2, 1, 3, 10]]);
        assert_eq!(block.src_globals, vec![1, 2, 3, 10]);
        assert_eq!(block.edges, vec![(0, 0), (1, 0), (0, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn probe_set_tracks_membership_across_resets() {
        let mut p = ProbeSet::new();
        p.reset(4);
        assert!(p.insert(7));
        assert!(!p.insert(7));
        assert!(p.insert(1000));
        p.reset(4);
        assert!(p.insert(7), "reset must clear membership");
    }

    #[test]
    fn remap_table_survives_generation_wrap() {
        let mut rt = RemapTable::new();
        rt.reserve(8);
        rt.reset();
        assert_eq!(rt.insert_if_absent(5, 9), None);
        rt.skip_to_last_generation();
        rt.reset();
        assert_eq!(rt.generation, 1);
        assert_eq!(rt.insert_if_absent(5, 0), None, "wrap must clear");
        assert_eq!(rt.insert_if_absent(5, 7), Some(0));
    }

    #[test]
    fn block_validation_catches_bad_edges() {
        let ok = LayerBlock {
            src_globals: vec![1, 2, 3],
            dst_count: 1,
            edges: vec![(2, 0), (0, 0)],
        };
        assert!(ok.validate().is_ok());
        let bad_src = LayerBlock {
            src_globals: vec![1, 2],
            dst_count: 1,
            edges: vec![(5, 0)],
        };
        assert!(bad_src.validate().is_err());
        let bad_dst = LayerBlock {
            src_globals: vec![1, 2],
            dst_count: 1,
            edges: vec![(0, 1)],
        };
        assert!(bad_dst.validate().is_err());
        let bad_count = LayerBlock {
            src_globals: vec![1],
            dst_count: 2,
            edges: vec![],
        };
        assert!(bad_count.validate().is_err());
    }

    #[test]
    fn work_accumulates() {
        let mut a = SampleWork {
            edges_scanned: 1,
            rng_draws: 2,
            sampled_vertices: 3,
            kernel_launches: 4,
        };
        a.add(&a.clone());
        assert_eq!(a.edges_scanned, 2);
        assert_eq!(a.kernel_launches, 8);
    }

    #[test]
    fn queue_bytes_counts_blocks() {
        let s = Sample {
            seeds: vec![0, 1],
            blocks: vec![LayerBlock {
                src_globals: vec![0, 1, 2],
                dst_count: 2,
                edges: vec![(2, 0)],
            }],
            visit_list: vec![],
            work: SampleWork::default(),
            cache_mask: None,
        };
        assert_eq!(s.queue_bytes(), 8 + 12 + 8);
        assert_eq!(s.num_input_nodes(), 3);
    }
}
