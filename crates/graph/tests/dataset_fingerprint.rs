//! Bit-level pin on everything this crate generates.
//!
//! Generation is a pure function of its parameters: `(kind, scale, seed)`
//! for a [`Dataset`], the arguments for a bare generator. Each row below
//! hashes (FNV-1a, 64-bit) `indptr`, `indices`, the bits of every edge
//! weight and — for a dataset — the training set; SBM rows add the feature
//! bits and the labels. The rendered `label hash` table must equal
//! [`GOLDEN`], which was captured on the sort-based `GraphBuilder::build`
//! and the binary-search `WeightedIndex` before either was rewritten and
//! is never edited afterwards: a mismatch means a generator draws, places
//! or orders something differently. Must hold under `cargo test` and
//! `cargo test --release` alike.

use gnnlab_graph::gen::{self, SbmParams};
use gnnlab_graph::io::{read_edge_list, write_edge_list};
use gnnlab_graph::{Csr, Dataset, DatasetKind, GraphBuilder, Scale, VertexId};
use std::fmt::Write;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[VertexId]) {
        self.u64(ids.len() as u64);
        for &v in ids {
            self.u64(u64::from(v));
        }
    }

    /// `indptr` (rebuilt from the degrees), `indices`, then the weight
    /// bits behind a weighted flag.
    fn csr(&mut self, g: &Csr) {
        let n = g.num_vertices() as VertexId;
        self.u64(u64::from(n));
        let mut offset = 0u64;
        self.u64(offset);
        for v in 0..n {
            offset += g.out_degree(v) as u64;
            self.u64(offset);
        }
        self.u64(g.num_edges() as u64);
        for v in 0..n {
            for &d in g.neighbors(v) {
                self.u64(u64::from(d));
            }
        }
        self.u64(u64::from(g.is_weighted()));
        for v in 0..n {
            for w in g.edge_weights(v).unwrap_or(&[]) {
                self.u64(u64::from(w.to_bits()));
            }
        }
    }
}

fn csr_hash(g: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.csr(g);
    h.0
}

fn dataset_hash(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.csr(&d.csr);
    h.ids(&d.train_set);
    h.0
}

fn row(table: &mut String, label: &str, hash: u64) {
    writeln!(table, "{label} {hash:016x}").expect("writing to a String");
}

fn pin_datasets(table: &mut String) {
    for kind in DatasetKind::ALL {
        for scale in [4096, 8192, 32_768] {
            for seed in [1, 42] {
                let label = format!("{} scale={scale} seed={seed}", kind.abbrev());
                let plain = Dataset::generate(kind, Scale::new(scale), seed).expect("generates");
                row(table, &format!("{label} generate"), dataset_hash(&plain));
                let weighted =
                    Dataset::generate_weighted(kind, Scale::new(scale), seed).expect("generates");
                row(
                    table,
                    &format!("{label} generate_weighted"),
                    dataset_hash(&weighted),
                );
            }
        }
    }
}

fn pin_generators(table: &mut String) {
    let g = gen::chung_lu(3000, 60_000, 1.9, 7).expect("valid parameters");
    row(table, "chung_lu 3000 60000 1.9 seed=7", csr_hash(&g));
    let g = gen::chung_lu(1, 10, 2.0, 3).expect("valid parameters");
    row(table, "chung_lu 1 10 2.0 seed=3", csr_hash(&g));
    let g = gen::citation(4000, 80_000, 5).expect("valid parameters");
    row(table, "citation 4000 80000 seed=5", csr_hash(&g));
    let g = gen::rmat(12, 40_000, (0.57, 0.19, 0.19, 0.05), 1).expect("valid parameters");
    row(table, "rmat 12 40000 g500 seed=1", csr_hash(&g));
    let g = gen::uniform(2000, 30_000, 9).expect("valid parameters");
    row(table, "uniform 2000 30000 seed=9", csr_hash(&g));
    let g = gen::recency_weights(g, 11).expect("weights fit the graph");
    row(table, "uniform 2000 30000 seed=9 recency=11", csr_hash(&g));
    let g = gen::uniform_weights(gen::uniform(500, 4000, 2).expect("valid parameters"))
        .expect("weights fit the graph");
    row(
        table,
        "uniform 500 4000 seed=2 uniform_weights",
        csr_hash(&g),
    );
}

/// The three graphs the perf harness's threaded workloads train on
/// (`train_bound`, `sample_bound`, `handoff_bound`).
fn pin_sbm(table: &mut String) {
    for (classes, avg_degree, feat_dim) in [(8, 15.0, 64), (8, 30.0, 8), (4, 6.0, 8)] {
        for seed in [7, 42] {
            let g = gen::sbm(&SbmParams {
                num_vertices: 20_000,
                num_classes: classes,
                avg_degree,
                intra_prob: 0.85,
                feat_dim,
                noise: 0.6,
                seed,
            })
            .expect("valid parameters");
            let mut h = Fnv::new();
            h.csr(&g.csr);
            h.u64(g.feat_dim as u64);
            h.u64(g.features.len() as u64);
            for x in &g.features {
                h.u64(u64::from(x.to_bits()));
            }
            h.u64(g.num_classes as u64);
            h.ids(&g.labels);
            row(
                table,
                &format!(
                    "sbm 20000 classes={classes} deg={avg_degree} feat={feat_dim} seed={seed}"
                ),
                h.0,
            );
        }
    }
}

/// A weighted graph with parallel edges and a self-loop, small enough to
/// read: parallel edges keep the order they were added in.
fn parallel_edge_graph() -> Csr {
    let mut b = GraphBuilder::new(5);
    for &(s, d, w) in &[
        (3, 1, 0.5),
        (0, 2, 4.0),
        (0, 1, 3.0),
        (0, 2, 1.0),
        (3, 1, 0.25),
        (2, 2, 9.0),
        (0, 2, 2.0),
        (3, 0, 7.5),
        (3, 1, 8.0),
    ] {
        b.add_weighted_edge(s, d, w);
    }
    b.build().expect("ids in range")
}

fn pin_edge_list_round_trip(table: &mut String) {
    let g = parallel_edge_graph();
    assert_eq!(g.neighbors(0), &[1, 2, 2, 2]);
    assert_eq!(g.edge_weights(0), Some(&[3.0, 4.0, 1.0, 2.0][..]));
    assert_eq!(g.neighbors(2), &[2]);
    assert_eq!(g.neighbors(3), &[0, 1, 1, 1]);
    assert_eq!(g.edge_weights(3), Some(&[7.5, 0.5, 0.25, 8.0][..]));
    row(table, "parallel-edge graph built", csr_hash(&g));
    let path = std::env::temp_dir().join(format!(
        "gnnlab_dataset_fingerprint_{}.txt",
        std::process::id()
    ));
    write_edge_list(&g, &path).expect("temp dir is writable");
    let back = read_edge_list(&path, Some(5)).expect("reads what was written");
    std::fs::remove_file(&path).ok();
    row(table, "parallel-edge graph round trip", csr_hash(&back));
}

#[test]
fn every_generated_graph_matches_its_captured_hash() {
    let mut table = String::new();
    pin_datasets(&mut table);
    pin_generators(&mut table);
    pin_sbm(&mut table);
    pin_edge_list_round_trip(&mut table);

    let diff: Vec<String> = table
        .lines()
        .zip(GOLDEN.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        diff.is_empty() && table.lines().count() == GOLDEN.lines().count(),
        "{} fingerprint row(s) moved:\n{}\n--- full table ---\n{table}",
        diff.len(),
        diff.join("\n")
    );
}

/// Captured at the parent of the counting-sort build; never edit.
const GOLDEN: &str = "\
PR scale=4096 seed=1 generate 4ed8931502d19ef1
PR scale=4096 seed=1 generate_weighted ff7f5c7e8319e0bd
PR scale=4096 seed=42 generate a92e56712502fc4c
PR scale=4096 seed=42 generate_weighted 33a0b9ac119b768e
PR scale=8192 seed=1 generate 3315139447fb2ee7
PR scale=8192 seed=1 generate_weighted c157a6d66ebd04f5
PR scale=8192 seed=42 generate 05cc7ea43f23cd76
PR scale=8192 seed=42 generate_weighted 271d896cdf7a6105
PR scale=32768 seed=1 generate 2579e31622b47d4f
PR scale=32768 seed=1 generate_weighted 466f2f35d5cc1ea9
PR scale=32768 seed=42 generate 05641f7548432ac9
PR scale=32768 seed=42 generate_weighted 8b30ec9d303b7c03
TW scale=4096 seed=1 generate 7f62219370f9014f
TW scale=4096 seed=1 generate_weighted f643e9fc432396b1
TW scale=4096 seed=42 generate e776e712c0a4bba3
TW scale=4096 seed=42 generate_weighted e45dd6cd971cf971
TW scale=8192 seed=1 generate fdcd37d264d5125f
TW scale=8192 seed=1 generate_weighted f45088416fddb5bc
TW scale=8192 seed=42 generate 3aefa34fe70d7a50
TW scale=8192 seed=42 generate_weighted cb9a3aa82a8dbf5f
TW scale=32768 seed=1 generate ce2066c6d43f2358
TW scale=32768 seed=1 generate_weighted b33d4259ebd30bb3
TW scale=32768 seed=42 generate 68a5f2f48b90740d
TW scale=32768 seed=42 generate_weighted dd226217f8784bd5
PA scale=4096 seed=1 generate e157a76876179d04
PA scale=4096 seed=1 generate_weighted 5c23f67ca2a26848
PA scale=4096 seed=42 generate 8ed75911c997e2ba
PA scale=4096 seed=42 generate_weighted 8c6f17aacd6ab03a
PA scale=8192 seed=1 generate 8efea8265030a212
PA scale=8192 seed=1 generate_weighted ef5710be60617cce
PA scale=8192 seed=42 generate 10ea3f40b4affa75
PA scale=8192 seed=42 generate_weighted 5a86b711df251b3b
PA scale=32768 seed=1 generate 392f782673d5959c
PA scale=32768 seed=1 generate_weighted ec74ea384f358033
PA scale=32768 seed=42 generate cd68717d84dd8d64
PA scale=32768 seed=42 generate_weighted db05c6be038f8c15
UK scale=4096 seed=1 generate a5ef2291b4d2f298
UK scale=4096 seed=1 generate_weighted fadf4a13916d384b
UK scale=4096 seed=42 generate 4ebc5472587686f7
UK scale=4096 seed=42 generate_weighted 7816da9000921d44
UK scale=8192 seed=1 generate 62ee308277179391
UK scale=8192 seed=1 generate_weighted 6e8ce83830606e23
UK scale=8192 seed=42 generate 310e3c641501d3d4
UK scale=8192 seed=42 generate_weighted 33f3e8388c8a8cf4
UK scale=32768 seed=1 generate fbc7787b4bf5a27d
UK scale=32768 seed=1 generate_weighted 8272a5d70dd1e101
UK scale=32768 seed=42 generate 0ffd04e1b0e6e3cb
UK scale=32768 seed=42 generate_weighted 500fb7a716b7d0c1
chung_lu 3000 60000 1.9 seed=7 eb0e95d37e150910
chung_lu 1 10 2.0 seed=3 a23a95427e23c1a4
citation 4000 80000 seed=5 e1a2d86cb0e200d1
rmat 12 40000 g500 seed=1 4311b630fc05ef8b
uniform 2000 30000 seed=9 34a37ab6fc921d19
uniform 2000 30000 seed=9 recency=11 b1a4799d09b9b7f1
uniform 500 4000 seed=2 uniform_weights a0cb13df91e7d51b
sbm 20000 classes=8 deg=15 feat=64 seed=7 ede4d89ce19d4d6d
sbm 20000 classes=8 deg=15 feat=64 seed=42 d293a74a773ae265
sbm 20000 classes=8 deg=30 feat=8 seed=7 190d5645d71a864d
sbm 20000 classes=8 deg=30 feat=8 seed=42 0fcacc027ae27b9b
sbm 20000 classes=4 deg=6 feat=8 seed=7 3fb16c3c5bb12dac
sbm 20000 classes=4 deg=6 feat=8 seed=42 4960e56a258bca36
parallel-edge graph built b7855b798c7b4673
parallel-edge graph round trip b7855b798c7b4673
";
