//! The host-speed reference: a fixed piece of work of the benchmark's own,
//! timed beside every repetition, by which the end-to-end timings are
//! corrected for the state of the host.
//!
//! The host is a shared one. Unchanged code runs up to 1.8 times slower in
//! some minutes than in others (README, "Noise floor"). Such a state
//! lasts minutes — longer than a run — so no statistic over one run's
//! repetitions removes it. What does is a reading, taken in the same
//! seconds, of work that answers to the host the way the workload does.
//! Two things were found to matter. When the host is busy two threads
//! running at once slow each other down, which a single-threaded kernel
//! does not notice: so a helper thread runs beside the main one for the
//! share of the time the workload keeps a second thread busy. And a
//! kernel that stays in the core's own caches slows by a tenth where the
//! workloads slow by a quarter: so the work is a mini-batch's worth of
//! memory (copy random rows of a 5 MB feature table into a 6 MB batch, sum
//! random rows of that, multiply by a weight) besides neighbour sampling
//! with sort and dedup and a hash map with a sort — the program's kinds
//! of inner loop. None of it is program code: a change to the program
//! cannot move it.
//!
//! A timing is reported as `measured × NOMINAL_S ÷ reference reading`:
//! seconds as the quiet reference host would have measured them.

use crate::stats::fastest_quarter;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one pass takes on the quiet reference host (the 2-core
/// Firecracker VM the benchmark was written on) between repetitions, in
/// seconds: the readings of quiet invocations lay between 3.5 and
/// 3.8 ms. Corrected timings are in this host's seconds; on a quiet
/// reference host the correction is about 1.
pub const NOMINAL_S: f64 = 0.0037;

/// Slices a pass of the mixed work is cut into; the helper thread runs
/// `overlap` of them.
const UNITS: usize = 10;

/// Passes in one reading: some 20 ms beside a repetition of one to two
/// seconds, so that a reading sees a stretch of the host's state, not an
/// instant. (With single passes as readings the fastest quarter of them
/// caught moments cleaner than any repetition and answered to the host
/// 1.6 times less than the workload; with five the two answer alike.)
const PASSES: usize = 5;

const VERTICES: usize = 20_000;
const DEGREE: usize = 30;
const FEAT: usize = 64;
const HIDDEN: usize = 32;
/// Rows of one mini-batch's input features, per unit.
const INPUT_ROWS: usize = 2_400;
/// Rows of its first hidden layer, per unit: each sums [`FAN_IN`] inputs.
const HIDDEN_ROWS: usize = 300;
const FAN_IN: usize = 4;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Read-only inputs of the mixed work, shared by both threads.
struct Tables {
    /// `VERTICES × FEAT` feature table.
    table: Vec<f32>,
    /// `FEAT × HIDDEN` layer weight.
    weight: Vec<f32>,
    /// Neighbour lists of a regular random graph, `DEGREE` per vertex.
    neighbours: Vec<u32>,
}

impl Tables {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        Tables {
            table: (0..VERTICES * FEAT)
                .map(|i| (i % 97) as f32 * 0.1)
                .collect(),
            weight: (0..FEAT * HIDDEN).map(|i| (i % 89) as f32 * 0.02).collect(),
            neighbours: (0..VERTICES * DEGREE)
                .map(|_| (xorshift(&mut x) % VERTICES as u64) as u32)
                .collect(),
        }
    }
}

/// One thread's buffers: the input features of a mini-batch (6 MB over
/// the [`UNITS`] slices, as a training batch's are) and what is computed
/// from them.
struct Scratch {
    input: Vec<f32>,
    hidden: Vec<f32>,
    out: Vec<f32>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            input: vec![0.0; UNITS * INPUT_ROWS * FEAT],
            hidden: vec![0.0; HIDDEN_ROWS * FEAT],
            out: vec![0.0; HIDDEN_ROWS * HIDDEN],
        }
    }
}

impl Tables {
    /// Slice `u` of one pass, well under a millisecond on the reference
    /// host: the program's kinds of inner loop on a mini-batch's worth of
    /// memory.
    fn unit(&self, u: usize, x: &mut u64, s: &mut Scratch) -> f32 {
        // Extract: random rows of the feature table copied into this
        // slice of the batch's input.
        let slice = u * INPUT_ROWS * FEAT..(u + 1) * INPUT_ROWS * FEAT;
        for row in s.input[slice].chunks_exact_mut(FEAT) {
            let v = (xorshift(x) % VERTICES as u64) as usize;
            row.copy_from_slice(&self.table[v * FEAT..(v + 1) * FEAT]);
        }
        // Aggregate: each hidden row sums FAN_IN random rows of the
        // input written so far.
        let written = (u + 1) * INPUT_ROWS;
        for row in s.hidden.chunks_exact_mut(FEAT) {
            row.fill(0.0);
            for _ in 0..FAN_IN {
                let r = (xorshift(x) % written as u64) as usize;
                for (h, &f) in row.iter_mut().zip(&s.input[r * FEAT..(r + 1) * FEAT]) {
                    *h += f;
                }
            }
        }
        // Dense: hidden × weight, four output columns per pass over k.
        for (h, out) in s
            .hidden
            .chunks_exact(FEAT)
            .zip(s.out.chunks_exact_mut(HIDDEN))
        {
            for j in (0..HIDDEN).step_by(4) {
                let mut acc = [0.0f32; 4];
                for (k, &hv) in h.iter().enumerate() {
                    let w = &self.weight[k * HIDDEN + j..k * HIDDEN + j + 4];
                    for (a, &wv) in acc.iter_mut().zip(w) {
                        *a += hv * wv;
                    }
                }
                out[j..j + 4].copy_from_slice(&acc);
            }
        }
        let mut sum: f32 = s.out.iter().sum();

        // Sampling: three hops of fan-out 15, 10, 5 from 6 seeds, each
        // frontier sorted and deduplicated.
        let mut frontier: Vec<u32> = (0..6)
            .map(|_| (xorshift(x) % VERTICES as u64) as u32)
            .collect();
        for fanout in [15, 10, 5] {
            let mut next = Vec::with_capacity(frontier.len() * fanout);
            for &v in &frontier {
                let list = &self.neighbours[v as usize * DEGREE..(v as usize + 1) * DEGREE];
                for _ in 0..fanout {
                    next.push(list[xorshift(x) as usize % DEGREE]);
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        sum += frontier.len() as f32;

        // Hash map and sort: count 2 000 keys, rank them by count.
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for _ in 0..2_000 {
            *counts.entry(xorshift(x) % 1_500).or_default() += 1;
        }
        let mut ranked: Vec<(u64, u32)> = counts.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sum + ranked[0].1 as f32
    }
}

/// The mixed work and the buffers of the two threads that run it.
pub struct Reference {
    tables: Tables,
    mine: Scratch,
    helpers: Scratch,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            tables: Tables::new(),
            mine: Scratch::new(),
            helpers: Scratch::new(),
        }
    }
}

impl Reference {
    /// One reading, in seconds: the mean of [`PASSES`] timed passes, each
    /// all [`UNITS`] slices on this thread while a helper thread runs the
    /// first `overlap × UNITS` of them on buffers of its own (none, and no
    /// thread, for `overlap` 0). `overlap` is the share of a run's wall
    /// during which the workload keeps a second thread busy.
    pub fn read(&mut self, overlap: f64) -> f64 {
        let helper_units = (overlap * UNITS as f64).round() as usize;
        let Reference {
            tables,
            mine,
            helpers,
        } = self;
        let work = |units: usize, seed: u64, s: &mut Scratch| {
            let mut x = seed;
            for u in 0..units {
                black_box(tables.unit(u, &mut x, s));
            }
        };
        let mut total = 0.0;
        for _ in 0..PASSES {
            let (mine, helpers) = (&mut *mine, &mut *helpers);
            let started = Instant::now();
            std::thread::scope(|s| {
                if helper_units > 0 {
                    s.spawn(|| work(helper_units, 0x2545_F491_4F6C_DD1D, helpers));
                }
                work(UNITS, 0x853C_49E6_748F_EA9B, mine);
            });
            total += started.elapsed().as_secs_f64();
        }
        total / PASSES as f64
    }
}

/// The reference reading of one invocation: the mean over the fastest
/// quarter of its readings, as for the repetitions themselves.
///
/// # Panics
///
/// Panics on no readings: every pass takes one per repetition.
pub fn reading(readings_s: &[f64]) -> f64 {
    let fastest = fastest_quarter(readings_s);
    fastest.iter().map(|&i| readings_s[i]).sum::<f64>() / fastest.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_milliseconds_of_repeatable_work() {
        let mut r = Reference::default();
        let (mut x, mut y) = (7u64, 7u64);
        let (mut a, mut b) = (Scratch::new(), Scratch::new());
        assert_eq!(
            r.tables.unit(0, &mut x, &mut a),
            r.tables.unit(0, &mut y, &mut b)
        );
        assert_eq!(x, y);
        for overlap in [0.0, 0.4, 1.0] {
            let s = r.read(overlap);
            assert!(s > 1e-4 && s < 1.0, "overlap {overlap}: {s} s");
        }
    }

    #[test]
    fn the_invocations_reading_is_the_fastest_quarters_mean() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(reading(&v), 2.5);
        assert_eq!(reading(&[0.008]), 0.008);
    }
}
