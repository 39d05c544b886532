//! The sampler claim book (the dynamic global scheduler, §5.2).
//!
//! A plain state machine — no threads, no clock — so every transition,
//! including the crash interleavings, is unit-tested below without a
//! runtime around it.

use std::collections::{HashMap, HashSet};

/// Who is sampling what. One shared book replaces the old atomic cursor so
/// the close decision, in-flight claims and orphaned work of dead Samplers
/// stay consistent under crashes.
#[derive(Debug)]
pub(super) struct SamplerBook {
    /// Next unclaimed fresh batch index.
    cursor: usize,
    /// Total batch indices in the run.
    total: usize,
    /// Indices claimed by Samplers that died before enqueueing them, and
    /// on resume the untrained indices below the cursor; survivors (or a
    /// respawn) re-sample these first, from the back.
    orphans: Vec<usize>,
    /// In-flight claims: executor id → batch indices of its current burst
    /// (one entry at pipeline depth 0, up to `SAMPLER_BURST` otherwise).
    /// Entries are removed — never left empty — so `work_remains` stays
    /// exact.
    claims: HashMap<usize, Vec<usize>>,
    /// Executor ids currently in their sampling phase.
    sampling: HashSet<usize>,
}

/// What a Sampler gets when it asks the book for work.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Claim {
    /// Batch indices to sample and enqueue next, now registered as the
    /// caller's in-flight burst.
    Burst(Vec<usize>),
    /// Nothing is left to claim: the caller has been removed from the
    /// sampling set in the same step. `close` tells it whether it was the
    /// last producer out and must close the queue.
    Retired { close: bool },
}

/// The book's half of the supervisor's Sampler-crash handling.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct SamplerCrash {
    /// Claims the dead Sampler held, now orphaned for re-sampling.
    pub orphaned: usize,
    /// Work remains and nobody is left sampling: without a replacement the
    /// orphans would never be re-sampled and the cursor never advance.
    pub respawn: bool,
    /// The dead Sampler was the last producer and left nothing behind:
    /// the queue must be closed on its behalf.
    pub close: bool,
}

impl SamplerBook {
    pub(super) fn new(total: usize) -> Self {
        SamplerBook {
            cursor: 0,
            total,
            orphans: Vec::new(),
            claims: HashMap::new(),
            sampling: HashSet::new(),
        }
    }

    /// Enters `exec` into the sampling set (at spawn, before its thread
    /// starts — no window where the book looks idle).
    pub(super) fn register(&mut self, exec: usize) {
        self.sampling.insert(exec);
    }

    /// Claims up to `max` batches for `exec`: orphaned work first, then
    /// the fresh cursor. When nothing is left the caller retires *in the
    /// same step*. Learning "no claims left" and leaving the sampling set
    /// used to be two separate lock acquisitions; a peer crashing between
    /// them saw this Sampler as a live survivor, skipped the respawn, and
    /// the orphans it left were never re-sampled — the queue never closed
    /// and every consumer blocked forever.
    pub(super) fn next_claims(&mut self, exec: usize, max: usize) -> Claim {
        let mut taken = Vec::with_capacity(max);
        for _ in 0..max {
            if let Some(i) = self.orphans.pop() {
                taken.push(i);
            } else if self.cursor < self.total {
                taken.push(self.cursor);
                self.cursor += 1;
            } else {
                break;
            }
        }
        if taken.is_empty() {
            self.sampling.remove(&exec);
            return Claim::Retired {
                close: self.should_close(),
            };
        }
        self.claims.insert(exec, taken.clone());
        Claim::Burst(taken)
    }

    /// Marks `exec`'s current burst of claims delivered to the queue.
    pub(super) fn complete_claims(&mut self, exec: usize) {
        self.claims.remove(&exec);
    }

    /// Removes a dead Sampler and orphans its whole current burst (nothing
    /// from it was enqueued yet, so re-sampling each index keeps
    /// exactly-once), then decides — under the same lock — what its death
    /// requires of the supervisor.
    pub(super) fn crash(&mut self, exec: usize) -> SamplerCrash {
        self.sampling.remove(&exec);
        let orphaned = self.claims.remove(&exec).map_or(0, |burst| {
            self.orphans.extend(&burst);
            burst.len()
        });
        SamplerCrash {
            orphaned,
            respawn: self.work_remains() && self.sampling.is_empty(),
            close: self.should_close(),
        }
    }

    /// Whether any batch index is still unclaimed or in flight.
    fn work_remains(&self) -> bool {
        self.cursor < self.total || self.has_open_claims()
    }

    /// Whether the producing side is finished: no sampler active and no
    /// work outstanding — time to close the queue.
    fn should_close(&self) -> bool {
        self.sampling.is_empty() && !self.work_remains()
    }

    /// Whether a claimed batch is not yet in the queue (in flight on a
    /// live Sampler, or orphaned).
    fn has_open_claims(&self) -> bool {
        !self.claims.is_empty() || !self.orphans.is_empty()
    }

    /// How many Samplers are in their sampling phase.
    pub(super) fn samplers(&self) -> usize {
        self.sampling.len()
    }

    /// Restarts claiming after a checkpoint's trained set (before any
    /// Sampler exists): the cursor goes one past the highest trained id,
    /// and the untrained ids below it — batches a multi-consumer run had
    /// queued, leased or in a round when the snapshot was taken — become
    /// orphans, re-sampled first in ascending order.
    pub(super) fn resume(&mut self, trained: &[usize]) {
        self.cursor = trained.iter().max().map_or(0, |&i| i + 1);
        let mut done = vec![false; self.cursor];
        for &i in trained {
            done[i] = true;
        }
        self.orphans = (0..self.cursor).rev().filter(|&i| !done[i]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book(total: usize, samplers: &[usize]) -> SamplerBook {
        let mut b = SamplerBook::new(total);
        for &s in samplers {
            b.register(s);
        }
        b
    }

    fn burst(c: Claim) -> Vec<usize> {
        match c {
            Claim::Burst(v) => v,
            Claim::Retired { .. } => panic!("expected a burst, got {c:?}"),
        }
    }

    #[test]
    fn claims_walk_the_cursor_in_bursts() {
        let mut b = book(5, &[0]);
        assert_eq!(burst(b.next_claims(0, 2)), vec![0, 1]);
        b.complete_claims(0);
        assert_eq!(burst(b.next_claims(0, 2)), vec![2, 3]);
        b.complete_claims(0);
        // The tail burst is short, not padded.
        assert_eq!(burst(b.next_claims(0, 2)), vec![4]);
        assert_eq!(b.cursor, 5);
    }

    #[test]
    fn orphans_are_reclaimed_before_fresh_work() {
        let mut b = book(8, &[0, 1]);
        assert_eq!(burst(b.next_claims(0, 3)), vec![0, 1, 2]);
        let crash = b.crash(0);
        assert_eq!(
            crash,
            SamplerCrash {
                orphaned: 3,
                respawn: false,
                close: false
            }
        );
        // The survivor re-samples the dead peer's burst (most recently
        // orphaned first), then moves on to the fresh cursor.
        assert_eq!(burst(b.next_claims(1, 4)), vec![2, 1, 0, 3]);
        assert_eq!(b.cursor, 4);
    }

    #[test]
    fn complete_claims_clears_the_in_flight_entry() {
        let mut b = book(2, &[0]);
        burst(b.next_claims(0, 2));
        assert!(b.has_open_claims());
        b.complete_claims(0);
        assert!(!b.has_open_claims());
        // A crash after delivery orphans nothing.
        assert_eq!(b.crash(0).orphaned, 0);
    }

    #[test]
    fn queue_closes_only_when_the_last_sampler_retires_with_nothing_outstanding() {
        let mut b = book(2, &[0, 1]);
        burst(b.next_claims(0, 2));
        // 1 finds nothing to claim while 0 still holds its burst: it
        // retires, but the producing side is not finished.
        assert_eq!(b.next_claims(1, 2), Claim::Retired { close: false });
        assert_eq!(b.samplers(), 1);
        b.complete_claims(0);
        assert_eq!(b.next_claims(0, 2), Claim::Retired { close: true });
        assert_eq!(b.samplers(), 0);
    }

    #[test]
    fn last_sampler_crashing_after_delivery_closes_on_its_behalf() {
        let mut b = book(1, &[0]);
        burst(b.next_claims(0, 1));
        b.complete_claims(0);
        assert_eq!(
            b.crash(0),
            SamplerCrash {
                orphaned: 0,
                respawn: false,
                close: true
            }
        );
    }

    /// The retire/crash race: B learns there is nothing left to claim
    /// while A still holds a burst, then A dies. B must already be out of
    /// the sampling set when A's crash is judged, so the supervisor
    /// respawns rather than counting on a survivor that is leaving.
    #[test]
    fn peer_crash_after_a_retire_forces_a_respawn() {
        let (a, b_id) = (0, 1);
        let mut b = book(3, &[a, b_id]);
        assert_eq!(burst(b.next_claims(a, 4)), vec![0, 1, 2]);
        assert_eq!(b.next_claims(b_id, 4), Claim::Retired { close: false });
        let crash = b.crash(a);
        assert_eq!(
            crash,
            SamplerCrash {
                orphaned: 3,
                respawn: true,
                close: false
            }
        );
        // The respawn picks the orphans up and is the one to close.
        b.register(2);
        assert_eq!(burst(b.next_claims(2, 4)), vec![2, 1, 0]);
        b.complete_claims(2);
        assert_eq!(b.next_claims(2, 4), Claim::Retired { close: true });
    }

    /// A trained set with holes, as a multi-consumer run leaves it: the
    /// holes are re-sampled first, in ascending order, then the cursor
    /// continues one past the highest trained id — and the queue closes
    /// only once the holes are delivered too.
    #[test]
    fn resume_with_holes_resamples_them_first_in_ascending_order() {
        let mut b = book(7, &[0]);
        b.resume(&[4, 0, 2, 5]);
        assert_eq!(b.cursor, 6);
        assert_eq!(burst(b.next_claims(0, 2)), vec![1, 3]);
        b.complete_claims(0);
        assert_eq!(burst(b.next_claims(0, 2)), vec![6]);
        b.complete_claims(0);
        assert_eq!(b.next_claims(0, 2), Claim::Retired { close: true });

        // The highest id is the last one: the holes alone keep the
        // producing side open.
        let mut b = book(4, &[0, 1]);
        b.resume(&[0, 3]);
        assert_eq!(b.cursor, 4);
        assert_eq!(burst(b.next_claims(0, 1)), vec![1]);
        assert_eq!(burst(b.next_claims(1, 4)), vec![2]);
        b.complete_claims(1);
        // 1 retires while 0 still holds hole 1: not closed yet.
        assert_eq!(b.next_claims(1, 4), Claim::Retired { close: false });
        b.complete_claims(0);
        assert_eq!(b.next_claims(0, 1), Claim::Retired { close: true });

        // Nothing trained yet: a fresh start.
        let mut b = book(3, &[0]);
        b.resume(&[]);
        assert_eq!(burst(b.next_claims(0, 3)), vec![0, 1, 2]);
    }
}
