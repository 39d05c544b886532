//! Epoch iteration: shuffle the training set, split into mini-batches.

use gnnlab_graph::VertexId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Iterates the mini-batches of one epoch.
///
/// "Most GNN models shuffle the training set T at the beginning of each
/// epoch and divide T into multiple mini-batches" (§6.2). The shuffle is
/// deterministic in `(seed, epoch)`, so a pre-sampling epoch and a training
/// epoch with the same indices see identical batches.
#[derive(Debug, Clone)]
pub struct MinibatchIter {
    shuffled: Vec<VertexId>,
    batch_size: usize,
    cursor: usize,
}

impl MinibatchIter {
    /// Creates the batch iterator for `epoch` over `train_set`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(train_set: &[VertexId], batch_size: usize, seed: u64, epoch: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut shuffled = Vec::new();
        Self::shuffle_into(train_set, seed, epoch, &mut shuffled);
        MinibatchIter {
            shuffled,
            batch_size,
            cursor: 0,
        }
    }

    /// The epoch's shuffled training set, in place of `order`'s contents:
    /// `order.chunks(batch_size)` are the batches the iterator yields, in
    /// order, without a vector per batch.
    pub fn shuffle_into(train_set: &[VertexId], seed: u64, epoch: u64, order: &mut Vec<VertexId>) {
        order.clear();
        order.extend_from_slice(train_set);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9));
        order.shuffle(&mut rng);
    }

    /// Number of batches this epoch will produce.
    pub fn num_batches(&self) -> usize {
        self.shuffled.len().div_ceil(self.batch_size)
    }
}

impl Iterator for MinibatchIter {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Vec<VertexId>> {
        if self.cursor >= self.shuffled.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.shuffled.len());
        let batch = self.shuffled[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.shuffled.len().saturating_sub(self.cursor);
        let n = remaining.div_ceil(self.batch_size);
        (n, Some(n))
    }
}

impl ExactSizeIterator for MinibatchIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_vertices_once() {
        let ts: Vec<VertexId> = (0..103).collect();
        let batches: Vec<_> = MinibatchIter::new(&ts, 10, 1, 0).collect();
        assert_eq!(batches.len(), 11);
        assert_eq!(batches.last().unwrap().len(), 3);
        let mut all: Vec<VertexId> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, ts);
    }

    #[test]
    fn deterministic_per_epoch_but_differs_across_epochs() {
        let ts: Vec<VertexId> = (0..50).collect();
        let a: Vec<_> = MinibatchIter::new(&ts, 7, 9, 3).collect();
        let b: Vec<_> = MinibatchIter::new(&ts, 7, 9, 3).collect();
        assert_eq!(a, b);
        let c: Vec<_> = MinibatchIter::new(&ts, 7, 9, 4).collect();
        assert_ne!(a, c);
        // The in-place order chunks into the same batches, whatever the
        // recycled vector held before.
        let mut order = vec![7; 80];
        MinibatchIter::shuffle_into(&ts, 9, 3, &mut order);
        assert!(order.chunks(7).eq(a.iter().map(Vec::as_slice)));
    }

    #[test]
    fn size_hint_is_exact() {
        let ts: Vec<VertexId> = (0..25).collect();
        let mut it = MinibatchIter::new(&ts, 10, 0, 0);
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_panics() {
        let _ = MinibatchIter::new(&[1, 2], 0, 0, 0);
    }
}
