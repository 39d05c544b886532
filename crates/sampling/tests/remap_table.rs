//! `RemapTable` against a `HashMap` model: a round of `insert_if_absent`
//! calls after a `reset` must behave like `entry(key).or_insert(val)` on a
//! map that was just cleared, whatever universe earlier rounds reserved
//! and whatever generation the stamps are at.

use gnnlab_sampling::RemapTable;
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One table lives through every round of a case. Each round reserves
    /// its own universe, so universes grow and shrink between rounds, and
    /// a round reads slots that earlier generations wrote, including ones
    /// at or above its own universe. Keys are below the round's universe:
    /// a few-value prefix (repeats within and across rounds), the top key
    /// `universe - 1`, and the rest. A round may first skip to the last
    /// generation, so its `reset` takes the stamp-wrap refill and the
    /// generation starts over at values earlier rounds stamped.
    #[test]
    fn insert_if_absent_matches_a_hash_map(
        rounds in prop::collection::vec(
            (
                1usize..400,
                prop::collection::vec((any::<u32>(), 0u8..3), 0..80),
                any::<bool>(),
            ),
            1..12,
        ),
    ) {
        let mut table = RemapTable::new();
        for (universe, keys, wrap) in rounds {
            let top = universe as u32 - 1;
            let keys: Vec<u32> = keys
                .into_iter()
                .map(|(raw, kind)| match kind {
                    0 => raw % (top + 1).min(6),
                    1 => top,
                    _ => raw % (top + 1),
                })
                .collect();
            table.reserve(universe);
            if wrap {
                table.skip_to_last_generation();
            }
            table.reset();
            let mut model: HashMap<u32, u32> = HashMap::new();
            for (val, &key) in keys.iter().enumerate() {
                let val = val as u32;
                let expect = match model.entry(key) {
                    Entry::Occupied(e) => Some(*e.get()),
                    Entry::Vacant(e) => {
                        e.insert(val);
                        None
                    }
                };
                prop_assert_eq!(table.insert_if_absent(key, val), expect, "key {}", key);
            }
        }
    }
}

/// A table grown for a large universe keeps serving a smaller one, and a
/// key at or above every universe reserved so far is a contract breach.
#[test]
#[should_panic]
fn keys_outside_the_reserved_universe_panic() {
    let mut table = RemapTable::new();
    table.reserve(100);
    table.reserve(10);
    table.reset();
    assert_eq!(table.insert_if_absent(99, 1), None);
    table.insert_if_absent(100, 2);
}
