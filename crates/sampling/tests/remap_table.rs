//! `RemapTable` against a `HashMap` model: whatever the slot layout, a
//! round of `insert_if_absent` calls after a `reset` must behave like
//! `entry(key).or_insert(val)` on a map that was just cleared.

use gnnlab_sampling::RemapTable;
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One table lives through every round of a case, so rounds see slots
    /// written by earlier generations, tables that are larger than the
    /// round needs, and regrowth when a round needs more. Keys mix a
    /// 48-value domain (repeats within and across rounds) with the full
    /// `u32` range (0 and `u32::MAX` are ordinary keys, not sentinels).
    #[test]
    fn insert_if_absent_matches_a_hash_map(
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u32..48, any::<u32>(), any::<bool>()), 0..80),
                0usize..8,
            ),
            1..12,
        ),
    ) {
        let mut table = RemapTable::new();
        for (keys, slack) in rounds {
            let keys: Vec<u32> = keys
                .into_iter()
                .map(|(small, wide, pick_small)| if pick_small { small } else { wide })
                .collect();
            let mut model: HashMap<u32, u32> = HashMap::new();
            let distinct = keys.iter().collect::<HashSet<_>>().len();
            // The contract: no more distinct keys than `reset` was told.
            table.reset(distinct + slack);
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
