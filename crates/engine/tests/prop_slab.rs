//! Property tests for the in-flight state container (DESIGN.md §7e).
//!
//! [`InFlightIndex`] must be observationally identical to the
//! `BTreeMap<u64, T>` it replaced — same values, same ascending iteration
//! and squash-walk order — under any interleaving of inserts, head
//! retirements, and squashes, including span overflows that force the
//! ring to grow.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ff_engine::InFlightIndex;

proptest! {
    /// The ring is a drop-in `BTreeMap` replacement: after any mix of
    /// monotonic inserts, head retirements, and squashes, both the live
    /// contents and every ascending walk (iteration, squash callbacks)
    /// match the reference map exactly — even when the live span overruns
    /// the configured ring and forces growth.
    #[test]
    fn index_behaves_like_btreemap_under_random_ops(
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..300),
    ) {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(8);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seq = 0u64;
        for &(op, payload) in &ops {
            match op {
                // Allocate the next seq (twice as likely as the others,
                // mirroring a pipeline that mostly fetches).
                0 | 1 => {
                    *index.get_or_default(seq) += payload;
                    *model.entry(seq).or_default() += payload;
                    seq += 1;
                }
                // Retire the oldest live entry (the multipass DEQ path).
                2 => {
                    if let Some((&oldest, _)) = model.iter().next() {
                        prop_assert_eq!(index.remove(oldest), model.remove(&oldest));
                    }
                }
                // Squash from a random point at or above the floor: the
                // callback order must be the BTreeMap range walk.
                _ => {
                    let floor = index.floor();
                    let from = floor + payload % (seq - floor + 1);
                    let mut squashed = Vec::new();
                    index.squash_from(from, |s, v| squashed.push((s, v)));
                    let keys: Vec<u64> = model.range(from..).map(|(&s, _)| s).collect();
                    let expect: Vec<(u64, u64)> =
                        keys.iter().map(|k| (*k, model.remove(k).unwrap())).collect();
                    prop_assert_eq!(squashed, expect, "squash walk diverges");
                    seq = from.max(floor);
                }
            }
            let mut got = Vec::new();
            index.for_each(|s, v| got.push((s, *v)));
            let expect: Vec<(u64, u64)> = model.iter().map(|(&s, &v)| (s, v)).collect();
            prop_assert_eq!(got, expect, "iteration diverges");
            prop_assert_eq!(index.len(), model.len());
        }
    }

    /// Retiring every seq from the floor in ascending order (the only
    /// discipline the multipass core uses) keeps a span-sized ring
    /// allocation-free forever, whatever the interleaving of inserts.
    #[test]
    fn index_sized_to_span_stays_allocation_free(
        gaps in proptest::collection::vec(0u64..4, 1..100),
    ) {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(16);
        let start = index.alloc_events();
        let mut seq = 0u64;
        let mut floor = 0u64;
        for &g in &gaps {
            for _ in 0..=g {
                *index.get_or_default(seq) = seq;
                seq += 1;
                // Retire to keep the live span within the ring.
                while seq - floor >= 16 {
                    prop_assert_eq!(index.remove(floor), Some(floor));
                    floor += 1;
                }
            }
        }
        prop_assert_eq!(index.alloc_events(), start, "steady state must not allocate");
    }
}
