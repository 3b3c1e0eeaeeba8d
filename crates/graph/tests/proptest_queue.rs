//! Differential tests for the radix-heap `DistanceQueue`: every pop must
//! equal the pop of a binary min-heap over `(distance, vertex)` fed the same
//! operations, including the tie order among equal distances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use chl_graph::sssp::heap::DistanceQueue;
use chl_graph::sssp::{bellman_ford, dijkstra, dijkstra_targets};
use chl_graph::types::{Distance, INFINITY};
use chl_graph::{CsrGraph, GraphBuilder};

/// One queue operation: `(kind, raw, vertex)`. `kind` picks the operation
/// (mostly pushes at `last_pop + δ` for δ of several scales, then pops, a
/// rare clear and a rare push below the last pop); `raw` supplies δ.
type Op = (u8, u64, u32);

/// Replays `ops` on both queues, checking every pop, then drains both.
fn replay(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue = DistanceQueue::new();
    let mut model: BinaryHeap<Reverse<(Distance, u32)>> = BinaryHeap::new();
    let mut last_pop: Distance = 0;
    let mut last_push: Option<(Distance, u32)> = None;
    for (step, &(kind, raw, v)) in ops.iter().enumerate() {
        let push = match kind {
            // Ties with the last pop, which land straight in bucket 0.
            0..=2 => Some((last_pop, v)),
            3..=5 => Some((last_pop.saturating_add(raw % 8), v)),
            6 => Some((last_pop.saturating_add(raw % 4096), v)),
            // Every scale of δ up to 2^63.
            7 => Some((last_pop.saturating_add((raw >> 1) >> (raw % 63)), v)),
            8 => Some((Distance::MAX - raw % 4, v)),
            // An exact duplicate of the previous entry.
            9 => last_push,
            // Below the last pop: the queue's cold rebase path.
            15 if last_pop > 0 => Some((raw % last_pop, v)),
            14 if raw % 4 == 0 => {
                queue.clear();
                model.clear();
                last_pop = 0;
                None
            }
            _ => {
                let want = model.pop().map(|Reverse(e)| e);
                prop_assert_eq!(queue.pop(), want, "pop at step {}", step);
                if let Some((d, _)) = want {
                    last_pop = d;
                }
                None
            }
        };
        if let Some((d, v)) = push {
            queue.push(d, v);
            model.push(Reverse((d, v)));
            last_push = Some((d, v));
        }
        prop_assert_eq!(queue.len(), model.len(), "len at step {}", step);
        prop_assert_eq!(queue.is_empty(), model.is_empty());
    }
    while let Some(Reverse(want)) = model.pop() {
        prop_assert_eq!(queue.pop(), Some(want), "drain");
    }
    prop_assert_eq!(queue.pop(), None);
    Ok(())
}

/// A path of 16 to 39 vertices plus random chords that skip one vertex,
/// with every weight at least 2^31: each source has a vertex four or more
/// hops out, past 2^32.
fn arb_heavy_graph() -> impl Strategy<Value = CsrGraph> {
    (
        16usize..40,
        proptest::collection::vec((1u32 << 31)..u32::MAX, 40..41),
        proptest::collection::vec((0u32..40, (1u32 << 31)..u32::MAX), 0..40),
    )
        .prop_map(|(n, path, chords)| {
            let mut b = GraphBuilder::new_undirected();
            for (u, &w) in path.iter().enumerate().take(n - 1) {
                b.add_edge(u as u32, u as u32 + 1, w);
            }
            for (u, w) in chords {
                let u = u % (n as u32 - 2);
                b.add_edge(u, u + 2, w);
            }
            b.build().expect("generated weights are positive")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same operations, same pops, on small and large vertex pools.
    #[test]
    fn queue_pops_match_a_binary_heap(
        ops in proptest::collection::vec((0u8..16, any::<u64>(), 0u32..8), 0..400),
        wide in proptest::collection::vec((0u8..16, any::<u64>(), any::<u32>()), 0..200),
    ) {
        replay(&ops)?;
        replay(&wide)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distances past 2^32 exercise the queue's high buckets on a real
    /// graph; Bellman-Ford uses no queue at all.
    #[test]
    fn dijkstra_past_two_to_the_32_matches_bellman_ford(
        g in arb_heavy_graph(),
        src_raw in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let src = src_raw % n;
        let d = dijkstra(&g, src);
        prop_assert_eq!(&d, &bellman_ford(&g, src));
        let all: Vec<u32> = (0..n).collect();
        prop_assert_eq!(&dijkstra_targets(&g, src, &all), &d);
        let far = d.iter().copied().filter(|&x| x != INFINITY).max().unwrap_or(0);
        prop_assert!(far > 1 << 32, "farthest vertex at {far}");
    }
}
