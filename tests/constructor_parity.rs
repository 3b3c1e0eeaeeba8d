//! Constructor parity: the paper's central claim, as one test. Every
//! canonical `Algorithm` variant, driven through the unified `ChlBuilder`,
//! must produce the *identical* labeling on both topology families the paper
//! evaluates — and `SParaPll` a labeling that answers identical distances.

use planted_hub_labeling::graph::sssp::dijkstra;
use planted_hub_labeling::prelude::*;

/// The two topology families of the paper's evaluation, seeded so runs are
/// reproducible: a perturbed weighted grid (road-like) and a Barabási–Albert
/// graph (scale-free). Weights are spread wide to keep shortest paths nearly
/// tie-free.
fn testbeds() -> Vec<(&'static str, CsrGraph)> {
    let grid = grid_network(
        &GridOptions {
            rows: 14,
            cols: 14,
            max_weight: 1000,
            ..GridOptions::default()
        },
        0xC0FFEE,
    );
    let ba = barabasi_albert(250, 3, 0xBEEF);
    vec![("grid", grid), ("barabasi-albert", ba)]
}

#[test]
fn all_canonical_constructors_agree_on_both_topologies() {
    for (name, graph) in testbeds() {
        let ranking = degree_ranking(&graph);
        let builder = ChlBuilder::new(&graph)
            .ranking(RankingStrategy::Explicit(ranking.clone()))
            .threads(3);

        let reference = builder
            .clone()
            .algorithm(Algorithm::Pll)
            .validate()
            .expect("configuration is valid")
            .build()
            .expect("construction succeeds")
            .index;

        let every_root: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        for algo in Algorithm::CANONICAL {
            let built = builder
                .clone()
                .algorithm(algo)
                .build()
                .unwrap_or_else(|e| panic!("{algo} on {name}: {e}"));
            assert_eq!(
                built.index, reference,
                "{algo} must produce the identical canonical labeling on {name}"
            );
            // One record per root, ascending by root position: Hybrid's
            // PLaNTed trees come first, then its pruned tail's.
            let roots: Vec<u32> = built
                .stats
                .spt_records
                .iter()
                .map(|r| r.root_position)
                .collect();
            assert_eq!(roots, every_root, "{algo} SPT records on {name}");
        }
        // The reference itself is the true CHL.
        assert!(
            is_canonical(&graph, &ranking, &reference),
            "seqPLL output not canonical on {name}"
        );
    }
}

#[test]
fn spara_pll_is_a_query_equivalent_superset() {
    for (name, graph) in testbeds() {
        let ranking = degree_ranking(&graph);
        let builder = ChlBuilder::new(&graph)
            .ranking(RankingStrategy::Explicit(ranking.clone()))
            .threads(4);

        let canonical = builder
            .clone()
            .algorithm(Algorithm::Pll)
            .build()
            .unwrap()
            .index;
        let para = builder
            .clone()
            .algorithm(Algorithm::SParaPll)
            .build()
            .unwrap()
            .index;

        // No size claim at 4 threads: without rank queries a less important
        // root's labels can prune a more important root's tree, so the count
        // can fall below the CHL's (`para_pll`'s
        // `label_count_can_fall_below_canonical_out_of_rank_order` shows
        // how). At one thread the roots run in rank order and SParaPll is
        // PLL...
        let single = builder
            .threads(1)
            .algorithm(Algorithm::SParaPll)
            .build()
            .unwrap()
            .index;
        assert_eq!(
            single, canonical,
            "SParaPll at 1 thread must be PLL on {name}"
        );

        // ...and at any thread count the distances are exact, verified
        // against Dijkstra through the shared DistanceOracle surface.
        let n = graph.num_vertices() as u32;
        for u in (0..n).step_by(17) {
            let truth = dijkstra(&graph, u);
            for v in 0..n {
                assert_eq!(para.distance(u, v), truth[v as usize], "{name}: d({u},{v})");
                assert_eq!(
                    canonical.distance(u, v),
                    truth[v as usize],
                    "{name}: d({u},{v})"
                );
            }
        }
    }
}

#[test]
fn hybrid_switch_points_do_not_change_the_labeling() {
    // The builder's tuning knobs steer performance, never the output: the
    // Hybrid must stay canonical across aggressive and lazy switch points.
    let (_, graph) = testbeds().remove(0);
    let ranking = degree_ranking(&graph);
    let builder = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Explicit(ranking.clone()))
        .threads(2);
    let reference = builder
        .clone()
        .algorithm(Algorithm::Pll)
        .build()
        .unwrap()
        .index;
    for psi in [0.05, 1.0, 10.0, 1000.0] {
        let hybrid = builder
            .clone()
            .algorithm(Algorithm::Hybrid)
            .psi_threshold(psi)
            .build()
            .unwrap()
            .index;
        assert_eq!(
            hybrid, reference,
            "Hybrid with psi_threshold={psi} diverged"
        );
    }
}
