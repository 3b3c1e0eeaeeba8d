//! The correctness gate: every answer the ledger checks is counted as
//! attempted, every wrong, errored or refused one as failed. A run with a
//! single failure reports `correct: false` and exits non-zero.

use chl_core::oracle::DistanceOracle;
use chl_core::paths::PathOracle;
use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_graph::CsrGraph;

#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures in words, for the report.
    pub notes: Vec<String>,
    checksum: u64,
}

const MAX_NOTES: usize = 12;

impl Gate {
    /// Counts `attempted` checked answers of which `failed` were wrong.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < MAX_NOTES {
            self.notes
                .push(format!("{} ({failed} of {attempted})", what()));
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    /// Compares two answer vectors cell by cell.
    pub fn check_cells<T: PartialEq>(&mut self, got: &[T], want: &[T], what: &str) {
        let wrong =
            got.iter().zip(want).filter(|(g, w)| g != w).count() + got.len().abs_diff(want.len());
        self.count(want.len().max(got.len()) as u64, wrong as u64, || {
            what.to_string()
        });
    }

    /// Folds one answer into the workload's `answers_checksum` (FNV-1a over
    /// 64-bit words): identical across runs of one seed.
    pub fn fold(&mut self, value: u64) {
        if self.checksum == 0 {
            self.checksum = 0xcbf2_9ce4_8422_2325;
        }
        self.checksum = (self.checksum ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            // Nothing checked is not a pass.
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// In-process answers against Dijkstra on the graph itself.
    pub fn check_truth<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        truth: &[(VertexId, VertexId, Distance)],
    ) {
        let wrong = truth
            .iter()
            .filter(|&&(u, v, d)| oracle.distance(u, v) != d)
            .count();
        self.count(truth.len() as u64, wrong as u64, || {
            "in-process distance differs from Dijkstra".to_string()
        });
        for &(_, _, d) in truth {
            self.fold(d);
        }
    }

    /// Paths for the ground-truth pairs: each must be a contiguous edge walk
    /// from `u` to `v` whose weight is the Dijkstra distance.
    pub fn check_truth_paths<O: PathOracle>(
        &mut self,
        oracle: &O,
        graph: &CsrGraph,
        truth: &[(VertexId, VertexId, Distance)],
    ) {
        let wrong = truth
            .iter()
            .filter(|&&(u, v, d)| match oracle.path(u, v) {
                Ok(path) => walk_weight(graph, u, v, path.as_deref()) != Some(d),
                Err(_) => true,
            })
            .count();
        self.count(truth.len() as u64, wrong as u64, || {
            "path is not an edge walk of the Dijkstra weight".to_string()
        });
    }
}

/// Weight of `path` as a walk from `u` to `v` over edges of `graph`;
/// `INFINITY` for the no-path answer. `None` when it is not such a walk.
pub fn walk_weight(
    graph: &CsrGraph,
    u: VertexId,
    v: VertexId,
    path: Option<&[VertexId]>,
) -> Option<Distance> {
    let Some(path) = path else {
        return Some(INFINITY);
    };
    if path.first() != Some(&u) || path.last() != Some(&v) {
        return None;
    }
    path.windows(2).try_fold(0, |sum: Distance, hop| {
        let w = graph.edge_weight(hop[0], hop[1])?;
        Some(sum + Distance::from(w))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::setup;
    use crate::spec::{workloads, Scale};
    use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
    use chl_core::flat::FlatIndex;
    use chl_core::paths::attach_parents;

    #[test]
    fn the_gate_trips_on_one_corrupted_expected_answer() {
        let w = workloads(Scale::Smoke)[3];
        let mut inputs = setup(&w, Scale::Smoke, 11);
        let built = ChlBuilder::new(&inputs.graph)
            .ranking(RankingStrategy::Explicit(inputs.ranking.clone()))
            .algorithm(Algorithm::Hybrid)
            .threads(2)
            .build()
            .expect("smoke graph builds");
        let index = attach_parents(&inputs.graph, FlatIndex::from_index(&built.index))
            .expect("graph matches its index");

        let mut gate = Gate::default();
        gate.check_truth(&index, &inputs.truth);
        gate.check_truth_paths(&index, &inputs.graph, &inputs.truth);
        assert_eq!(gate.failed, 0, "{:?}", gate.notes);
        assert_eq!(gate.attempted, 2 * inputs.truth.len() as u64);
        let clean = gate.checksum();

        // One expected answer off by one: the run must report a failure.
        inputs.truth[3].2 += 1;
        let mut gate = Gate::default();
        gate.check_truth(&index, &inputs.truth);
        assert_eq!(gate.failed, 1);
        assert!(gate.failed_share() > 0.0);
        assert_eq!(gate.notes.len(), 1);
        assert_ne!(gate.checksum(), clean);
        gate.check_truth_paths(&index, &inputs.graph, &inputs.truth);
        assert_eq!(gate.failed, 2);
    }

    #[test]
    fn nothing_checked_is_not_correct() {
        assert_eq!(Gate::default().failed_share(), 1.0);
    }

    #[test]
    fn cells_and_walks() {
        let mut gate = Gate::default();
        gate.check_cells(&[1, 2, 3], &[1, 2, 3], "same");
        assert_eq!((gate.attempted, gate.failed), (3, 0));
        gate.check_cells(&[1, 9], &[1, 2, 3], "short and wrong");
        assert_eq!((gate.attempted, gate.failed), (6, 2));

        let w = workloads(Scale::Smoke)[0];
        let inputs = setup(&w, Scale::Smoke, 3);
        let g = &inputs.graph;
        let (a, (b, wt)) = (
            0,
            g.neighbors(0).next().expect("grid vertex has a neighbor"),
        );
        assert_eq!(
            walk_weight(g, a, b, Some(&[a, b])),
            Some(Distance::from(wt))
        );
        assert_eq!(walk_weight(g, a, a, Some(&[a])), Some(0));
        assert_eq!(walk_weight(g, a, b, None), Some(INFINITY));
        assert_eq!(walk_weight(g, a, b, Some(&[b, a])), None);
        assert_eq!(walk_weight(g, a, b, Some(&[])), None);
    }
}
