//! Per-node construction state and kernels.
//!
//! Each simulated node owns: the labels it generated itself (its partition,
//! committed at superstep boundaries), any labels replicated to it (the full
//! table for DparaPLL, the Common Label Table for DGLL/Hybrid) and a local
//! table for labels generated during the current superstep. The pruning
//! kernels of `chl-core` read through the [`NodeView`] adapter so they see
//! exactly — and only — what a real cluster node would see.

use chl_core::labels::{LabelEntry, LabelSet};
use chl_core::plant::{plant_dijkstra, CommonLabelTable, PlantScratch};
use chl_core::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use chl_core::stats::SptRecord;
use chl_core::table::{ConcurrentLabelTable, LabelAccess, LabelRuns};
use chl_graph::types::VertexId;
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

/// The labels a node can consult while constructing an SPT.
pub struct NodeView<'a> {
    /// Labels this node generated in earlier supersteps (its own partition).
    pub own: &'a [LabelSet],
    /// Labels replicated from other nodes (empty slice entries when nothing
    /// is replicated; the full labeling for DparaPLL).
    pub replicated: &'a [LabelSet],
    /// The Common Label Table (labels of the top-η hubs), if maintained.
    pub common: Option<&'a CommonLabelTable>,
    /// Labels generated during the current superstep on this node.
    pub local: &'a ConcurrentLabelTable,
}

impl LabelRuns for NodeView<'_> {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        f(self.own[v as usize].entries())
            || self
                .replicated
                .get(v as usize)
                .is_some_and(|set| f(set.entries()))
            || self
                .common
                .is_some_and(|common| f(common.labels_of(v).entries()))
            || self.local.any_run(v, f)
    }
}

impl LabelAccess for NodeView<'_> {
    fn append(&self, v: VertexId, entry: LabelEntry) {
        self.local.append(v, entry);
    }
}

/// Runs pruned Dijkstra (Algorithm 1) from every root position in
/// `positions`, reading labels through `view` and appending new labels to the
/// view's local table. Returns one record per SPT.
pub fn construct_positions(
    g: &CsrGraph,
    ranking: &Ranking,
    positions: &[u32],
    view: &NodeView<'_>,
    rank_query: bool,
    scratch: &mut DijkstraScratch,
) -> Vec<SptRecord> {
    let opts = PruneOptions {
        rank_query,
        ..Default::default()
    };
    positions
        .iter()
        .map(|&pos| {
            let root = ranking.vertex_at(pos);
            let (record, _queries) = pruned_dijkstra(g, ranking, root, view, opts, scratch);
            record
        })
        .collect()
}

/// PLaNTs (Algorithm 3) every root position in `positions`, pruning with
/// `common`, and returns the labels per vertex with the vertices explored
/// and the labels generated.
pub fn plant_positions(
    g: &CsrGraph,
    ranking: &Ranking,
    positions: &[u32],
    early_termination: bool,
    common: &CommonLabelTable,
) -> (Vec<Vec<LabelEntry>>, usize, usize) {
    let n = g.num_vertices();
    let mut scratch = PlantScratch::new(n);
    let mut labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    let (mut explored, mut generated) = (0, 0);
    for &pos in positions {
        let root = ranking.vertex_at(pos);
        let tree = plant_dijkstra(g, ranking, root, early_termination, common, &mut scratch);
        explored += tree.vertices_explored;
        generated += tree.labels.len();
        for &(v, d) in &tree.labels {
            labels[v as usize].push(LabelEntry::new(pos, d));
        }
    }
    (labels, explored, generated)
}

/// Merges raw label entries (as drained from a local table) into a node's
/// committed per-vertex label sets.
pub fn commit_entries(own: &mut [LabelSet], entries: Vec<Vec<LabelEntry>>) {
    for (set, raw) in own.iter_mut().zip(entries) {
        if !raw.is_empty() {
            set.merge(&LabelSet::from_entries(raw));
        }
    }
}

/// Serialized wire size of a batch of labels (used for traffic accounting).
pub fn wire_bytes(label_count: usize) -> usize {
    label_count * chl_cluster::comm::LABEL_WIRE_BYTES
}

/// Runs one bulk-synchronous round on the cluster in the configured execution
/// mode, returning each node's result and measured busy time.
pub fn run_nodes<R, F>(
    cluster: &chl_cluster::SimulatedCluster,
    mode: crate::config::ExecutionMode,
    work: F,
) -> Vec<(R, std::time::Duration)>
where
    R: Send,
    F: Fn(chl_cluster::NodeHandle) -> R + Sync,
{
    match mode {
        crate::config::ExecutionMode::Concurrent => cluster.run_round(work),
        crate::config::ExecutionMode::Sequential => cluster.run_round_sequential(work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::path_graph;

    #[test]
    fn node_view_reads_all_layers() {
        let own = vec![LabelSet::from_entries(vec![LabelEntry::new(0, 1)]); 2];
        let replicated = vec![LabelSet::from_entries(vec![LabelEntry::new(1, 2)]); 2];
        let common_src = vec![LabelSet::from_entries(vec![LabelEntry::new(2, 3)]); 2];
        let common = CommonLabelTable::from_labels(&common_src, 16);
        let local = ConcurrentLabelTable::new(2);
        local.append(0, LabelEntry::new(3, 4));

        let view = NodeView {
            own: &own,
            replicated: &replicated,
            common: Some(&common),
            local: &local,
        };
        let mut hubs = Vec::new();
        view.any_run(0, |run| {
            hubs.extend(run.iter().map(|e| e.hub));
            false
        });
        assert_eq!(hubs, vec![0, 1, 2, 3]);

        view.append(1, LabelEntry::new(9, 9));
        assert_eq!(local.len_of(1), 1);
    }

    #[test]
    fn construct_positions_generates_labels_on_local_table() {
        let g = path_graph(5);
        let ranking = Ranking::identity(5);
        let own = vec![LabelSet::new(); 5];
        let local = ConcurrentLabelTable::new(5);
        let view = NodeView {
            own: &own,
            replicated: &[],
            common: None,
            local: &local,
        };
        let mut scratch = DijkstraScratch::new(5);
        let records = construct_positions(&g, &ranking, &[0, 2], &view, true, &mut scratch);
        assert_eq!(records.len(), 2);
        assert!(local.total_labels() > 0);
        // Root position 0 (vertex 0) labels the whole path.
        assert_eq!(records[0].labels_generated, 5);
    }

    #[test]
    fn commit_entries_merges_into_own_partition() {
        let mut own = vec![LabelSet::new(); 3];
        let entries = vec![
            vec![LabelEntry::new(1, 5)],
            vec![],
            vec![LabelEntry::new(0, 2), LabelEntry::new(2, 0)],
        ];
        commit_entries(&mut own, entries);
        assert_eq!(own[0].len(), 1);
        assert_eq!(own[1].len(), 0);
        assert_eq!(own[2].len(), 2);
    }

    #[test]
    fn wire_bytes_scale_with_labels() {
        assert_eq!(wire_bytes(0), 0);
        assert_eq!(wire_bytes(10), 160);
    }
}
