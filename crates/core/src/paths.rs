//! Shortest-**path** reconstruction from canonical hub labels.
//!
//! A scalar PPSD query finds the minimizing hub `h` of `u` and `v`; this
//! module turns that witness into the actual vertex walk. The key property
//! is canonicality: if hub `h` covers the pair `(u, v)`, then `h` appears in
//! the label of **every** vertex on the shortest `u`–`h` and `v`–`h`
//! sub-paths. Storing one extra word per label entry — the next vertex
//! toward that entry's hub — therefore suffices to unpack the whole path by
//! repeated lookup: follow parent records from `u` up to `h`, then from `v`
//! up to `h`, and splice the two chains at the hub.
//!
//! The parent records live in an optional 8-aligned `.chl` section (flags
//! bit 2, see [`crate::persist`]); files without it load fine and every
//! `path()` call answers a typed [`PathError::NoPathData`]. Because edge
//! weights are strictly positive, distances strictly decrease along a valid
//! parent chain — the unpacker enforces that per step, so corrupt or
//! mismatched parent data yields [`PathError::Corrupt`], never a hang.

use chl_graph::csr::CsrGraph;
use chl_graph::types::{dist_add, VertexId};

use crate::flat::{FlatIndex, IndexView, LabelStorage, LabelView};
use crate::mapped::MmapIndex;

/// Why a `path()` call could not produce an answer. Disconnected or
/// out-of-range endpoints are **not** errors — they answer `Ok(None)`, the
/// path-shaped sibling of `INFINITY`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The index carries no parent records (built without `--paths` /
    /// loaded from a `.chl` file without the path section).
    NoPathData,
    /// The named endpoint (or an interior vertex of the path) is owned by a
    /// different shard of a sharded index, so its parent chain is not
    /// locally reconstructible. Route the query to the owning shard.
    NotThisShard {
        /// The vertex whose labels this shard does not carry.
        vertex: VertexId,
    },
    /// A vertex on the parent chain is missing the label entry for the
    /// witness hub — impossible for a canonical labeling with correct
    /// parent data, so the index and its path section disagree.
    MissingLabel {
        /// The vertex whose label run lacks the hub.
        vertex: VertexId,
        /// The hub's rank position that should have been present.
        hub_pos: u32,
    },
    /// Parent data violated an invariant while unpacking (non-decreasing
    /// distance along the chain). The message names the offending step.
    Corrupt(String),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::NoPathData => {
                write!(f, "index carries no path data (built without --paths)")
            }
            PathError::NotThisShard { vertex } => {
                write!(f, "vertex {vertex} is not owned by this shard")
            }
            PathError::MissingLabel { vertex, hub_pos } => write!(
                f,
                "vertex {vertex} has no label entry for hub position {hub_pos}; \
                 the path section does not match the labels"
            ),
            PathError::Corrupt(msg) => write!(f, "corrupt path data: {msg}"),
        }
    }
}

impl std::error::Error for PathError {}

/// Path reconstruction over an index that (optionally) carries per-entry
/// parent records. The extension-trait sibling of
/// [`crate::oracle::DistanceOracle`]: every storage backend implements it,
/// and backends without path data answer typed errors instead of panicking.
pub trait PathOracle {
    /// `true` when the backend carries parent records, i.e. [`Self::path`]
    /// can answer.
    fn has_path_data(&self) -> bool;

    /// The exact shortest path from `u` to `v`, endpoints included, as a
    /// contiguous edge walk: `Ok(Some([u, ..., v]))` whose weight sum is
    /// exactly `distance(u, v)`. `Ok(Some([u]))` for `u == v`; `Ok(None)`
    /// for disconnected pairs and out-of-range ids (the path-shaped
    /// `INFINITY`). `Err` only for indexes that cannot answer: no path
    /// data, foreign shard vertices, or corrupt parent records.
    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError>;
}

/// Shared references reconstruct like the oracle they point at.
impl<T: PathOracle + ?Sized> PathOracle for &T {
    fn has_path_data(&self) -> bool {
        (**self).has_path_data()
    }

    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        (**self).path(u, v)
    }
}

/// Follows parent records from `x` up to the hub at rank position
/// `hub_pos`, returning the chain **excluding** `x` itself (so it is empty
/// when `x` is the hub). Distances strictly decrease along a valid chain —
/// weights are positive — which bounds the loop and turns any forged cycle
/// into a typed error.
fn climb<'a, S: LabelStorage<'a>>(
    view: &LabelView<'a, S>,
    parents: &[u32],
    start: VertexId,
    hub_pos: u32,
) -> Result<Vec<VertexId>, PathError> {
    let mut chain = Vec::new();
    let mut x = start;
    let (mut idx, (_, mut d)) = view
        .entry_of(x, hub_pos)
        .ok_or(PathError::MissingLabel { vertex: x, hub_pos })?;
    while d != 0 {
        let p = parents[idx];
        chain.push(p);
        let (pidx, (_, pd)) = view
            .entry_of(p, hub_pos)
            .ok_or(PathError::MissingLabel { vertex: p, hub_pos })?;
        if pd >= d {
            return Err(PathError::Corrupt(format!(
                "parent chain of vertex {start} does not descend: vertex {x} at distance {d} \
                 points to vertex {p} at distance {pd}"
            )));
        }
        (x, idx, d) = (p, pidx, pd);
    }
    Ok(chain)
}

/// The whole reconstruction over any [`LabelView`] storage: witness-hub
/// join, two parent climbs, splice at the hub.
fn view_path<'a, S: LabelStorage<'a>>(
    view: &LabelView<'a, S>,
    u: VertexId,
    v: VertexId,
) -> Result<Option<Vec<VertexId>>, PathError> {
    let parents = view.parents().ok_or(PathError::NoPathData)?;
    let n = view.num_vertices();
    if u as usize >= n || v as usize >= n {
        return Ok(None);
    }
    if u == v {
        return Ok(Some(vec![u]));
    }
    let Some((hub_pos, _)) = view.join_hub_pos(u, v) else {
        return Ok(None);
    };
    // `up` runs u → hub and `down` runs v → hub, each excluding its own
    // start vertex and ending at the hub (empty when the start IS the hub).
    let up = climb(view, parents, u, hub_pos)?;
    let down = climb(view, parents, v, hub_pos)?;
    let mut path = Vec::with_capacity(2 + up.len() + down.len());
    path.push(u);
    path.extend_from_slice(&up);
    // The hub sits at the end of whichever chain is non-empty; walk the
    // down chain backwards from just before the hub to finish at v.
    if let Some(below_hub) = down.len().checked_sub(1) {
        path.extend(down[..below_hub].iter().rev());
        path.push(v);
    }
    Ok(Some(path))
}

impl<'a, S: LabelStorage<'a>> PathOracle for LabelView<'a, S> {
    fn has_path_data(&self) -> bool {
        LabelView::has_path_data(self)
    }

    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        view_path(self, u, v)
    }
}

impl PathOracle for IndexView<'_> {
    fn has_path_data(&self) -> bool {
        IndexView::has_path_data(self)
    }

    /// Shard-honest on a shard file: an endpoint or interior chain vertex
    /// owned elsewhere answers [`PathError::NotThisShard`] (interior
    /// vertices can escape the owned set even when both endpoints are
    /// owned — the witness hub may live on another shard).
    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        if let Some(shard) = self.shard() {
            let n = self.num_vertices();
            for id in [u, v] {
                if (id as usize) < n && !shard.owns(id) {
                    return Err(PathError::NotThisShard { vertex: id });
                }
            }
        }
        let result = match &self.storage {
            crate::flat::StorageView::Flat(view) => view_path(view, u, v),
            crate::flat::StorageView::Compressed(view) => view_path(view, u, v),
        };
        match (result, self.shard()) {
            // A chain vertex with no labels on this shard is not corruption
            // of a sharded file — it is the shard boundary.
            (Err(PathError::MissingLabel { vertex, .. }), Some(shard)) if !shard.owns(vertex) => {
                Err(PathError::NotThisShard { vertex })
            }
            (result, _) => result,
        }
    }
}

impl PathOracle for FlatIndex {
    fn has_path_data(&self) -> bool {
        FlatIndex::has_path_data(self)
    }

    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        self.as_index_view().path(u, v)
    }
}

impl PathOracle for MmapIndex {
    fn has_path_data(&self) -> bool {
        MmapIndex::has_path_data(self)
    }

    fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        self.view().path(u, v)
    }
}

/// Derives the per-entry parent records of `index` from the graph it was
/// built on: for every label entry `(h, d)` of vertex `v` with `d > 0`, the
/// parent is the first CSR-order neighbor `w` of `v` with
/// `dist(w, h) + weight(v, w) == d` — a vertex one edge along a shortest
/// path toward the hub, which canonicality guarantees also carries `h`.
/// Zero-distance entries are self-parented. The per-vertex derivation runs
/// in parallel (`rayon::map`).
///
/// Fails with [`PathError::Corrupt`] when `graph` does not match the index
/// (wrong vertex count, or no neighbor witnesses an entry).
pub fn compute_parents(graph: &CsrGraph, index: &FlatIndex) -> Result<Vec<u32>, PathError> {
    let n = index.num_vertices();
    if graph.num_vertices() != n {
        return Err(PathError::Corrupt(format!(
            "graph has {} vertices but the index covers {n}",
            graph.num_vertices()
        )));
    }
    let view = index.as_view();
    let per_vertex: Vec<Result<Vec<u32>, PathError>> = rayon::map(n, |v| {
        let v = v as VertexId;
        let run = view.labels_of(v);
        let mut parents = Vec::with_capacity(run.len());
        for e in run {
            if e.dist == 0 {
                parents.push(v);
                continue;
            }
            let parent = graph
                .neighbors(v)
                .find(|&(w, wt)| {
                    view.entry_of(w, e.hub)
                        .is_some_and(|(_, (_, dw))| dist_add(dw, wt) == e.dist)
                })
                .map(|(w, _)| w);
            match parent {
                Some(w) => parents.push(w),
                None => {
                    return Err(PathError::Corrupt(format!(
                        "no neighbor of vertex {v} witnesses its label (hub position {}, \
                         distance {}); was the index built from this graph?",
                        e.hub, e.dist
                    )))
                }
            }
        }
        Ok(parents)
    });
    let mut parents = Vec::with_capacity(index.total_labels());
    for chunk in per_vertex {
        parents.extend(chunk?);
    }
    Ok(parents)
}

/// [`compute_parents`] + attach: the one-call way to make an in-memory
/// index path-capable (what `chl build --paths` runs before saving).
pub fn attach_parents(graph: &CsrGraph, index: FlatIndex) -> Result<FlatIndex, PathError> {
    let parents = compute_parents(graph, &index)?;
    Ok(index.with_validated_parents(parents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, ChlBuilder, RankingStrategy};
    use chl_graph::generators::{grid_network, GridOptions};

    fn grid_index() -> (CsrGraph, FlatIndex) {
        let g = grid_network(
            &GridOptions {
                rows: 4,
                cols: 4,
                ..GridOptions::default()
            },
            7,
        );
        let built = ChlBuilder::new(&g)
            .ranking(RankingStrategy::Degree)
            .algorithm(Algorithm::Pll)
            .build()
            .unwrap();
        (g, FlatIndex::from_index(&built.index))
    }

    #[test]
    fn paths_are_edge_walks_with_exact_weight() {
        let (g, index) = grid_index();
        let index = attach_parents(&g, index).unwrap();
        let weights: std::collections::HashMap<(u32, u32), u64> = g
            .edges()
            .flat_map(|e| [((e.u, e.v), e.w as u64), ((e.v, e.u), e.w as u64)])
            .collect();
        for u in 0..16 {
            for v in 0..16 {
                let d = index.query(u, v);
                let path = index.path(u, v).unwrap().expect("grid is connected");
                assert_eq!(*path.first().unwrap(), u);
                assert_eq!(*path.last().unwrap(), v);
                let mut sum = 0u64;
                for w in path.windows(2) {
                    sum += *weights
                        .get(&(w[0], w[1]))
                        .unwrap_or_else(|| panic!("({}, {}) is not an edge", w[0], w[1]));
                }
                assert_eq!(sum, d, "path {path:?} for ({u}, {v})");
                if u == v {
                    assert_eq!(path, vec![u]);
                }
            }
        }
    }

    #[test]
    fn no_path_data_is_a_typed_error() {
        let (_, index) = grid_index();
        assert!(!index.has_path_data());
        assert_eq!(index.path(0, 5), Err(PathError::NoPathData));
    }

    #[test]
    fn out_of_range_and_disconnected_answer_none() {
        let (g, index) = grid_index();
        let index = attach_parents(&g, index).unwrap();
        assert_eq!(index.path(0, 999).unwrap(), None);
        assert_eq!(index.path(999, 0).unwrap(), None);
    }

    #[test]
    fn mismatched_graph_is_reported() {
        let (_, index) = grid_index();
        let other = grid_network(
            &GridOptions {
                rows: 2,
                cols: 2,
                ..GridOptions::default()
            },
            7,
        );
        assert!(matches!(
            compute_parents(&other, &index),
            Err(PathError::Corrupt(_))
        ));
    }
}
