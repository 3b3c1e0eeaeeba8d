//! Flat, cache-contiguous storage of a hub labeling — owned or borrowed.
//!
//! Every constructor grows its labels as per-vertex sets (the tables of
//! [`crate::table`]), because label sets grow independently while trees run.
//! A finished labeling leaves that shape at once: [`FlatIndex::new`] drains
//! the sets vertex by vertex into two exactly sized CSR arrays, which is the
//! shape every query, path, shard and file reads from here on.
//!
//! Two types serve that layout, with one query kernel:
//!
//! * [`IndexView`] is the borrowed index and the only home of the query
//!   logic: ranking order, CSR offsets and label entries, plus the optional
//!   parent records and shard identity, all borrowed. Its entries are flat
//!   8-byte [`FlatEntry`] records or the delta+varint encoding of the
//!   compressed `.chl` section (see [`crate::persist`]); a join branches on
//!   that once, as does each walk over one label run. Flat runs are slices
//!   for the tiered join ([`kernel::join_adaptive`]); compressed runs stream
//!   through a `DecodeCursor` into the iterator join, so no decompressed
//!   copy ever exists.
//! * [`FlatIndex`] is the owning wrapper: the two arrays behind one shared
//!   [`Arc`], so a clone is a reference-count bump, plus the full
//!   [`Ranking`]. It answers every query through
//!   [`FlatIndex::as_index_view`], exactly as the zero-copy load paths do.
//!
//! The flat layout is what the `.chl` on-disk format (see [`crate::persist`])
//! stores byte-for-byte (8 bytes a label, the distance narrowed to `u32`
//! once, in [`FlatIndex::new`]), so loading an index is one read plus validation —
//! and querying needs no copy at all. All layouts and
//! encodings answer every query identically (asserted by the persistence
//! proptests and the golden fixture corpus).

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::mem::size_of_val;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_ranking::Ranking;

use crate::error::LabelingError;
use crate::kernel;
use crate::labels::{join_sorted_iters, FlatEntry, LabelSet};
use crate::oracle::DistanceOracle;
use crate::persist::{self, PersistError, SaveOptions, ShardSpec};

/// Where an [`IndexView`]'s label entries live — the one storage branch of
/// the query kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Entries<'a> {
    /// Flat 8-byte records: vertex `v`'s run is
    /// `entries[offsets[v]..offsets[v + 1]]`.
    Flat(&'a [FlatEntry]),
    /// The delta+varint compressed entries section
    /// (`FLAG_COMPRESSED_ENTRIES`): `skip[v]` is the byte offset of vertex
    /// `v`'s run in `blob`, `skip[n]` the blob length.
    Compressed { skip: &'a [u64], blob: &'a [u8] },
}

/// One vertex's label run, sorted strictly ascending by hub rank position:
/// a slice of flat records, or a cursor decoding compressed ones.
#[derive(Debug, Clone)]
pub(crate) enum Run<'a> {
    Flat(std::slice::Iter<'a, FlatEntry>),
    Compressed(DecodeCursor<'a>),
}

impl Iterator for Run<'_> {
    type Item = FlatEntry;

    #[inline]
    fn next(&mut self) -> Option<FlatEntry> {
        match self {
            Run::Flat(run) => run.next().copied(),
            Run::Compressed(cursor) => cursor.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Run::Flat(run) => run.size_hint(),
            Run::Compressed(cursor) => cursor.size_hint(),
        }
    }

    // Internal iteration (`for_each`) branches once per run, not per entry.
    fn fold<B, F: FnMut(B, FlatEntry) -> B>(self, init: B, f: F) -> B {
        match self {
            Run::Flat(run) => run.copied().fold(init, f),
            Run::Compressed(cursor) => cursor.fold(init, f),
        }
    }
}

/// Streaming decoder over one vertex's delta+varint encoded label run.
///
/// The bytes it walks were fully validated at load time (canonical varints,
/// strictly positive hub gaps, distances within `u32`, exact run length),
/// so decoding is unconditional arithmetic; the defensive `Option` handling
/// below only exists so that a misuse can never panic, merely end the run
/// early.
#[derive(Debug, Clone)]
pub(crate) struct DecodeCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev_hub: u32,
    first: bool,
}

impl<'a> DecodeCursor<'a> {
    fn new(bytes: &'a [u8], count: usize) -> Self {
        DecodeCursor {
            bytes,
            pos: 0,
            remaining: count,
            prev_hub: 0,
            first: true,
        }
    }
}

impl Iterator for DecodeCursor<'_> {
    type Item = FlatEntry;

    #[inline]
    fn next(&mut self) -> Option<FlatEntry> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let gap = persist::read_uvarint(self.bytes, &mut self.pos)?;
        let dist = persist::read_uvarint(self.bytes, &mut self.pos)?;
        // Exact: the validator refused any distance past u32::MAX, and a
        // checked conversion here costs ~8 % of a compressed query.
        debug_assert!(dist <= u64::from(u32::MAX), "validated distance");
        let dist = dist as u32;
        let hub = if self.first {
            self.first = false;
            gap as u32
        } else {
            // Strict hub sorting makes every later gap >= 1 (validated).
            self.prev_hub.wrapping_add(gap as u32)
        };
        self.prev_hub = hub;
        Some(FlatEntry::new(hub, dist))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A query endpoint that is in range but whose labels live on a different
/// shard of a sharded index — the typed refusal a shard answers instead of
/// a silently wrong `INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotThisShard {
    /// The in-range endpoint this shard does not own.
    pub vertex: VertexId,
}

impl std::fmt::Display for NotThisShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vertex {} is not owned by this shard", self.vertex)
    }
}

impl std::error::Error for NotThisShard {}

/// Borrowed shard identity of a `.chl` shard file: which shard this is,
/// how the QDOL layout was derived, and the sorted vertex set whose label
/// runs the file actually carries.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// This file's shard number, `0 .. shard_count`.
    pub shard_id: u32,
    /// Shards the index was split into.
    pub shard_count: u32,
    /// QDOL partition count the owned set was derived from.
    pub zeta: u32,
    /// Owned vertex ids, sorted strictly ascending.
    pub owned: &'a [VertexId],
}

impl ShardView<'_> {
    /// `true` when this shard carries the labels of vertex `v`.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.owned.binary_search(&v).is_ok()
    }

    /// Copies the borrowed identity into an owned [`ShardSpec`].
    pub fn to_spec(&self) -> ShardSpec {
        ShardSpec {
            shard_id: self.shard_id,
            shard_count: self.shard_count,
            zeta: self.zeta,
            owned: self.owned.to_vec(),
        }
    }
}

/// A borrowed hub labeling in the CSR serving layout — the query kernel of
/// every backend: [`FlatIndex::as_index_view`], the zero-copy
/// [`crate::persist::open_view`] and [`crate::mapped::MmapIndex::view`].
///
/// The label run of vertex `v` spans CSR entry indexes
/// `offsets[v] .. offsets[v + 1]`, sorted ascending by hub rank position,
/// and lives in flat or compressed entries; `order[pos]` is the vertex at
/// rank position `pos` (most important first). A view only comes from a
/// validated source, so the query methods take the CSR invariants as
/// given. A shard file additionally carries its [`ShardView`];
/// [`Self::try_query`] is the shard-honest query surface, refusing foreign
/// endpoints with a typed [`NotThisShard`] instead of the silently wrong
/// `INFINITY` the shard-blind [`Self::query`] would produce.
///
/// Views are `Copy`: a few fat pointers, cheap to pass around and to send
/// to worker threads.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    pub(crate) order: &'a [VertexId],
    pub(crate) offsets: &'a [u64],
    pub(crate) entries: Entries<'a>,
    /// Per-entry parent records (`.chl` path section): `parents[i]` is the
    /// next vertex on the shortest path from entry `i`'s owner toward its
    /// hub, the owner itself for zero-distance entries.
    pub(crate) parents: Option<&'a [u32]>,
    pub(crate) shard: Option<ShardView<'a>>,
}

impl<'a> IndexView<'a> {
    /// The CSR entry range of vertex `v`, or `None` when `v` is out of
    /// range.
    #[inline]
    fn span(&self, v: VertexId) -> Option<Range<usize>> {
        let v = v as usize;
        Some(*self.offsets.get(v)? as usize..*self.offsets.get(v + 1)? as usize)
    }

    /// The decoder over vertex `v`'s run in compressed entries.
    #[inline]
    fn cursor(&self, skip: &'a [u64], blob: &'a [u8], v: VertexId) -> Option<DecodeCursor<'a>> {
        let count = self.span(v)?.len();
        let v = v as usize;
        let bytes = blob.get(*skip.get(v)? as usize..*skip.get(v + 1)? as usize)?;
        Some(DecodeCursor::new(bytes, count))
    }

    /// The label run of vertex `v`, or `None` when `v` is out of range.
    #[inline]
    pub(crate) fn run(&self, v: VertexId) -> Option<Run<'a>> {
        Some(match self.entries {
            Entries::Flat(entries) => Run::Flat(entries.get(self.span(v)?)?.iter()),
            Entries::Compressed { skip, blob } => Run::Compressed(self.cursor(skip, blob, v)?),
        })
    }

    /// The merge join of the runs of `u` and `v`, branching on the encoding
    /// once: flat runs take the tiered slice kernel, compressed runs the
    /// iterator join. `None` also when either id is out of range.
    #[inline]
    fn join(&self, u: VertexId, v: VertexId) -> Option<(u32, Distance)> {
        match self.entries {
            Entries::Flat(entries) => {
                kernel::join_adaptive(entries.get(self.span(u)?)?, entries.get(self.span(v)?)?)
            }
            Entries::Compressed { skip, blob } => {
                join_sorted_iters(self.cursor(skip, blob, u)?, self.cursor(skip, blob, v)?)
            }
        }
    }

    /// The minimizing `(hub rank position, distance)` of a PPSD query —
    /// [`Self::query_with_hub`] before the position is mapped to a vertex
    /// id. Path unpacking needs the raw position to look entries up on the
    /// parent chain. `None` for disconnected or out-of-range pairs.
    pub(crate) fn join_hub_pos(&self, u: VertexId, v: VertexId) -> Option<(u32, Distance)> {
        if u == v {
            // A vertex carries its own zero-distance entry in any canonical
            // labeling; report it so callers get a real (position, 0)
            // witness. An (invalid) empty run yields None, not a panic.
            return self.run(u)?.find(|e| e.dist == 0).map(|e| (e.hub, 0));
        }
        self.join(u, v)
    }

    /// Locates vertex `v`'s label entry for hub rank position `hub_pos`:
    /// `Some((global entry index, distance))` when present. The global
    /// index addresses the parallel [`Self::parents`] array. Flat runs are
    /// binary-searched; compressed runs are scanned, stopping early.
    pub(crate) fn entry_of(&self, v: VertexId, hub_pos: u32) -> Option<(usize, Distance)> {
        let lo = self.span(v)?.start;
        let (i, e) = match self.run(v)? {
            Run::Flat(run) => {
                let run = run.as_slice();
                let i = run.partition_point(|e| e.hub < hub_pos);
                (i, *run.get(i)?)
            }
            run => run.enumerate().find(|(_, e)| e.hub >= hub_pos)?,
        };
        (e.hub == hub_pos).then_some((lo + i, Distance::from(e.dist)))
    }

    /// Answers a PPSD query: the exact shortest-path distance between `u` and
    /// `v`, or [`INFINITY`] when they are not connected. Ids outside
    /// `0..num_vertices()` are unreachable, including `query(u, u)` for a
    /// nonexistent `u`.
    ///
    /// This surface is shard-blind: on a shard file a foreign endpoint
    /// produces `INFINITY` because its label run is stored empty. Callers
    /// serving a shard must use [`Self::try_query`].
    #[inline]
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        if u == v {
            return self.span(u).map_or(INFINITY, |_| 0);
        }
        self.join(u, v).map_or(INFINITY, |(_, d)| d)
    }

    /// Like [`Self::query`] but also reports the hub (as a vertex id) through
    /// which the minimum distance is achieved. `None` for disconnected pairs
    /// and for out-of-range ids.
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        if u == v {
            return self.span(u).map(|_| (u, 0));
        }
        let (hub_pos, d) = self.join(u, v)?;
        Some((*self.order.get(hub_pos as usize)?, d))
    }

    /// The shard-ownership rule: the first of `u`, `v` that is in range
    /// but owned by a different shard, or `None` when the pair is
    /// answerable here — always on a whole index, and for out-of-range ids,
    /// which are data (unreachable) on every server.
    #[inline]
    pub fn foreign_endpoint(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        let shard = self.shard.as_ref()?;
        let n = self.num_vertices();
        [u, v]
            .into_iter()
            .find(|&id| (id as usize) < n && !shard.owns(id))
    }

    /// Shard-honest query: `Ok` with the exact distance (out-of-range ids
    /// stay `INFINITY`, exactly like [`Self::query`]), `Err(NotThisShard)`
    /// when either endpoint is in range but owned by a different shard
    /// ([`Self::foreign_endpoint`]). On an unsharded view this never errs.
    #[inline]
    pub fn try_query(&self, u: VertexId, v: VertexId) -> Result<Distance, NotThisShard> {
        match self.foreign_endpoint(u, v) {
            Some(vertex) => Err(NotThisShard { vertex }),
            None => Ok(self.query(u, v)),
        }
    }

    /// The per-entry parent records, when the view carries path data.
    pub fn parents(&self) -> Option<&'a [u32]> {
        self.parents
    }

    /// `true` when path reconstruction is available on this view.
    pub fn has_path_data(&self) -> bool {
        self.parents.is_some()
    }

    /// The shard identity of a shard file; `None` for a whole index.
    pub fn shard(&self) -> Option<&ShardView<'a>> {
        self.shard.as_ref()
    }

    /// `true` when the view serves one shard of a sharded index.
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// Number of vertices covered by the view. For a shard file this is the
    /// **global** vertex count of the unsharded index, not the owned count.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of labels stored (decoded count). For a shard file,
    /// only this shard's labels.
    pub fn total_labels(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    /// The CSR offsets array (`num_vertices + 1` entries, first `0`, last
    /// equal to [`Self::total_labels`]).
    pub fn offsets(&self) -> &'a [u64] {
        self.offsets
    }

    /// The ranking's order array: `order()[pos]` is the vertex at rank
    /// position `pos`, most important first.
    pub fn order(&self) -> &'a [VertexId] {
        self.order
    }

    /// Maximum label-set size over all vertices.
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields exactly-2-element slices by construction"
    )]
    pub fn max_label_size(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `true` when the underlying entries section is delta+varint
    /// compressed.
    pub fn is_compressed(&self) -> bool {
        matches!(self.entries, Entries::Compressed { .. })
    }

    /// Human-readable name of the entries encoding.
    pub fn encoding(&self) -> &'static str {
        match self.entries {
            Entries::Flat(_) => "flat",
            Entries::Compressed { .. } => "compressed (delta+varint)",
        }
    }

    /// Bytes of backing storage the view spans in its on-disk encoding —
    /// for a view over a `.chl` buffer, the file bytes queries touch: the
    /// order, offsets and entries arrays (a compressed view counts its
    /// *encoded* skip table and blob, not the 8-byte-per-entry decoded
    /// size), the parent records and a shard's owned-vertex list. Unlike an
    /// owned [`FlatIndex`], a view carries no rank-position array, so this
    /// is smaller than [`FlatIndex::memory_bytes`] by `4 * n`.
    pub fn memory_bytes(&self) -> usize {
        let entries = match self.entries {
            Entries::Flat(entries) => size_of_val(entries),
            Entries::Compressed { skip, blob } => size_of_val(skip) + blob.len(),
        };
        size_of_val(self.offsets)
            + entries
            + size_of_val(self.order)
            + self.parents.map_or(0, size_of_val)
            + self.shard.map_or(0, |s| size_of_val(s.owned))
    }

    /// Copies the view into an owned [`FlatIndex`], decoding if compressed
    /// and preserving the parent records and shard identity if present.
    pub fn to_owned_index(&self) -> FlatIndex {
        self.to_owned_with(None)
    }

    /// The one view-to-owned conversion. `decoded` is a compressed view's
    /// entries when the caller already decoded them (the copying loader's
    /// validation pass does), so the blob is walked once; with `None` they
    /// are decoded here. Flat views copy their entries and ignore it.
    #[expect(
        clippy::expect_used,
        reason = "views only exist over validated permutations"
    )]
    pub(crate) fn to_owned_with(self, decoded: Option<Vec<FlatEntry>>) -> FlatIndex {
        let entries = match (self.entries, decoded) {
            (Entries::Flat(entries), _) => entries.to_vec(),
            (Entries::Compressed { .. }, Some(entries)) => entries,
            (Entries::Compressed { .. }, None) => {
                let mut entries = Vec::with_capacity(self.total_labels());
                for v in 0..self.num_vertices() as VertexId {
                    entries.extend(self.run(v).into_iter().flatten());
                }
                entries
            }
        };
        debug_assert_eq!(entries.len(), self.total_labels());
        // Every part was validated when this view was built and the index
        // is a copy of the same storage, so the cross-section invariants
        // already hold — attach parents and shard identity directly instead
        // of routing through the fallible `with_parents` / `with_shard`.
        let ranking = Ranking::from_order(self.order.to_vec(), self.num_vertices())
            .expect("views only exist over validated permutations");
        FlatIndex {
            shard: self.shard.as_ref().map(ShardView::to_spec),
            parents: self.parents.map(<[u32]>::to_vec),
            ..FlatIndex::from_validated_parts(self.offsets.to_vec(), entries, ranking)
        }
    }
}

impl DistanceOracle for IndexView<'_> {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.query(u, v)
    }

    fn num_vertices(&self) -> usize {
        IndexView::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        IndexView::memory_bytes(self)
    }

    // S×T blocks pivot on the hub side instead of running |S|·|T| point
    // queries; answers are identical per cell (property-tested).
    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        kernel::matrix_pivot(self, sources, targets)
    }
}

/// A hub labeling stored as two contiguous CSR-style arrays, owned.
///
/// The arrays sit behind one shared [`Arc`], next to the full [`Ranking`]
/// (whose rank-position array a borrowed view does not need); every query
/// runs on [`FlatIndex::as_index_view`]. A clone shares the arrays; the
/// parent records and the shard identity belong to each handle, so
/// attaching parents to a clone copies no label entry.
///
/// Every constructor returns one ([`crate::api::ChlBuilder::build`]);
/// persist it with [`FlatIndex::save`] and reload it with
/// [`FlatIndex::load`]:
///
/// ```
/// use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
/// use chl_graph::generators::{grid_network, GridOptions};
///
/// let g = grid_network(&GridOptions { rows: 5, cols: 5, ..GridOptions::default() }, 3);
/// let built = ChlBuilder::new(&g)
///     .ranking(RankingStrategy::Degree)
///     .algorithm(Algorithm::Pll)
///     .build()
///     .unwrap();
/// let shared = built.index.clone();
/// assert_eq!(shared.query(0, 24), built.index.query(0, 24));
/// assert_eq!(shared.labels_of(7).as_ptr(), built.index.labels_of(7).as_ptr());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatIndex {
    labels: Arc<Csr>,
    ranking: Ranking,
    /// Shard identity when this index is one QDOL shard of a larger index
    /// (labels present only for the owned vertex set, empty runs
    /// elsewhere); `None` for a whole index.
    shard: Option<ShardSpec>,
    /// Per-entry parent records for path reconstruction, parallel to
    /// `entries` (see [`crate::paths`]); `None` when the index carries no
    /// path data.
    parents: Option<Vec<u32>>,
}

/// The label arrays every clone of a [`FlatIndex`] shares: vertex `v`'s run
/// is `entries[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, PartialEq)]
struct Csr {
    offsets: Vec<u64>,
    entries: Vec<FlatEntry>,
}

impl FlatIndex {
    /// Drains per-vertex label sets (indexed by vertex id) into the CSR
    /// arrays, for the ranking whose positions the labels refer to. The
    /// entries array is sized exactly once, and each set is dropped as soon
    /// as it is copied, so the labeling never exists twice in full. This is
    /// where a labeling narrows: each wide entry becomes an 8-byte
    /// [`FlatEntry`].
    ///
    /// The shape check runs in release builds too: an index whose label-set
    /// count disagrees with its ranking corrupts every query that touches the
    /// missing tail, so the mismatch is an error, not a debug assertion. A
    /// distance past `u32::MAX` is [`LabelingError::DistanceOverflow`]; no
    /// entry is ever truncated.
    pub fn new(labels: Vec<LabelSet>, ranking: Ranking) -> Result<Self, LabelingError> {
        if labels.len() != ranking.len() {
            return Err(LabelingError::LabelShapeMismatch {
                label_sets: labels.len(),
                ranking_vertices: ranking.len(),
            });
        }
        let mut offsets = Vec::with_capacity(labels.len() + 1);
        let mut entries = Vec::with_capacity(labels.iter().map(LabelSet::len).sum());
        offsets.push(0);
        for (v, set) in labels.into_iter().enumerate() {
            for &e in set.entries() {
                entries.push(FlatEntry::narrow(e).ok_or(LabelingError::DistanceOverflow {
                    vertex: v as VertexId,
                    hub: e.hub,
                    dist: e.dist,
                })?);
            }
            offsets.push(entries.len() as u64);
        }
        Ok(FlatIndex::from_validated_parts(offsets, entries, ranking))
    }

    /// A handle sharing `index`'s label arrays: the same as
    /// `index.clone()`, a reference-count bump that copies no entry.
    pub fn from_index(index: &FlatIndex) -> Self {
        index.clone()
    }

    /// Borrows the index as the [`IndexView`] query kernel, parent records
    /// and shard identity included — the same shape the zero-copy load
    /// paths serve, so owned and borrowed serving run literally the same
    /// code.
    #[inline]
    pub fn as_index_view(&self) -> IndexView<'_> {
        IndexView {
            order: self.ranking.order(),
            offsets: &self.labels.offsets,
            entries: Entries::Flat(&self.labels.entries),
            parents: self.parents.as_deref(),
            shard: self.shard.as_ref().map(|s| ShardView {
                shard_id: s.shard_id,
                shard_count: s.shard_count,
                zeta: s.zeta,
                owned: &s.owned,
            }),
        }
    }

    /// Assembles a flat index from raw parts, without validating the CSR
    /// invariants. The persistence layer calls this after its own validation;
    /// everything else should go through [`FlatIndex::new`].
    pub(crate) fn from_validated_parts(
        offsets: Vec<u64>,
        entries: Vec<FlatEntry>,
        ranking: Ranking,
    ) -> Self {
        debug_assert_eq!(offsets.len(), ranking.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), entries.len() as u64);
        FlatIndex {
            labels: Arc::new(Csr { offsets, entries }),
            ranking,
            shard: None,
            parents: None,
        }
    }

    /// Attaches per-entry parent records the caller has already validated
    /// against this index's entries (the persistence layer after
    /// [`crate::persist`]'s cross-section checks, or
    /// [`crate::paths::compute_parents`] which constructs them correct).
    pub(crate) fn with_validated_parents(mut self, parents: Vec<u32>) -> Self {
        debug_assert_eq!(parents.len(), self.total_labels());
        self.parents = Some(parents);
        self
    }

    /// Attaches per-entry parent records for path reconstruction, one per
    /// label entry, validating the structural invariants (in-range ids,
    /// zero-distance entries self-parented, positive-distance entries not).
    pub fn with_parents(self, parents: Vec<u32>) -> Result<Self, PersistError> {
        persist::validate_parents(
            self.num_vertices(),
            self.offsets(),
            self.entries(),
            &parents,
        )?;
        Ok(self.with_validated_parents(parents))
    }

    /// The per-entry parent records, when this index carries path data.
    pub fn parents(&self) -> Option<&[u32]> {
        self.parents.as_deref()
    }

    /// `true` when path reconstruction is available on this index.
    pub fn has_path_data(&self) -> bool {
        self.parents.is_some()
    }

    /// Attaches a shard identity, making this index one QDOL shard of a
    /// larger index. Validates the spec against this index's dimensions and
    /// the cross-section invariant that every vertex **not** in the owned
    /// set has an empty label run — the property that makes the union of
    /// all shards the unsharded index.
    pub fn with_shard(mut self, shard: ShardSpec) -> Result<Self, PersistError> {
        shard.validate(self.num_vertices() as u64)?;
        persist::check_shard_consistency(&shard.owned, self.offsets())?;
        self.shard = Some(shard);
        Ok(self)
    }

    /// The shard identity, when this index is one shard of a sharded index.
    pub fn shard(&self) -> Option<&ShardSpec> {
        self.shard.as_ref()
    }

    /// Carves the shard described by `spec` out of this (whole) index:
    /// label runs are kept verbatim for owned vertices and emptied for all
    /// others, then the spec is attached via [`FlatIndex::with_shard`].
    /// Dimensions (`num_vertices`, ranking) are preserved, so the union of
    /// the shards produced for a covering partition reproduces this index
    /// exactly — the invariant `chl build --shards` relies on.
    #[expect(
        clippy::indexing_slicing,
        reason = "parents holds one record per entry (enforced at attach and load) and lo/hi \
                  come from the same validated monotone offsets as the entries slice"
    )]
    pub fn restrict_to_shard(&self, spec: ShardSpec) -> Result<FlatIndex, PersistError> {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        let mut parents = self.parents.as_ref().map(|_| Vec::new());
        offsets.push(0u64);
        for v in 0..n as VertexId {
            if spec.owns(v) {
                entries.extend_from_slice(self.labels_of(v));
                if let (Some(out), Some(all)) = (parents.as_mut(), self.parents.as_ref()) {
                    let lo = self.offsets()[v as usize] as usize;
                    let hi = self.offsets()[v as usize + 1] as usize;
                    out.extend_from_slice(&all[lo..hi]);
                }
            }
            offsets.push(entries.len() as u64);
        }
        FlatIndex {
            parents,
            ..FlatIndex::from_validated_parts(offsets, entries, self.ranking.clone())
        }
        .with_shard(spec)
    }

    /// Number of vertices covered by the index.
    pub fn num_vertices(&self) -> usize {
        self.offsets().len() - 1
    }

    /// The ranking the labeling respects.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The CSR offsets array (`num_vertices + 1` entries, first `0`, last
    /// equal to [`Self::total_labels`]).
    pub fn offsets(&self) -> &[u64] {
        &self.labels.offsets
    }

    /// All label entries, concatenated in vertex order.
    pub fn entries(&self) -> &[FlatEntry] {
        &self.labels.entries
    }

    /// Label slice of vertex `v`, sorted ascending by hub rank position.
    ///
    /// # Panics
    ///
    /// Panics when `v >= num_vertices()`; use [`Self::try_labels_of`] for
    /// ids that may come from untrusted input.
    #[inline]
    #[expect(clippy::expect_used, reason = "documented panic on v >= n")]
    pub fn labels_of(&self, v: VertexId) -> &[FlatEntry] {
        self.try_labels_of(v).expect("vertex id out of range")
    }

    /// Label slice of vertex `v`, or `None` when `v` is out of range.
    #[inline]
    pub fn try_labels_of(&self, v: VertexId) -> Option<&[FlatEntry]> {
        let lo = *self.offsets().get(v as usize)? as usize;
        let hi = *self.offsets().get(v as usize + 1)? as usize;
        self.entries().get(lo..hi)
    }

    /// [`IndexView::query`] on this index: the exact shortest-path distance
    /// between `u` and `v`, [`INFINITY`] when they are not connected or
    /// either id is out of range.
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        self.as_index_view().query(u, v)
    }

    /// [`IndexView::query_with_hub`] on this index: the distance and the
    /// hub achieving it. `None` for disconnected pairs and for out-of-range
    /// ids.
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        self.as_index_view().query_with_hub(u, v)
    }

    /// Total number of labels stored.
    pub fn total_labels(&self) -> usize {
        self.entries().len()
    }

    /// Average label size per vertex (ALS).
    pub fn average_label_size(&self) -> f64 {
        match self.num_vertices() {
            0 => 0.0,
            n => self.total_labels() as f64 / n as f64,
        }
    }

    /// Maximum label-set size over all vertices.
    pub fn max_label_size(&self) -> usize {
        self.as_index_view().max_label_size()
    }

    /// Heap memory consumed, in bytes — everything resident when this index
    /// serves: the two flat arrays, both direction arrays of the
    /// [`Ranking`] (order and rank position), the parent records (4 bytes
    /// per label) and a shard's owned-vertex list (4 bytes per owned
    /// vertex).
    pub fn memory_bytes(&self) -> usize {
        size_of_val(self.offsets())
            + size_of_val(self.entries())
            + self.ranking.memory_bytes()
            + self.parents().map_or(0, size_of_val)
            + self.shard().map_or(0, |s| size_of_val(s.owned.as_slice()))
    }

    /// Serializes the index into the versioned `.chl` byte format
    /// (see [`crate::persist`] for the field-by-field layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        persist::to_bytes(self)
    }

    /// Serializes the index into `.chl` bytes with explicit
    /// [`SaveOptions`] — `compress: true` writes the entries section
    /// delta+varint encoded (see [`crate::persist`]).
    pub fn to_bytes_with(&self, options: &SaveOptions) -> Vec<u8> {
        persist::to_bytes_with(self, options)
    }

    /// Deserializes an index from `.chl` bytes, validating magic, version,
    /// checksum and every CSR/ranking invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        persist::from_bytes(bytes)
    }

    /// Writes the index to `path` in the `.chl` format.
    ///
    /// A worked round-trip (the serving half runs in a fresh process in real
    /// deployments — `load` only needs the file):
    ///
    /// ```
    /// use chl_core::flat::FlatIndex;
    /// use chl_core::labels::{LabelEntry, LabelSet};
    /// use chl_ranking::Ranking;
    ///
    /// // Label a 3-vertex path graph 0 - 1 - 2 by hand: vertex 1 ranks
    /// // first, so hub position 0 is vertex 1.
    /// let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
    /// let set = |runs: &[(u32, u64)]| {
    ///     LabelSet::from_entries(runs.iter().map(|&(h, d)| LabelEntry::new(h, d)).collect())
    /// };
    /// let labels = vec![set(&[(0, 1), (1, 0)]), set(&[(0, 0)]), set(&[(0, 1), (2, 0)])];
    /// let index = FlatIndex::new(labels, ranking).unwrap();
    ///
    /// let path = std::env::temp_dir().join(format!("chl-doctest-{}.chl", std::process::id()));
    /// index.save(&path).unwrap();
    ///
    /// let served = FlatIndex::load(&path).unwrap();
    /// assert_eq!(served.query(0, 2), 2);
    /// assert_eq!(served.query(0, 2), index.query(0, 2));
    /// std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), PersistError> {
        persist::save(self, path)
    }

    /// Writes the index to `path` with explicit [`SaveOptions`]; with
    /// `compress: true` the entries section is delta+varint encoded and the
    /// file loads/serves through every path a flat file does.
    pub fn save_with<P: AsRef<std::path::Path>>(
        &self,
        path: P,
        options: &SaveOptions,
    ) -> Result<(), PersistError> {
        persist::save_with(self, path, options)
    }

    /// Reads an index from a `.chl` file written by [`Self::save`].
    /// Corruption of any kind — truncation, bit flips, wrong magic or
    /// version — is reported as a typed [`PersistError`], never a panic.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self, PersistError> {
        persist::load(path)
    }
}

/// Every call answers from one [`IndexView`] borrowed for that call.
impl DistanceOracle for FlatIndex {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.as_index_view().distance(u, v)
    }

    fn num_vertices(&self) -> usize {
        FlatIndex::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        FlatIndex::memory_bytes(self)
    }

    fn distances(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Distance> {
        self.as_index_view().distances(pairs)
    }

    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        self.as_index_view().matrix(sources, targets)
    }
}

#[cfg(test)]
impl FlatIndex {
    /// A labeling written as `(vertex, hub vertex id, distance)` triples.
    pub(crate) fn from_triples(
        triples: impl IntoIterator<Item = (VertexId, VertexId, Distance)>,
        ranking: Ranking,
    ) -> Self {
        let mut per_vertex = vec![Vec::new(); ranking.len()];
        for (v, hub, dist) in triples {
            per_vertex[v as usize]
                .push(crate::labels::LabelEntry::new(ranking.position(hub), dist));
        }
        let sets = per_vertex.into_iter().map(LabelSet::from_entries).collect();
        FlatIndex::new(sets, ranking).unwrap()
    }

    /// Each vertex's run as a growable set, for tests that clean or edit a
    /// finished labeling.
    pub(crate) fn label_sets(&self) -> Vec<LabelSet> {
        (0..self.num_vertices() as VertexId)
            .map(|v| LabelSet::from_entries(self.labels_of(v).iter().map(|&e| e.into()).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, ChlBuilder, RankingStrategy};
    use chl_graph::generators::{grid_network, GridOptions};
    use chl_graph::types::INFINITY;

    fn tiny_index() -> FlatIndex {
        // Path 0 - 1 - 2, ranking 1 > 0 > 2 (see index.rs tests).
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        )
    }

    #[test]
    fn flat_answers_identically_to_pointer_layout() {
        // The per-vertex sets a constructor grows, and the CSR they drain
        // into, answer alike.
        let flat = tiny_index();
        let sets = flat.label_sets();
        for u in 0..3 {
            for v in 0..3 {
                let (lu, lv) = (&sets[u as usize], &sets[v as usize]);
                let expected = if u == v { 0 } else { lu.query_distance(lv) };
                assert_eq!(flat.query(u, v), expected, "({u}, {v})");
                if u != v {
                    let hub = lu
                        .query_join(lv)
                        .map(|(h, d)| (flat.ranking().vertex_at(h), d));
                    assert_eq!(flat.query_with_hub(u, v), hub);
                }
            }
        }
    }

    #[test]
    fn clones_share_one_label_store() {
        let flat = tiny_index();
        for copy in [FlatIndex::from_index(&flat), flat.clone()] {
            for v in 0..3 {
                assert_eq!(copy.labels_of(v).as_ptr(), flat.labels_of(v).as_ptr());
            }
            assert_eq!(copy.offsets().as_ptr(), flat.offsets().as_ptr());
            assert_eq!(copy, flat);
        }
    }

    #[test]
    fn constructors_drain_into_an_exactly_sized_store() {
        let g = grid_network(
            &GridOptions {
                rows: 6,
                cols: 6,
                ..GridOptions::default()
            },
            5,
        );
        for algorithm in Algorithm::ALL {
            let result = ChlBuilder::new(&g)
                .ranking(RankingStrategy::Degree)
                .algorithm(algorithm)
                .threads(2)
                .build()
                .unwrap();
            let index = &result.index;
            assert_eq!(index.labels.entries.capacity(), index.total_labels());
            assert_eq!(index.labels.offsets.capacity(), g.num_vertices() + 1);
            assert_eq!(result.stats.labels_after_cleaning, index.total_labels());
        }
    }

    #[test]
    fn every_constructor_refuses_a_distance_past_u32() {
        use chl_graph::GraphBuilder;
        // Path 0 - 1 - 2 with both edges u32::MAX and vertex 0 ranked
        // first: vertex 2's label for hub 0 is 2 * u32::MAX.
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, u32::MAX);
        b.add_edge(1, 2, u32::MAX);
        let g = b.build().unwrap();
        let wide = 2 * Distance::from(u32::MAX);
        let refused = |result: Result<FlatIndex, LabelingError>| {
            matches!(
                result,
                Err(LabelingError::DistanceOverflow { vertex: 2, hub: 0, dist }) if dist == wide
            )
        };
        for algorithm in Algorithm::ALL {
            let built = ChlBuilder::new(&g)
                .ranking(RankingStrategy::Explicit(Ranking::identity(3)))
                .algorithm(algorithm)
                .threads(1)
                .build();
            assert!(refused(built.map(|r| r.index)), "{algorithm}");
        }
        let brute = crate::canonical::brute_force_chl(&g, &Ranking::identity(3));
        assert!(refused(brute));
        // With the middle vertex first every label fits, u32::MAX included.
        let fits = ChlBuilder::new(&g)
            .ranking(RankingStrategy::Explicit(
                Ranking::from_order(vec![1, 0, 2], 3).unwrap(),
            ))
            .algorithm(Algorithm::Pll)
            .build()
            .unwrap()
            .index;
        assert_eq!(fits.query(0, 2), wide);
        assert_eq!(fits.labels_of(0)[0], FlatEntry::new(0, u32::MAX));
    }

    #[test]
    fn view_is_the_same_kernel_as_the_owned_index() {
        let flat = tiny_index();
        let view = flat.as_index_view();
        assert_eq!(view.num_vertices(), flat.num_vertices());
        assert_eq!(view.total_labels(), flat.total_labels());
        assert_eq!(view.max_label_size(), flat.max_label_size());
        assert_eq!(view.order(), flat.ranking().order());
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(view.query(u, v), flat.query(u, v), "({u}, {v})");
                assert_eq!(view.query_with_hub(u, v), flat.query_with_hub(u, v));
            }
        }
        // Views are Copy and round-trip to an equal owned index.
        let copy = view;
        assert_eq!(copy.to_owned_index(), flat);
        assert_eq!(view.to_owned_index(), flat);
    }

    #[test]
    fn conversion_round_trips_losslessly() {
        let flat = tiny_index();
        let sets = flat.label_sets();
        let again = FlatIndex::new(sets.clone(), flat.ranking().clone()).unwrap();
        assert_eq!(again, flat);
        assert_eq!(again.label_sets(), sets);
    }

    #[test]
    fn csr_shape_and_statistics_match() {
        let flat = tiny_index();
        assert_eq!(flat.num_vertices(), 3);
        assert_eq!(flat.offsets(), &[0, 2, 3, 5]);
        assert_eq!(flat.total_labels(), 5);
        assert_eq!(flat.max_label_size(), 2);
        assert!((flat.average_label_size() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(flat.labels_of(1).len(), 1);
        assert!(flat.memory_bytes() > 0);
    }

    #[test]
    fn memory_bytes_accounts_for_the_ranking_too() {
        let flat = tiny_index();
        let n = flat.num_vertices();
        let arrays = std::mem::size_of_val(flat.offsets()) + std::mem::size_of_val(flat.entries());
        // The owned index keeps order + position (8 bytes per vertex)...
        assert_eq!(flat.memory_bytes(), arrays + 8 * n);
        // ...while a borrowed view only spans the order array (4 per vertex).
        assert_eq!(flat.as_index_view().memory_bytes(), arrays + 4 * n);
    }

    #[test]
    fn memory_bytes_counts_parent_records_and_the_owned_list() {
        // One parent per entry: self for distance 0, else vertex 1.
        let pathful = tiny_index().with_parents(vec![1, 0, 1, 1, 2]).unwrap();
        let (n, m) = (3, 5);
        // offsets (n + 1) * 8 + entries 8 m + order and position 8 n +
        // parents 4 m.
        assert_eq!(pathful.memory_bytes(), 8 * (n + 1) + 8 * m + 8 * n + 4 * m);
        assert_eq!(
            pathful.as_index_view().memory_bytes(),
            8 * (n + 1) + 8 * m + 4 * n + 4 * m
        );
        let spec = ShardSpec {
            shard_id: 0,
            shard_count: 3,
            zeta: 2,
            owned: vec![0, 1],
        };
        let shard = pathful.restrict_to_shard(spec).unwrap();
        // Vertex 2's two labels are gone; the owned list adds 4 per vertex.
        let (m, owned) = (3, 2);
        assert_eq!(shard.total_labels(), m);
        assert_eq!(
            shard.memory_bytes(),
            8 * (n + 1) + 8 * m + 8 * n + 4 * m + 4 * owned
        );
        assert_eq!(
            shard.as_index_view().memory_bytes(),
            8 * (n + 1) + 8 * m + 4 * n + 4 * m + 4 * owned
        );
        assert_eq!(DistanceOracle::memory_bytes(&shard), shard.memory_bytes());
    }

    #[test]
    fn empty_index_flattens() {
        let flat = FlatIndex::new(vec![LabelSet::new(); 4], Ranking::identity(4)).unwrap();
        assert_eq!(flat.num_vertices(), 4);
        assert_eq!(flat.total_labels(), 0);
        assert_eq!(flat.query(0, 3), INFINITY);
        assert_eq!(flat.query(2, 2), 0);
        assert_eq!(flat.max_label_size(), 0);
        assert_eq!(flat.average_label_size(), 0.0);
    }

    #[test]
    fn zero_vertex_index_flattens() {
        let flat = FlatIndex::new(Vec::new(), Ranking::identity(0)).unwrap();
        assert_eq!(flat.num_vertices(), 0);
        assert_eq!(flat.average_label_size(), 0.0);
        assert_eq!(flat.offsets(), &[0]);
        assert_eq!(flat.as_index_view().num_vertices(), 0);
    }

    #[test]
    fn oracle_surface_matches_direct_calls() {
        let flat = tiny_index();
        let oracle: &dyn DistanceOracle = &flat;
        assert_eq!(oracle.distance(0, 2), 2);
        assert_eq!(oracle.num_vertices(), 3);
        assert!(oracle.memory_bytes() > 0);
        assert_eq!(oracle.distances(&[(0, 1), (0, 2)]), vec![1, 2]);
        // The borrowed view serves through the same trait.
        let view = flat.as_index_view();
        let oracle: &dyn DistanceOracle = &view;
        assert_eq!(oracle.distance(0, 2), 2);
        assert_eq!(oracle.distances(&[(0, 1), (0, 2)]), vec![1, 2]);
    }

    #[test]
    fn out_of_range_ids_are_unreachable_not_a_panic() {
        let flat = tiny_index(); // 3 vertices
        let view = flat.as_index_view();
        for &(u, v) in &[(0, 3), (3, 0), (3, 3), (7, 9), (u32::MAX, 0)] {
            assert_eq!(flat.query(u, v), INFINITY, "({u}, {v})");
            assert_eq!(flat.query_with_hub(u, v), None, "({u}, {v})");
            assert_eq!(view.query(u, v), INFINITY, "view ({u}, {v})");
            assert_eq!(view.query_with_hub(u, v), None);
        }
        // A self-query on a nonexistent vertex is NOT 0.
        assert_eq!(flat.query(3, 3), INFINITY);
        assert!(flat.try_labels_of(2).is_some());
        assert!(flat.try_labels_of(3).is_none());
        assert!(view.run(3).is_none());
        // Batch queries go through the same checked path.
        let oracle: &dyn DistanceOracle = &flat;
        assert_eq!(
            oracle.distances(&[(0, 2), (3, 3), (0, 9)]),
            vec![2, INFINITY, INFINITY]
        );
        assert!(!oracle.connected(3, 3));
    }
}
