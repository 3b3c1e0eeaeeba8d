//! Flat, cache-contiguous storage of a hub labeling — owned or borrowed.
//!
//! [`HubLabelIndex`] keeps one heap allocation per vertex (`Vec<LabelSet>`),
//! which is the natural shape during construction — label sets grow
//! independently — but a poor shape for serving: every query chases two
//! pointers into unrelated heap regions, and the index cannot be written to
//! or read from disk without walking every allocation.
//!
//! The serving layout lives here in several shapes, with one query kernel:
//!
//! * [`LabelStorage`] abstracts **how a vertex's label run is materialized**:
//!   [`RawStore`] hands out plain `&[LabelEntry]` slices, while
//!   [`CompressedStore`] streams entries out of a delta+varint encoded byte
//!   blob (see the compressed `.chl` v2 section in [`crate::persist`])
//!   through a [`DecodeCursor`] — no decompressed copy ever exists.
//! * [`LabelView`] is the **ownership-agnostic query kernel**, generic over
//!   the storage: ranking order, CSR offsets and a [`LabelStorage`], with
//!   every query method defined once. [`FlatView`] and [`CompressedView`]
//!   are its two instantiations; [`IndexView`] is the runtime-dispatched
//!   either-of-them a `.chl` v2 file of unknown encoding serves through.
//! * [`FlatIndex`] is the thin owning wrapper: the same three arrays in
//!   `Vec`s plus the full [`Ranking`], delegating every query through
//!   [`FlatIndex::as_view`]. (A literal `Deref<Target = FlatView>` is not
//!   expressible — the view borrows from `self` — so the wrapper forwards
//!   method by method instead.)
//!
//! The flat layout is what the `.chl` on-disk format (see [`crate::persist`])
//! stores byte-for-byte, so loading an index is one read plus validation —
//! and, for v2 files, querying needs no copy at all. Conversion to and from
//! [`HubLabelIndex`] is lossless, and all layouts and encodings answer every
//! query identically (asserted by the persistence proptests and the golden
//! fixture corpus).

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use serde::{Deserialize, Serialize};

use chl_graph::types::{Distance, VertexId};
use chl_ranking::Ranking;

use crate::index::HubLabelIndex;
use crate::kernel;
use crate::labels::{join_sorted_iters, LabelEntry, LabelSet};
use crate::oracle::DistanceOracle;
use crate::persist::{self, PersistError, SaveOptions, ShardSpec};

/// How one vertex's label run is materialized out of a storage encoding.
///
/// The query kernel ([`LabelView`]) owns the CSR *shape* — the offsets array
/// saying how many labels each vertex has — while the storage owns the
/// *bytes* those labels live in. A storage only has to produce a cheap
/// cloneable cursor over one vertex's run, sorted strictly ascending by hub
/// rank position; the merge-join never learns whether the entries came from
/// a slice or a streaming decoder.
///
/// Implementations are `Copy` bundles of shared references, so views stay
/// cheap to pass around and hand to worker threads.
pub trait LabelStorage<'a>: Copy + Sync {
    /// Streaming iterator over one vertex's label run.
    type Cursor: Iterator<Item = LabelEntry> + Clone;

    /// The labels of vertex `v`, whose entry-index CSR bounds are
    /// `lo..hi` (taken from the validated offsets array).
    fn run(&self, v: usize, lo: usize, hi: usize) -> Self::Cursor;

    /// The same run as a plain contiguous slice, when this storage keeps
    /// entries decoded in memory; `None` for streaming encodings. This is
    /// what routes slice-backed storages into the tiered
    /// branchless/gallop join ([`crate::kernel::join_adaptive`]) while
    /// streaming decoders keep the iterator kernel.
    #[inline]
    fn raw_run(&self, _v: usize, _lo: usize, _hi: usize) -> Option<&'a [LabelEntry]> {
        None
    }

    /// Bytes of backing storage the entries occupy in this encoding.
    fn storage_bytes(&self) -> usize;

    /// Human-readable encoding name for diagnostics.
    fn encoding(&self) -> &'static str;
}

/// [`LabelStorage`] over plain `LabelEntry` records: the flat encoding,
/// where a run is literally a subslice.
#[derive(Debug, Clone, Copy)]
pub struct RawStore<'a> {
    entries: &'a [LabelEntry],
}

impl<'a> LabelStorage<'a> for RawStore<'a> {
    type Cursor = std::iter::Copied<std::slice::Iter<'a, LabelEntry>>;

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "lo/hi come from a monotone offsets array validated at construction or open"
    )]
    fn run(&self, _v: usize, lo: usize, hi: usize) -> Self::Cursor {
        self.entries[lo..hi].iter().copied()
    }

    #[inline]
    fn raw_run(&self, _v: usize, lo: usize, hi: usize) -> Option<&'a [LabelEntry]> {
        self.entries.get(lo..hi)
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.entries)
    }

    fn encoding(&self) -> &'static str {
        "flat"
    }
}

/// [`LabelStorage`] over the delta+varint compressed entries section of a
/// `.chl` v2 file (`FLAG_COMPRESSED_ENTRIES`): a per-vertex skip table into
/// a byte blob holding LEB128-encoded hub gaps and distances.
///
/// Queries decode the two runs they touch on the fly ([`DecodeCursor`]);
/// nothing else of the blob is ever expanded, so a mapped compressed index
/// serves straight from the page cache at the compressed footprint.
#[derive(Debug, Clone, Copy)]
pub struct CompressedStore<'a> {
    /// `skip[v]` is the byte offset of vertex `v`'s run in `blob`;
    /// `skip[n]` is the blob length. `n + 1` entries.
    skip: &'a [u64],
    /// Concatenated encoded runs, without tail padding.
    blob: &'a [u8],
}

impl<'a> CompressedStore<'a> {
    /// Assembles a compressed store from parts the persistence layer has
    /// fully validated (skip table monotone and consistent with the CSR
    /// offsets, every run decoding cleanly with canonical varints).
    pub(crate) fn from_validated_parts(skip: &'a [u64], blob: &'a [u8]) -> Self {
        debug_assert_eq!(*skip.last().unwrap_or(&0), blob.len() as u64);
        CompressedStore { skip, blob }
    }

    /// Encoded size of the entry payload in bytes (excluding the skip
    /// table), for compression-ratio reporting.
    pub fn encoded_len(&self) -> usize {
        self.blob.len()
    }
}

impl<'a> LabelStorage<'a> for CompressedStore<'a> {
    type Cursor = DecodeCursor<'a>;

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "skip is validated monotone with skip[n] == blob.len() at open; v < n is \
                  range-checked by the caller"
    )]
    fn run(&self, v: usize, lo: usize, hi: usize) -> Self::Cursor {
        let bytes = &self.blob[self.skip[v] as usize..self.skip[v + 1] as usize];
        DecodeCursor::new(bytes, hi - lo)
    }

    fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.skip) + self.blob.len()
    }

    fn encoding(&self) -> &'static str {
        "compressed (delta+varint)"
    }
}

/// Streaming decoder over one vertex's delta+varint encoded label run.
///
/// The bytes it walks were fully validated at load time (canonical varints,
/// strictly positive hub gaps, exact run length), so decoding is
/// unconditional arithmetic; the defensive `Option` handling below only
/// exists so that a misuse can never panic, merely end the run early.
#[derive(Debug, Clone)]
pub struct DecodeCursor<'a> {
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
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let gap = persist::read_uvarint(self.bytes, &mut self.pos)?;
        let dist = persist::read_uvarint(self.bytes, &mut self.pos)?;
        let hub = if self.first {
            self.first = false;
            gap as u32
        } else {
            // Strict hub sorting makes every later gap >= 1 (validated).
            self.prev_hub.wrapping_add(gap as u32)
        };
        self.prev_hub = hub;
        Some(LabelEntry::new(hub, dist))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A borrowed hub labeling in the CSR serving layout: the query kernel
/// shared by every storage backend and entries encoding.
///
/// The label run of vertex `v` spans CSR entry indexes
/// `offsets[v] .. offsets[v + 1]`, sorted ascending by hub rank position,
/// and is materialized by the [`LabelStorage`] `S`; `order[pos]` is the
/// vertex at rank position `pos` (most important first). Construction is
/// restricted to this crate — a view always comes from a validated source,
/// either [`FlatIndex::as_view`] or the persistence layer
/// ([`view_bytes`](crate::persist::view_bytes) /
/// [`open_view`](crate::persist::open_view)) — so the query methods can
/// index with the CSR invariants taken as given.
///
/// Views are `Copy`: a few fat pointers, cheap to pass around and to send
/// to worker threads.
#[derive(Debug, Clone, Copy)]
pub struct LabelView<'a, S: LabelStorage<'a>> {
    offsets: &'a [u64],
    store: S,
    order: &'a [VertexId],
    /// Per-entry parent records (`.chl` path section): `parents[i]` is the
    /// next vertex on the shortest path from entry `i`'s owner toward its
    /// hub, the owner itself for zero-distance entries. `None` when the
    /// source carried no path section.
    parents: Option<&'a [u32]>,
}

/// A [`LabelView`] over plain `LabelEntry` slices — the flat encoding.
pub type FlatView<'a> = LabelView<'a, RawStore<'a>>;

/// A [`LabelView`] streaming out of a delta+varint compressed entries
/// section — same kernel, decoded on the fly.
pub type CompressedView<'a> = LabelView<'a, CompressedStore<'a>>;

impl<'a, S: LabelStorage<'a>> LabelView<'a, S> {
    pub(crate) fn from_parts(order: &'a [VertexId], offsets: &'a [u64], store: S) -> Self {
        debug_assert_eq!(offsets.len(), order.len() + 1);
        LabelView {
            offsets,
            store,
            order,
            parents: None,
        }
    }

    /// Attaches validated per-entry parent records (one per label entry,
    /// validated by the persistence layer or [`crate::paths`]).
    pub(crate) fn with_parents(mut self, parents: &'a [u32]) -> Self {
        debug_assert_eq!(parents.len() as u64, *self.offsets.last().unwrap_or(&0));
        self.parents = Some(parents);
        self
    }

    /// The per-entry parent records, when the view carries path data.
    pub fn parents(&self) -> Option<&'a [u32]> {
        self.parents
    }

    /// `true` when [`Self::parents`] is present, i.e. path reconstruction
    /// is available on this view.
    pub fn has_path_data(&self) -> bool {
        self.parents.is_some()
    }

    /// Number of vertices covered by the view.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ranking's order array: `order()[pos]` is the vertex at rank
    /// position `pos`, most important first.
    pub fn order(&self) -> &'a [VertexId] {
        self.order
    }

    /// Vertex at rank position `pos`.
    ///
    /// # Panics
    ///
    /// Panics when `pos >= num_vertices()`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic on pos >= n; validated hubs are rank positions < n"
    )]
    pub fn vertex_at(&self, pos: u32) -> VertexId {
        self.order[pos as usize]
    }

    /// The CSR offsets array (`num_vertices + 1` entries, first `0`, last
    /// equal to [`Self::total_labels`]).
    pub fn offsets(&self) -> &'a [u64] {
        self.offsets
    }

    /// Streaming cursor over the labels of vertex `v`, or `None` when `v`
    /// is out of range. This is the storage-agnostic sibling of
    /// [`FlatView::try_labels_of`]: a flat store iterates a slice, a
    /// compressed store decodes as it goes.
    #[inline]
    pub fn label_run(&self, v: VertexId) -> Option<S::Cursor> {
        let lo = *self.offsets.get(v as usize)? as usize;
        let hi = *self.offsets.get(v as usize + 1)? as usize;
        Some(self.store.run(v as usize, lo, hi))
    }

    /// The run of vertex `v` as a plain slice, when the storage keeps
    /// entries decoded ([`LabelStorage::raw_run`]); `None` for streaming
    /// encodings or an out-of-range `v`.
    #[inline]
    fn raw_run_of(&self, v: VertexId) -> Option<&'a [LabelEntry]> {
        let lo = *self.offsets.get(v as usize)? as usize;
        let hi = *self.offsets.get(v as usize + 1)? as usize;
        self.store.raw_run(v as usize, lo, hi)
    }

    /// The merge join behind [`Self::query`] / [`Self::query_with_hub`]:
    /// slice-backed storages take the tiered branchless/gallop kernel,
    /// streaming storages keep the iterator join. Both runs must be in
    /// range.
    #[inline]
    fn join_runs(
        &self,
        lu: S::Cursor,
        lv: S::Cursor,
        u: VertexId,
        v: VertexId,
    ) -> Option<(u32, Distance)> {
        match (self.raw_run_of(u), self.raw_run_of(v)) {
            (Some(ra), Some(rb)) => kernel::join_adaptive(ra, rb),
            _ => join_sorted_iters(lu, lv),
        }
    }

    /// The minimizing `(hub rank position, distance)` of a PPSD query —
    /// [`Self::query_with_hub`] before the position is mapped to a vertex
    /// id. Path unpacking needs the raw position to look entries up on the
    /// parent chain. `None` for disconnected or out-of-range pairs.
    pub(crate) fn join_hub_pos(&self, u: VertexId, v: VertexId) -> Option<(u32, Distance)> {
        let (mut lu, lv) = (self.label_run(u)?, self.label_run(v)?);
        if u == v {
            // A vertex carries its own zero-distance entry in any canonical
            // labeling; report it so callers get a real (position, 0)
            // witness. An (invalid) empty run yields None, not a panic.
            return lu.find(|e| e.dist == 0).map(|e| (e.hub, 0));
        }
        self.join_runs(lu, lv, u, v)
    }

    /// Locates vertex `v`'s label entry for hub rank position `hub_pos`:
    /// `Some((global_entry_index, (hub_pos, dist)))` when present. The
    /// global index addresses the parallel [`Self::parents`] array. Flat
    /// storages binary-search the run; streaming storages scan the sorted
    /// cursor and stop early.
    pub(crate) fn entry_of(&self, v: VertexId, hub_pos: u32) -> Option<(usize, (u32, Distance))> {
        let lo = *self.offsets.get(v as usize)? as usize;
        if let Some(run) = self.raw_run_of(v) {
            let i = run.partition_point(|e| e.hub < hub_pos);
            let e = run.get(i)?;
            return (e.hub == hub_pos).then_some((lo + i, (e.hub, e.dist)));
        }
        for (i, e) in self.label_run(v)?.enumerate() {
            if e.hub == hub_pos {
                return Some((lo + i, (e.hub, e.dist)));
            }
            if e.hub > hub_pos {
                return None;
            }
        }
        None
    }

    /// Answers a PPSD query: the exact shortest-path distance between `u` and
    /// `v`, or [`chl_graph::types::INFINITY`] when they are not connected.
    /// Ids outside `0..num_vertices()` are unreachable, including
    /// `query(u, u)` for a nonexistent `u`.
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        let (Some(lu), Some(lv)) = (self.label_run(u), self.label_run(v)) else {
            return chl_graph::types::INFINITY;
        };
        if u == v {
            return 0;
        }
        self.join_runs(lu, lv, u, v)
            .map(|(_, d)| d)
            .unwrap_or(chl_graph::types::INFINITY)
    }

    /// Like [`Self::query`] but also reports the hub (as a vertex id) through
    /// which the minimum distance is achieved. `None` for disconnected pairs
    /// and for out-of-range ids.
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        let (lu, lv) = (self.label_run(u)?, self.label_run(v)?);
        if u == v {
            return Some((u, 0));
        }
        self.join_runs(lu, lv, u, v)
            .map(|(hub_pos, d)| (self.vertex_at(hub_pos), d))
    }

    /// Total number of labels stored.
    pub fn total_labels(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    /// Average label size per vertex (ALS).
    pub fn average_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.total_labels() as f64 / self.num_vertices() as f64
        }
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

    /// Human-readable name of the entries encoding backing this view.
    pub fn encoding(&self) -> &'static str {
        self.store.encoding()
    }

    /// Bytes of backing storage the view's slices span — for a view over a
    /// `.chl` v2 buffer, the file bytes actually touched by queries; for a
    /// compressed view this is the *encoded* footprint, not the 16-byte-per-
    /// entry decoded one. Unlike an owned [`FlatIndex`], a view carries no
    /// rank-position array, so this is smaller than
    /// [`FlatIndex::memory_bytes`] by `4 * n`.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets)
            + self.store.storage_bytes()
            + std::mem::size_of_val(self.order)
    }
}

impl<'a> FlatView<'a> {
    /// Assembles a flat view from raw parts, without validating the CSR
    /// invariants. Callers (the owning wrapper and the persistence layer)
    /// must have established them.
    pub(crate) fn from_validated_parts(
        order: &'a [VertexId],
        offsets: &'a [u64],
        entries: &'a [LabelEntry],
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), entries.len() as u64);
        LabelView::from_parts(order, offsets, RawStore { entries })
    }

    /// All label entries, concatenated in vertex order.
    pub fn entries(&self) -> &'a [LabelEntry] {
        self.store.entries
    }

    /// Label slice of vertex `v`, sorted ascending by hub rank position.
    ///
    /// # Panics
    ///
    /// Panics when `v >= num_vertices()`; use [`Self::try_labels_of`] for
    /// ids that may come from untrusted input.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic on v >= n; lo..hi come from validated monotone offsets"
    )]
    pub fn labels_of(&self, v: VertexId) -> &'a [LabelEntry] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.store.entries[lo..hi]
    }

    /// Label slice of vertex `v`, or `None` when `v` is out of range.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "lo/hi come from a monotone offsets array validated at construction or open"
    )]
    pub fn try_labels_of(&self, v: VertexId) -> Option<&'a [LabelEntry]> {
        let lo = *self.offsets.get(v as usize)? as usize;
        let hi = *self.offsets.get(v as usize + 1)? as usize;
        Some(&self.store.entries[lo..hi])
    }
}

impl<'a> CompressedView<'a> {
    /// Assembles a compressed view from parts the persistence layer has
    /// fully validated.
    pub(crate) fn from_validated_compressed_parts(
        order: &'a [VertexId],
        offsets: &'a [u64],
        skip: &'a [u64],
        blob: &'a [u8],
    ) -> Self {
        debug_assert_eq!(skip.len(), offsets.len());
        LabelView::from_parts(
            order,
            offsets,
            CompressedStore::from_validated_parts(skip, blob),
        )
    }

    /// Encoded size of the entry payload in bytes (excluding the skip
    /// table), for compression-ratio reporting.
    pub fn encoded_len(&self) -> usize {
        self.store.encoded_len()
    }
}

impl<'a, S: LabelStorage<'a>> DistanceOracle for LabelView<'a, S> {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.query(u, v)
    }

    fn num_vertices(&self) -> usize {
        LabelView::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        LabelView::memory_bytes(self)
    }

    // S×T blocks pivot on the hub side instead of running |S|·|T| point
    // queries; answers are identical per cell (property-tested).
    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        kernel::matrix_pivot(self, sources, targets)
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

/// Borrowed shard identity of a `.chl` v3 shard file: which shard this is,
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

/// The two entries encodings an [`IndexView`] can be backed by. Both arms
/// run the identical [`LabelView`] kernel; the enum is one match deep, not
/// a second implementation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StorageView<'a> {
    /// Flat 16-byte-record entries, reinterpreted in place (zero-copy).
    Flat(FlatView<'a>),
    /// Delta+varint compressed entries, decoded per label run as queries
    /// stream them.
    Compressed(CompressedView<'a>),
}

/// A borrowed view over a `.chl` v2/v3 buffer of either entries encoding —
/// what [`crate::persist::open_view`] returns and what
/// [`crate::mapped::MmapIndex`] hands out per query when the encoding is
/// only known at run time. A v3 shard file additionally carries its
/// [`ShardView`]; [`Self::try_query`] is the shard-honest query surface,
/// refusing foreign endpoints with a typed [`NotThisShard`] instead of the
/// silently wrong `INFINITY` the shard-blind [`Self::query`] would produce.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    pub(crate) storage: StorageView<'a>,
    pub(crate) shard: Option<ShardView<'a>>,
}

impl<'a> IndexView<'a> {
    /// Wraps a flat view (no shard identity).
    pub(crate) fn flat(view: FlatView<'a>) -> Self {
        IndexView {
            storage: StorageView::Flat(view),
            shard: None,
        }
    }

    /// Wraps a compressed view (no shard identity).
    pub(crate) fn compressed(view: CompressedView<'a>) -> Self {
        IndexView {
            storage: StorageView::Compressed(view),
            shard: None,
        }
    }

    /// Attaches a validated shard identity.
    pub(crate) fn with_shard(mut self, shard: ShardView<'a>) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Attaches validated per-entry parent records to the inner view.
    pub(crate) fn with_parents(mut self, parents: &'a [u32]) -> Self {
        self.storage = match self.storage {
            StorageView::Flat(view) => StorageView::Flat(view.with_parents(parents)),
            StorageView::Compressed(view) => StorageView::Compressed(view.with_parents(parents)),
        };
        self
    }

    /// The per-entry parent records, when the view carries path data.
    pub fn parents(&self) -> Option<&'a [u32]> {
        match &self.storage {
            StorageView::Flat(view) => view.parents(),
            StorageView::Compressed(view) => view.parents(),
        }
    }

    /// `true` when path reconstruction is available on this view.
    pub fn has_path_data(&self) -> bool {
        self.parents().is_some()
    }

    /// The shard identity of a v3 shard file; `None` for a whole index.
    pub fn shard(&self) -> Option<&ShardView<'a>> {
        self.shard.as_ref()
    }

    /// `true` when the view serves one shard of a sharded index.
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// Exact PPSD distance, [`chl_graph::types::INFINITY`] for disconnected
    /// or out-of-range pairs — same contract as [`LabelView::query`].
    ///
    /// This surface is shard-blind: on a shard file a foreign endpoint
    /// produces `INFINITY` because its label run is stored empty. Callers
    /// serving a shard must use [`Self::try_query`].
    #[inline]
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        match &self.storage {
            StorageView::Flat(view) => view.query(u, v),
            StorageView::Compressed(view) => view.query(u, v),
        }
    }

    /// Shard-honest query: `Ok` with the exact distance (out-of-range ids
    /// stay `INFINITY`, exactly like [`Self::query`]), `Err(NotThisShard)`
    /// when either endpoint is in range but owned by a different shard.
    /// On an unsharded view this never errs.
    #[inline]
    pub fn try_query(&self, u: VertexId, v: VertexId) -> Result<Distance, NotThisShard> {
        if let Some(shard) = &self.shard {
            let n = self.num_vertices() as u64;
            for id in [u, v] {
                if (id as u64) < n && !shard.owns(id) {
                    return Err(NotThisShard { vertex: id });
                }
            }
        }
        Ok(self.query(u, v))
    }

    /// Like [`Self::query`] but also reports the hub achieving the minimum.
    #[inline]
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        match &self.storage {
            StorageView::Flat(view) => view.query_with_hub(u, v),
            StorageView::Compressed(view) => view.query_with_hub(u, v),
        }
    }

    /// Number of vertices covered by the view. For a shard file this is the
    /// **global** vertex count of the unsharded index, not the owned count.
    pub fn num_vertices(&self) -> usize {
        match &self.storage {
            StorageView::Flat(view) => view.num_vertices(),
            StorageView::Compressed(view) => view.num_vertices(),
        }
    }

    /// Total number of labels stored (decoded count). For a shard file,
    /// only this shard's labels.
    pub fn total_labels(&self) -> usize {
        match &self.storage {
            StorageView::Flat(view) => view.total_labels(),
            StorageView::Compressed(view) => view.total_labels(),
        }
    }

    /// The CSR offsets array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &'a [u64] {
        match &self.storage {
            StorageView::Flat(view) => view.offsets(),
            StorageView::Compressed(view) => view.offsets(),
        }
    }

    /// The ranking's order array.
    pub fn order(&self) -> &'a [VertexId] {
        match &self.storage {
            StorageView::Flat(view) => view.order(),
            StorageView::Compressed(view) => view.order(),
        }
    }

    /// Maximum label-set size over all vertices.
    pub fn max_label_size(&self) -> usize {
        match &self.storage {
            StorageView::Flat(view) => view.max_label_size(),
            StorageView::Compressed(view) => view.max_label_size(),
        }
    }

    /// `true` when the underlying entries section is delta+varint
    /// compressed.
    pub fn is_compressed(&self) -> bool {
        matches!(self.storage, StorageView::Compressed(_))
    }

    /// Human-readable name of the entries encoding.
    pub fn encoding(&self) -> &'static str {
        match &self.storage {
            StorageView::Flat(view) => view.encoding(),
            StorageView::Compressed(view) => view.encoding(),
        }
    }

    /// Bytes of backing storage the view spans in its on-disk encoding.
    pub fn memory_bytes(&self) -> usize {
        let storage = match &self.storage {
            StorageView::Flat(view) => view.memory_bytes(),
            StorageView::Compressed(view) => view.memory_bytes(),
        };
        storage + self.shard.map_or(0, |s| std::mem::size_of_val(s.owned))
    }

    /// Copies the view into an owned [`FlatIndex`], decoding if compressed
    /// and preserving the shard identity if present.
    pub fn to_owned_index(&self) -> FlatIndex {
        self.to_owned_with(None)
    }

    /// The one view-to-owned conversion. `decoded` is a compressed view's
    /// entries when the caller already decoded them (the copying loader's
    /// validation pass does), so the blob is walked once; with `None` they
    /// are decoded here. Flat views copy their entries and ignore it.
    #[expect(
        clippy::expect_used,
        reason = "v iterates 0..n of this view, and views only exist over validated permutations"
    )]
    pub(crate) fn to_owned_with(self, decoded: Option<Vec<LabelEntry>>) -> FlatIndex {
        let entries = match (&self.storage, decoded) {
            (StorageView::Flat(view), _) => view.entries().to_vec(),
            (StorageView::Compressed(_), Some(entries)) => entries,
            (StorageView::Compressed(view), None) => {
                let mut entries = Vec::with_capacity(view.total_labels());
                for v in 0..view.num_vertices() as VertexId {
                    entries.extend(view.label_run(v).expect("v in range"));
                }
                entries
            }
        };
        debug_assert_eq!(entries.len(), self.total_labels());
        // Every part was validated when this view was built and the index
        // is a copy of the same storage, so the cross-section invariants
        // already hold — attach parents and shard identity directly instead
        // of routing through the fallible `with_parents` / `with_shard`.
        FlatIndex {
            offsets: self.offsets().to_vec(),
            entries,
            ranking: Ranking::from_order(self.order().to_vec(), self.num_vertices())
                .expect("views only exist over validated permutations"),
            shard: self.shard.as_ref().map(|s| s.to_spec()),
            parents: self.parents().map(<[u32]>::to_vec),
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

    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        match &self.storage {
            StorageView::Flat(view) => kernel::matrix_pivot(view, sources, targets),
            StorageView::Compressed(view) => kernel::matrix_pivot(view, sources, targets),
        }
    }
}

/// A hub labeling stored as two contiguous CSR-style arrays, owned.
///
/// This is a thin owning wrapper over the [`FlatView`] query kernel: the
/// arrays live in `Vec`s (plus the full [`Ranking`], whose rank-position
/// array the borrowed view does not need), and every query delegates through
/// [`FlatIndex::as_view`].
///
/// Build one with [`FlatIndex::from_index`] (or `From<&HubLabelIndex>`),
/// persist it with [`FlatIndex::save`] and reload it with
/// [`FlatIndex::load`]:
///
/// ```
/// use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
/// use chl_core::flat::FlatIndex;
/// use chl_graph::generators::{grid_network, GridOptions};
///
/// let g = grid_network(&GridOptions { rows: 5, cols: 5, ..GridOptions::default() }, 3);
/// let built = ChlBuilder::new(&g)
///     .ranking(RankingStrategy::Degree)
///     .algorithm(Algorithm::Pll)
///     .build()
///     .unwrap();
/// let flat = FlatIndex::from_index(&built.index);
/// assert_eq!(flat.query(0, 24), built.index.query(0, 24));
/// assert_eq!(flat.to_index().unwrap(), built.index);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatIndex {
    offsets: Vec<u64>,
    entries: Vec<LabelEntry>,
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

impl FlatIndex {
    /// Flattens a pointer-per-vertex index into contiguous storage.
    pub fn from_index(index: &HubLabelIndex) -> Self {
        let n = index.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(index.total_labels());
        offsets.push(0);
        for v in 0..n as VertexId {
            entries.extend_from_slice(index.labels_of(v).entries());
            offsets.push(entries.len() as u64);
        }
        FlatIndex {
            offsets,
            entries,
            ranking: index.ranking().clone(),
            shard: None,
            parents: None,
        }
    }

    /// Copies a borrowed view into owned storage (the inverse of
    /// [`FlatIndex::as_view`]); the only allocation a zero-copy load path
    /// performs when a caller explicitly asks for ownership.
    pub fn from_view(view: FlatView<'_>) -> Self {
        IndexView::flat(view).to_owned_index()
    }

    /// Borrows the index as the ownership-agnostic query kernel. All query
    /// methods on `FlatIndex` are thin forwards through this view, so owned
    /// and borrowed serving paths execute literally the same code.
    #[inline]
    pub fn as_view(&self) -> FlatView<'_> {
        let view =
            FlatView::from_validated_parts(self.ranking.order(), &self.offsets, &self.entries);
        match &self.parents {
            Some(p) => view.with_parents(p),
            None => view,
        }
    }

    /// Rebuilds the pointer-per-vertex [`HubLabelIndex`]. The conversion is
    /// lossless: `FlatIndex::from_index(&i).to_index().unwrap() == i`.
    pub fn to_index(&self) -> Result<HubLabelIndex, crate::error::LabelingError> {
        let labels = (0..self.num_vertices() as VertexId)
            .map(|v| LabelSet::from_entries(self.labels_of(v).to_vec()))
            .collect();
        HubLabelIndex::new(labels, self.ranking.clone())
    }

    /// Assembles a flat index from raw parts, without validating the CSR
    /// invariants. The persistence layer calls this after its own validation;
    /// everything else should go through [`FlatIndex::from_index`].
    pub(crate) fn from_validated_parts(
        offsets: Vec<u64>,
        entries: Vec<LabelEntry>,
        ranking: Ranking,
    ) -> Self {
        debug_assert_eq!(offsets.len(), ranking.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), entries.len() as u64);
        FlatIndex {
            offsets,
            entries,
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
        debug_assert_eq!(parents.len(), self.entries.len());
        self.parents = Some(parents);
        self
    }

    /// Attaches per-entry parent records for path reconstruction, one per
    /// label entry, validating the structural invariants (in-range ids,
    /// zero-distance entries self-parented, positive-distance entries not).
    pub fn with_parents(self, parents: Vec<u32>) -> Result<Self, PersistError> {
        persist::validate_parents(self.num_vertices(), &self.offsets, &self.entries, &parents)?;
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
        persist::check_shard_consistency(&shard.owned, &self.offsets)?;
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
                    let lo = self.offsets[v as usize] as usize;
                    let hi = self.offsets[v as usize + 1] as usize;
                    out.extend_from_slice(&all[lo..hi]);
                }
            }
            offsets.push(entries.len() as u64);
        }
        FlatIndex {
            offsets,
            entries,
            ranking: self.ranking.clone(),
            shard: None,
            parents,
        }
        .with_shard(spec)
    }

    /// Shard-honest query — same contract as [`IndexView::try_query`]: on
    /// a shard, an in-range endpoint owned by another shard is a typed
    /// [`NotThisShard`] instead of a silently wrong `INFINITY`.
    pub fn try_query(&self, u: VertexId, v: VertexId) -> Result<Distance, NotThisShard> {
        self.as_index_view().try_query(u, v)
    }

    /// Borrows the index as the runtime-dispatched [`IndexView`], shard
    /// identity included — the same shape the zero-copy load paths serve.
    pub fn as_index_view(&self) -> IndexView<'_> {
        let view = IndexView::flat(self.as_view());
        match &self.shard {
            Some(s) => view.with_shard(ShardView {
                shard_id: s.shard_id,
                shard_count: s.shard_count,
                zeta: s.zeta,
                owned: &s.owned,
            }),
            None => view,
        }
    }

    /// Number of vertices covered by the index.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ranking the labeling respects.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The CSR offsets array (`num_vertices + 1` entries, first `0`, last
    /// equal to [`Self::total_labels`]).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// All label entries, concatenated in vertex order.
    pub fn entries(&self) -> &[LabelEntry] {
        &self.entries
    }

    /// Label slice of vertex `v`, sorted ascending by hub rank position.
    ///
    /// # Panics
    ///
    /// Panics when `v >= num_vertices()`; use [`Self::try_labels_of`] for
    /// ids that may come from untrusted input.
    #[inline]
    pub fn labels_of(&self, v: VertexId) -> &[LabelEntry] {
        self.as_view().labels_of(v)
    }

    /// Label slice of vertex `v`, or `None` when `v` is out of range.
    #[inline]
    pub fn try_labels_of(&self, v: VertexId) -> Option<&[LabelEntry]> {
        self.as_view().try_labels_of(v)
    }

    /// Answers a PPSD query: the exact shortest-path distance between `u` and
    /// `v`, or [`chl_graph::types::INFINITY`] when they are not connected.
    /// Same contract as [`HubLabelIndex::query`], on contiguous storage: ids
    /// outside `0..num_vertices()` are unreachable, including `query(u, u)`
    /// for a nonexistent `u`.
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        self.as_view().query(u, v)
    }

    /// Like [`Self::query`] but also reports the hub (as a vertex id) through
    /// which the minimum distance is achieved. `None` for disconnected pairs
    /// and for out-of-range ids.
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        self.as_view().query_with_hub(u, v)
    }

    /// Total number of labels stored.
    pub fn total_labels(&self) -> usize {
        self.entries.len()
    }

    /// Average label size per vertex (ALS).
    pub fn average_label_size(&self) -> f64 {
        self.as_view().average_label_size()
    }

    /// Maximum label-set size over all vertices.
    pub fn max_label_size(&self) -> usize {
        self.as_view().max_label_size()
    }

    /// Approximate heap memory consumed, in bytes: the two flat arrays plus
    /// both direction arrays of the [`Ranking`] (order and rank position) —
    /// everything resident when this index serves.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.entries.len() * std::mem::size_of::<LabelEntry>()
            + self.ranking.memory_bytes()
    }

    /// Serializes the index into the versioned `.chl` byte format
    /// (see [`crate::persist`] for the field-by-field layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        persist::to_bytes(self)
    }

    /// Serializes the index into `.chl` v3 bytes with explicit
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
    /// use chl_core::HubLabelIndex;
    /// use chl_ranking::Ranking;
    ///
    /// // Label a 3-vertex path graph 0 - 1 - 2 by hand.
    /// let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
    /// let index = HubLabelIndex::from_triples(
    ///     vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
    ///     ranking,
    /// );
    ///
    /// let path = std::env::temp_dir().join(format!("chl-doctest-{}.chl", std::process::id()));
    /// FlatIndex::from_index(&index).save(&path).unwrap();
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

impl From<&HubLabelIndex> for FlatIndex {
    fn from(index: &HubLabelIndex) -> Self {
        FlatIndex::from_index(index)
    }
}

impl From<FlatView<'_>> for FlatIndex {
    fn from(view: FlatView<'_>) -> Self {
        FlatIndex::from_view(view)
    }
}

impl DistanceOracle for FlatIndex {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.query(u, v)
    }

    fn num_vertices(&self) -> usize {
        FlatIndex::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        FlatIndex::memory_bytes(self)
    }

    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        kernel::matrix_pivot(&self.as_view(), sources, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::types::INFINITY;

    fn tiny_index() -> HubLabelIndex {
        // Path 0 - 1 - 2, ranking 1 > 0 > 2 (see index.rs tests).
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        )
    }

    #[test]
    fn flat_answers_identically_to_pointer_layout() {
        let idx = tiny_index();
        let flat = FlatIndex::from_index(&idx);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(flat.query(u, v), idx.query(u, v), "({u}, {v})");
                assert_eq!(flat.query_with_hub(u, v), idx.query_with_hub(u, v));
            }
        }
    }

    #[test]
    fn view_is_the_same_kernel_as_the_owned_index() {
        let flat = FlatIndex::from_index(&tiny_index());
        let view = flat.as_view();
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
        assert_eq!(FlatIndex::from_view(copy), flat);
        assert_eq!(FlatIndex::from(view), flat);
    }

    #[test]
    fn conversion_round_trips_losslessly() {
        let idx = tiny_index();
        let flat = FlatIndex::from(&idx);
        assert_eq!(flat.to_index().unwrap(), idx);
    }

    #[test]
    fn csr_shape_and_statistics_match() {
        let idx = tiny_index();
        let flat = FlatIndex::from_index(&idx);
        assert_eq!(flat.num_vertices(), 3);
        assert_eq!(flat.offsets(), &[0, 2, 3, 5]);
        assert_eq!(flat.total_labels(), idx.total_labels());
        assert_eq!(flat.max_label_size(), idx.max_label_size());
        assert!((flat.average_label_size() - idx.average_label_size()).abs() < 1e-12);
        assert_eq!(flat.labels_of(1).len(), 1);
        assert!(flat.memory_bytes() > 0);
    }

    #[test]
    fn memory_bytes_accounts_for_the_ranking_too() {
        let flat = FlatIndex::from_index(&tiny_index());
        let n = flat.num_vertices();
        let arrays = std::mem::size_of_val(flat.offsets()) + std::mem::size_of_val(flat.entries());
        // The owned index keeps order + position (8 bytes per vertex)...
        assert_eq!(flat.memory_bytes(), arrays + 8 * n);
        // ...while a borrowed view only spans the order array (4 per vertex).
        assert_eq!(flat.as_view().memory_bytes(), arrays + 4 * n);
    }

    #[test]
    fn empty_index_flattens() {
        let flat = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(4)));
        assert_eq!(flat.num_vertices(), 4);
        assert_eq!(flat.total_labels(), 0);
        assert_eq!(flat.query(0, 3), INFINITY);
        assert_eq!(flat.query(2, 2), 0);
        assert_eq!(flat.max_label_size(), 0);
        assert_eq!(flat.average_label_size(), 0.0);
    }

    #[test]
    fn zero_vertex_index_flattens() {
        let flat = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(0)));
        assert_eq!(flat.num_vertices(), 0);
        assert_eq!(flat.average_label_size(), 0.0);
        assert_eq!(flat.offsets(), &[0]);
        assert_eq!(flat.as_view().num_vertices(), 0);
        assert_eq!(flat.as_view().average_label_size(), 0.0);
    }

    #[test]
    fn oracle_surface_matches_direct_calls() {
        let flat = FlatIndex::from_index(&tiny_index());
        let oracle: &dyn DistanceOracle = &flat;
        assert_eq!(oracle.distance(0, 2), 2);
        assert_eq!(oracle.num_vertices(), 3);
        assert!(oracle.memory_bytes() > 0);
        assert_eq!(oracle.distances(&[(0, 1), (0, 2)]), vec![1, 2]);
        // The borrowed view serves through the same trait.
        let view = flat.as_view();
        let oracle: &dyn DistanceOracle = &view;
        assert_eq!(oracle.distance(0, 2), 2);
        assert_eq!(oracle.distances(&[(0, 1), (0, 2)]), vec![1, 2]);
    }

    #[test]
    fn out_of_range_ids_are_unreachable_not_a_panic() {
        let flat = FlatIndex::from_index(&tiny_index()); // 3 vertices
        for &(u, v) in &[(0, 3), (3, 0), (3, 3), (7, 9), (u32::MAX, 0)] {
            assert_eq!(flat.query(u, v), INFINITY, "({u}, {v})");
            assert_eq!(flat.query_with_hub(u, v), None, "({u}, {v})");
            assert_eq!(flat.as_view().query(u, v), INFINITY, "view ({u}, {v})");
            assert_eq!(flat.as_view().query_with_hub(u, v), None);
        }
        // A self-query on a nonexistent vertex is NOT 0.
        assert_eq!(flat.query(3, 3), INFINITY);
        assert!(flat.try_labels_of(2).is_some());
        assert!(flat.try_labels_of(3).is_none());
        assert!(flat.as_view().try_labels_of(3).is_none());
        // Batch queries go through the same checked path.
        let oracle: &dyn DistanceOracle = &flat;
        assert_eq!(
            oracle.distances(&[(0, 2), (3, 3), (0, 9)]),
            vec![2, INFINITY, INFINITY]
        );
        assert!(!oracle.connected(3, 3));
    }
}
