//! The versioned `.chl` on-disk index format.
//!
//! A `.chl` file is a byte-exact dump of a [`FlatIndex`]: the ranking that
//! gives hub positions their meaning, the CSR offsets array and the
//! contiguous label entries. Since version 2 the on-disk layout **is** the
//! query-time layout: every section starts on an 8-byte boundary and stores
//! its integers exactly as the in-memory arrays do, so a validated buffer can
//! be served through a borrowed [`FlatView`] without copying a single label
//! ([`view_bytes`]). Version 1 files (the original packed layout) keep
//! loading through the copying path ([`from_bytes`] / [`load`]).
//!
//! ## Version 3 layout (current)
//!
//! All integers little-endian; every section 8-byte aligned and zero-padded
//! to a multiple of 8 bytes:
//!
//! ```text
//! offset  size        field
//! 0       4           magic        "CHLI"
//! 4       4           version      u32, 3
//! 8       8           n            u64, number of vertices (global, even in a shard file)
//! 16      8           m            u64, number of label entries stored in this file
//! 24      4           flags        u32, bit 0 = compressed entries, bit 1 = sharded
//! 28      4           crc_ranking  u32, CRC-32 of the ranking section (incl. padding)
//! 32      4           crc_offsets  u32, CRC-32 of the offsets section
//! 36      4           crc_entries  u32, CRC-32 of the entries section
//! 40      4           crc_shard    u32, CRC-32 of the shard section (0 when not sharded)
//! 44      4           crc_header   u32, CRC-32 of header bytes 0..44
//! 48      n * 4 (+pad) ranking     vertex ids, most important first, zero-padded to 8
//! ..      (n+1) * 8   offsets      entries[offsets[v]..offsets[v+1]] labels vertex v
//! ..      m * 16      entries      (u32 hub rank position, u32 zero, u64 distance)
//! ..      see below   shard        optional shard section (flags bit 1)
//! ```
//!
//! `crc_header` closes the corruption-detection gap v2 left open: the first
//! 40 bytes of a v2 file sit outside all three section checksums, so a
//! flipped header field surfaced as a confusing downstream section error. A
//! v3 header is self-checking — any header flip is a precise
//! [`PersistError::HeaderChecksumMismatch`] before a single payload byte is
//! interpreted.
//!
//! The 16-byte entry record mirrors `#[repr(C)] LabelEntry` exactly (hub at
//! offset 0, distance at offset 8, four padding bytes that must be zero), so
//! `&[u8] -> &[LabelEntry]` is a pointer cast on little-endian hosts.
//!
//! ## Shard section (v3, flags bit 1)
//!
//! A sharded file holds one QDOL shard of an index: the **full** ranking and
//! the **full** `(n+1)`-slot offsets array (foreign vertices simply have
//! empty runs), but only the owned vertices' label entries — `m` counts the
//! entries actually present in this file. The trailing shard section records
//! which shard this is:
//!
//! ```text
//! offset  size             field
//! +0      4                shard_id     u32, < shard_count
//! +4      4                shard_count  u32, >= 1
//! +8      4                zeta         u32, QDOL partition count, >= 2
//! +12     4                owned_count  u32
//! +16     owned_count * 4  owned        strictly increasing vertex ids (+pad to 8)
//! ```
//!
//! Keeping `n` global means a shard file answers over the same vertex-id
//! space as the unsharded index; a query naming an in-range vertex the shard
//! does not own is a typed `NotThisShard` at the view layer (see
//! [`IndexView::try_query`](crate::flat::IndexView::try_query)), never a
//! silently wrong `INFINITY`. Validation enforces that every vertex outside
//! the owned set has an empty run, so the union of all shards' entries is
//! exactly the unsharded index.
//!
//! ## Path section (v3, flags bit 2)
//!
//! A file built with `chl build --paths` carries one parent record per label
//! entry, sandwiched between the entries section and the optional shard
//! section. `parents[i]` names the next vertex on the shortest path from the
//! entry's owning vertex toward the entry's hub vertex (`parents[i] == v`
//! exactly when the entry's distance is zero, i.e. the vertex is its own
//! hub). The v3 header is a fixed 48 bytes, so unlike the other sections the
//! path section carries its CRC in an 8-byte prelude of its own:
//!
//! ```text
//! offset  size        field
//! +0      4           crc_paths  u32, CRC-32 of everything after the prelude
//!                                (parents array + tail padding)
//! +4      4           reserved   u32, must be zero
//! +8      m * 4       parents    one vertex id per label entry, entry order
//! ..      pad to 8    zero padding
//! ```
//!
//! Load-time validation enforces the cross-section invariant that a
//! zero-distance entry's parent is the vertex itself and every other parent
//! is a distinct in-range vertex; the strictly-decreasing-distance walk that
//! guarantees unpacking terminates is enforced per query (see
//! [`crate::paths`]), so a hostile parents array yields a typed error, never
//! a hang or a panic.
//!
//! ## Version 2 layout (legacy, read-only)
//!
//! Identical to v3 without the `crc_shard`/`crc_header` words (40-byte
//! header) and without the shard section; the flags word knows only bit 0.
//! v2 files keep loading through every path; nothing writes them any more.
//!
//! ## Compressed entries section (flags bit 0)
//!
//! With [`FLAG_COMPRESSED_ENTRIES`] set in the flags word, the header,
//! ranking and offsets sections are unchanged but the entries section stores
//! delta+varint encoded label runs instead of 16-byte records:
//!
//! ```text
//! ..      (n+1) * 8        skip   u64 byte offsets: vertex v's encoded run is
//!                                 blob[skip[v]..skip[v+1]]; skip[n] = blob length
//! ..      skip[n] (+pad)   blob   per vertex, per entry: LEB128 gap, LEB128 dist
//! ```
//!
//! Within a run the first entry stores its hub rank position directly and
//! every later entry stores the gap to the previous hub (>= 1, since runs
//! are strictly hub-sorted); distances are plain LEB128 u64s. Both use
//! canonical (minimal-length) little-endian base-128 varints — overlong
//! encodings are rejected, which is what makes re-encoding byte-stable.
//! Because labels are hub-sorted, gaps are small and one entry typically
//! costs 2–4 bytes instead of 16 (the paper names the aggregate label store
//! as the memory bottleneck at scale).
//!
//! The skip table is what keeps decode O(label set): a query seeks straight
//! to the two runs it intersects and streams them through the
//! [`CompressedView`] kernel. `crc_entries`
//! covers the whole section (skip table, blob and tail padding), and the
//! expected file length is self-describing via `skip[n]` — validated with
//! the same exactness as the flat layout. Compressed files load everywhere
//! flat files do: the copying loader decodes into a [`FlatIndex`], while
//! [`open_view`] / `MmapIndex` serve them in place by streaming.
//!
//! ## Version 1 layout (legacy, read-only)
//!
//! ```text
//! offset  size        field
//! 0       4           magic    "CHLI"
//! 4       4           version  u32, 1
//! 8       8           n        u64
//! 16      8           m        u64
//! 24      4           crc32    u32, CRC-32 of every byte after the header
//! 28      n * 4       ranking
//! ..      (n+1) * 8   offsets
//! ..      m * 12      entries  (u32 hub, u64 distance) packed pairs
//! ```
//!
//! ## Versioning and compatibility policy
//!
//! `version` is bumped on **any** layout change; readers reject versions they
//! do not know ([`PersistError::UnsupportedVersion`]) rather than guessing.
//! The flags word is validated per version: bit 1 (sharded) is only legal in
//! v3, so a v2 reader keeps rejecting files it cannot represent. v1 files
//! load (copying) but cannot back a zero-copy view
//! ([`PersistError::NotZeroCopy`]); there is no in-place migration — an
//! index is cheap to rebuild from its graph, so old files are regenerated,
//! not converted. The writer emits only v3 ([`to_bytes`] / [`save`]); v2 is
//! an input format, and [`to_bytes_v1`] remains for compatibility tests and
//! old tooling.
//!
//! ## One section table
//!
//! A private planner, `plan`, alone decides the v2/v3 section order, the
//! 8-byte padding and where each CRC is stored. From the header and the
//! file's two self-describing words (the compressed blob length in the skip
//! table's last slot, the shard's owned count) it returns one row per
//! section: the span its CRC covers, its array, its CRC word and the bytes
//! besides padding that must be zero. The writer fills and seals the rows,
//! the validator walks them, the zero-copy casts cut their arrays out.
//!
//! ## One load path
//!
//! Every v2/v3 loader runs the same validator over the same bytes: the
//! borrowed [`open_view`] and `MmapIndex` serve the validated buffer in
//! place, and the copying [`from_bytes`] / [`load`] copy that validated view
//! into a [`FlatIndex`] (a compressed file's entries are decoded once, by
//! the validation pass itself). Only v1 has a reader of its own.
//!
//! ## Corruption detection
//!
//! Loading validates, in order: the magic, the version, the flags word, that
//! the file length matches the header's dimensions exactly (truncation and
//! trailing garbage are both rejected), the checksums — one CRC-32 per
//! section in v2, so integrity can be checked (and was computed by the
//! writer) incrementally, section by section, instead of in one pass over a
//! multi-GB payload — that all padding bytes are zero, and finally the
//! semantic invariants: the ranking is a permutation, the offsets start at
//! zero and rise monotonically to `m`, and every vertex's entries are
//! strictly hub-sorted with in-range hub positions. Every failure is a typed
//! [`PersistError`]; no input, however mangled, panics the loader.

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::fmt;
use std::fs;
use std::ops::Range;
use std::path::Path;

use chl_graph::types::VertexId;
use chl_ranking::Ranking;
use serde::{Deserialize, Serialize};

use crate::flat::{CompressedView, FlatIndex, FlatView, IndexView, ShardView, StorageView};
use crate::labels::LabelEntry;

/// File magic: "Canonical Hub Label Index".
pub const MAGIC: &[u8; 4] = b"CHLI";
/// Current format version. Bumped on any layout change.
pub const VERSION: u32 = 3;
/// The previous aligned format version (no header CRC, no shard section),
/// still readable on every load path but no longer written.
pub const VERSION_V2: u32 = 2;
/// The legacy packed format version, still readable via the copying path.
pub const VERSION_V1: u32 = 1;
/// Size of the v1 fixed header in bytes (`magic | version | n | m | crc32`).
pub const HEADER_LEN_V1: usize = 28;
/// Size of the v2 fixed header in bytes
/// (`magic | version | n | m | flags | crc_ranking | crc_offsets | crc_entries`).
pub const HEADER_LEN_V2: usize = 40;
/// Size of the v3 fixed header in bytes: the v2 header plus `crc_shard` and
/// `crc_header`. A multiple of [`SECTION_ALIGN`], so the ranking section
/// still starts aligned with no pad between header and payload.
pub const HEADER_LEN_V3: usize = 48;
/// Size of one serialized v1 label entry in bytes (`u32 hub | u64 dist`).
pub const ENTRY_LEN_V1: usize = 12;
/// Size of one serialized v2/v3 label entry in bytes
/// (`u32 hub | u32 zero | u64 dist`), identical to `size_of::<LabelEntry>()`.
pub const ENTRY_LEN_V2: usize = 16;
/// Alignment every v2/v3 section start and length is padded to.
pub const SECTION_ALIGN: usize = 8;
/// Flags bit 0: the entries section is delta+varint compressed (per-set
/// skip table + LEB128 hub gaps and distances) instead of 16-byte records.
pub const FLAG_COMPRESSED_ENTRIES: u32 = 1 << 0;
/// Flags bit 1 (v3 only): the file holds one QDOL shard — labels for the
/// owned vertex set recorded in the trailing shard section, empty runs for
/// every other vertex.
pub const FLAG_SHARDED: u32 = 1 << 1;
/// Flags bit 2 (v3 only): the file carries a per-entry parent/via-hub
/// section between the entries and shard sections, enabling shortest-path
/// reconstruction (see [`crate::paths`]). Files without it load fine;
/// `path()` then reports a typed
/// [`PathError::NoPathData`](crate::paths::PathError::NoPathData).
pub const FLAG_PATHS: u32 = 1 << 2;
/// Every flag bit a v2 file may carry; bits 1 and 2 need v3 sections.
pub const FLAGS_KNOWN_V2: u32 = FLAG_COMPRESSED_ENTRIES;
/// Every flag bit this reader understands (in a v3 file); any other bit set
/// is [`PersistError::UnsupportedFlags`].
pub const FLAGS_KNOWN: u32 = FLAG_COMPRESSED_ENTRIES | FLAG_SHARDED | FLAG_PATHS;

/// The flag bits legal for a given format version.
fn flags_known(version: u32) -> u32 {
    if version == VERSION_V2 {
        FLAGS_KNOWN_V2
    } else {
        FLAGS_KNOWN
    }
}

/// Writer knobs for [`to_bytes_with`] / [`save_with`]. The writer always
/// emits v3; the default writes flat entries, and `compress` switches the
/// entries section to the delta+varint encoding behind
/// [`FLAG_COMPRESSED_ENTRIES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveOptions {
    /// Delta-encode hub positions and varint-encode distances in the
    /// entries section. Several-fold smaller files; queries through the
    /// zero-copy paths stream-decode the two runs they touch instead of
    /// reinterpreting them in place.
    pub compress: bool,
}

impl SaveOptions {
    /// Options selecting the compressed entries encoding.
    pub fn compressed() -> Self {
        SaveOptions { compress: true }
    }
}

/// The payload sections of a `.chl` file, in file order. v2/v3 store one
/// checksum per section so corruption reports name the section hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The ranking order array (`order[pos] = vertex`).
    Ranking,
    /// The CSR offsets array.
    Offsets,
    /// The concatenated label entries.
    Entries,
    /// The v3 per-entry parent records (path reconstruction data).
    Paths,
    /// The trailing v3 shard section (shard identity + owned vertex set).
    Shard,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Ranking => "ranking",
            Section::Offsets => "offsets",
            Section::Entries => "entries",
            Section::Paths => "paths",
            Section::Shard => "shard",
        })
    }
}

/// Which QDOL shard a `.chl` v3 shard file holds: its identity within the
/// cluster and the sorted set of vertex ids whose labels it carries.
///
/// `zeta` is the QDOL partition count the layout was derived from
/// (`C(zeta, 2) <= shard_count`): a shard owning partition pair `(i, j)`
/// holds the complete labels of every vertex in partitions `i` and `j`, so
/// it can answer any query whose two endpoints both land in its owned set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index in `0..shard_count`.
    pub shard_id: u32,
    /// Total number of shards in the layout.
    pub shard_count: u32,
    /// The QDOL partition count the pair layout was derived from.
    pub zeta: u32,
    /// Strictly increasing vertex ids whose labels this shard holds.
    pub owned: Vec<VertexId>,
}

impl ShardSpec {
    /// `true` when this shard holds vertex `v`'s labels.
    pub fn owns(&self, v: VertexId) -> bool {
        self.owned.binary_search(&v).is_ok()
    }

    /// Number of vertices this shard owns.
    pub fn owned_count(&self) -> usize {
        self.owned.len()
    }

    /// The structural invariants every load path enforces: a sane identity
    /// and a strictly increasing owned set within `0..n`.
    pub fn validate(&self, n: u64) -> Result<(), PersistError> {
        validate_shard_meta(self.shard_id, self.shard_count, self.zeta, &self.owned, n)
    }
}

/// The shard section's structural invariants, shared by the copying and
/// zero-copy load paths: a sane identity and a strictly increasing owned
/// set within `0..n`.
fn validate_shard_meta(
    shard_id: u32,
    shard_count: u32,
    zeta: u32,
    owned: &[VertexId],
    n: u64,
) -> Result<(), PersistError> {
    if shard_count == 0 || shard_id >= shard_count {
        return Err(PersistError::Malformed(format!(
            "shard section: shard id {shard_id} out of range for {shard_count} shards"
        )));
    }
    if zeta < 2 {
        return Err(PersistError::Malformed(format!(
            "shard section: QDOL partition count {zeta} must be at least 2"
        )));
    }
    let mut prev: Option<VertexId> = None;
    for &v in owned {
        if u64::from(v) >= n {
            return Err(PersistError::Malformed(format!(
                "shard section: owned vertex {v} out of range for {n} vertices"
            )));
        }
        if prev.is_some_and(|p| p >= v) {
            return Err(PersistError::Malformed(
                "shard section: owned vertex ids must be strictly increasing".into(),
            ));
        }
        prev = Some(v);
    }
    Ok(())
}

/// The cross-section shard invariant: a vertex the shard does not own must
/// have an empty label run, so the union of all shards' entries is exactly
/// the unsharded index (no double counting, no smuggled labels).
#[expect(
    clippy::indexing_slicing,
    reason = "the offsets array holds exactly n + 1 entries and v < n is the loop bound"
)]
pub(crate) fn check_shard_consistency(
    owned: &[VertexId],
    offsets: &[u64],
) -> Result<(), PersistError> {
    let n = offsets.len() - 1;
    let mut owned = owned.iter().copied().peekable();
    for v in 0..n {
        if owned.peek().is_some_and(|&o| o as usize == v) {
            owned.next();
            continue;
        }
        if offsets[v + 1] != offsets[v] {
            return Err(PersistError::Malformed(format!(
                "shard section: vertex {v} has {} label entries but is not in the owned set",
                offsets[v + 1] - offsets[v]
            )));
        }
    }
    Ok(())
}

/// The cross-section invariants of the path section against the entries it
/// annotates: one parent per entry, every parent an in-range vertex id, a
/// zero-distance entry (the vertex is its own hub) pointing at itself, and
/// every positive-distance entry pointing at a *different* vertex (the walk
/// must move). The strictly-decreasing-distance property that guarantees
/// unpacking terminates is enforced per query (see [`crate::paths`]) so the
/// loader stays O(m).
#[expect(
    clippy::indexing_slicing,
    reason = "offsets are monotone and end at entries.len() (checked by the offsets battery, or \
              a FlatIndex invariant), and parents.len() == entries.len() is checked first"
)]
pub(crate) fn validate_parents(
    n: usize,
    offsets: &[u64],
    entries: &[LabelEntry],
    parents: &[u32],
) -> Result<(), PersistError> {
    if parents.len() != entries.len() {
        return Err(PersistError::Malformed(format!(
            "paths section: {} parent records for {} label entries",
            parents.len(),
            entries.len()
        )));
    }
    for v in 0..n {
        let lo = offsets[v] as usize;
        let hi = offsets[v + 1] as usize;
        for (e, &p) in entries[lo..hi].iter().zip(&parents[lo..hi]) {
            check_parent_entry(n, v as VertexId, e.dist, p)?;
        }
    }
    Ok(())
}

/// The per-entry half of [`validate_parents`], shared with the streaming
/// compressed validator (which never materializes the entries).
fn check_parent_entry(n: usize, v: VertexId, dist: u64, parent: u32) -> Result<(), PersistError> {
    if parent as usize >= n {
        return Err(PersistError::Malformed(format!(
            "paths section: vertex {v} has parent {parent} out of range for {n} vertices"
        )));
    }
    if dist == 0 && parent != v {
        return Err(PersistError::Malformed(format!(
            "paths section: zero-distance entry of vertex {v} must be its own parent, found {parent}"
        )));
    }
    if dist != 0 && parent == v {
        return Err(PersistError::Malformed(format!(
            "paths section: positive-distance entry of vertex {v} points at itself"
        )));
    }
    Ok(())
}

/// Errors produced while reading or writing `.chl` index files.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `CHLI` magic — not an index file.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file was written by a format version this reader does not know.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
    },
    /// The flags word carries bits this reader does not understand (or, for
    /// a v2 file, bits only v3 defines — like the sharded bit).
    UnsupportedFlags {
        /// Flags word stamped in the file.
        found: u32,
    },
    /// The v3 header CRC does not match the header bytes: one of the first
    /// 48 bytes was corrupted, so none of the header's dimensions or section
    /// checksums can be trusted. (v2 headers carry no such check — see
    /// [`PersistError::Malformed`] diagnostics on the v2 path.)
    HeaderChecksumMismatch {
        /// `crc_header` stored in the file.
        stored: u32,
        /// CRC-32 computed over header bytes 0..44 as read.
        computed: u32,
    },
    /// A v3 header passed its CRC but declares something no writer produces
    /// (impossible dimensions, a non-zero shard checksum on an unsharded
    /// file): the file was written wrong, not corrupted in transit.
    HeaderMalformed(String),
    /// The file is shorter than its header claims — an interrupted write or
    /// a truncated copy.
    Truncated {
        /// Bytes the header (or the fixed header size) requires.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The file is longer than its header claims; the surplus would be
    /// silently ignored data, so it is rejected.
    TrailingBytes {
        /// Surplus bytes after the declared payload.
        extra: usize,
    },
    /// The v1 whole-payload checksum does not match — the bytes were
    /// corrupted after the header was written (bit rot, torn write, manual
    /// edit).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// A v2 per-section checksum does not match; the named section was
    /// corrupted after the header was written.
    SectionChecksumMismatch {
        /// The section whose bytes disagree with the header.
        section: Section,
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the section actually read.
        computed: u32,
    },
    /// A v2 padding byte (section tail padding or the four reserved bytes
    /// inside an entry record) is not zero — a forged or hand-edited file,
    /// since every padding flip in a written file already fails its section
    /// checksum.
    NonZeroPadding {
        /// Absolute file offset of the offending byte.
        offset: usize,
    },
    /// The bytes are a valid-looking v2/v3 file but cannot back a zero-copy
    /// view in this process: the buffer's base address is not 8-byte
    /// aligned, or the host is big-endian (sections are reinterpreted in
    /// place as little-endian words). A misaligned buffer loads through
    /// [`from_bytes`] (which stages it aligned) or views from an
    /// [`AlignedBytes`] / mmap-backed buffer; a big-endian host loads no
    /// v2/v3 file on any path.
    Unviewable {
        /// What the buffer or host lacks.
        reason: &'static str,
    },
    /// The file's format version predates the aligned v2 layout: it can only
    /// be loaded through the copying path ([`from_bytes`] / [`load`]).
    NotZeroCopy {
        /// Version stamped in the file.
        version: u32,
    },
    /// The bytes checksum correctly but violate a semantic invariant
    /// (non-permutation ranking, non-monotonic offsets, unsorted or
    /// out-of-range hubs) — a writer bug or a forged file.
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic { found } => write!(
                f,
                "not a .chl index file: expected magic {MAGIC:?}, found {found:?}"
            ),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported .chl format version {found} (this reader understands up to {VERSION})"
            ),
            PersistError::UnsupportedFlags { found } => write!(
                f,
                "unsupported .chl flags {found:#010x} for this format version"
            ),
            PersistError::HeaderChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt .chl header: stored header checksum {stored:#010x}, computed {computed:#010x} \
                 — the header itself was damaged, none of its fields can be trusted"
            ),
            PersistError::HeaderMalformed(msg) => {
                write!(f, "malformed .chl header: {msg}")
            }
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated .chl file: expected {expected} bytes, found {found}"
            ),
            PersistError::TrailingBytes { extra } => {
                write!(
                    f,
                    ".chl file has {extra} trailing bytes beyond its declared payload"
                )
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt .chl payload: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::SectionChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "corrupt .chl {section} section: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::NonZeroPadding { offset } => write!(
                f,
                "malformed .chl file: padding byte at offset {offset} is not zero"
            ),
            PersistError::Unviewable { reason } => write!(
                f,
                "buffer cannot back a zero-copy .chl view ({reason}); load it with the copying reader instead"
            ),
            PersistError::NotZeroCopy { version } => write!(
                f,
                ".chl format v{version} predates the aligned zero-copy layout (v{VERSION}): \
                 load it with the copying reader or rebuild the index"
            ),
            PersistError::Malformed(msg) => write!(f, "malformed .chl index: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The checksums a `.chl` header stores: one CRC over the whole payload in
/// v1, one CRC per section in v2 (the incremental mode — each section can be
/// produced and verified independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksums {
    /// v1: a single CRC-32 over every byte after the header.
    WholePayload(u32),
    /// v2: one CRC-32 per section, each covering the section's data bytes
    /// and its tail padding.
    PerSection {
        /// CRC-32 of the ranking section.
        ranking: u32,
        /// CRC-32 of the offsets section.
        offsets: u32,
        /// CRC-32 of the entries section.
        entries: u32,
    },
}

/// The fixed-size header of a `.chl` file, readable without loading the
/// payload (used by `chl inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Format version stamped in the file.
    pub version: u32,
    /// Number of vertices the index covers.
    pub num_vertices: u64,
    /// Total number of label entries (decoded count, whatever the
    /// encoding).
    pub num_entries: u64,
    /// The flags word (`0` for v1 files); see [`FLAG_COMPRESSED_ENTRIES`]
    /// and [`FLAG_SHARDED`].
    pub flags: u32,
    /// The stored payload checksum(s).
    pub checksums: Checksums,
    /// v3: CRC-32 of the shard section (`0` when unsharded or pre-v3).
    pub crc_shard: u32,
    /// v3: CRC-32 of header bytes 0..44 (`0` for pre-v3 versions).
    pub crc_header: u32,
    /// Compressed files: the encoded blob length stored in the skip table's
    /// last slot, when the parsed bytes reach it ([`load_header`] reads it
    /// from the file). `None` for flat files.
    pub blob_len: Option<u64>,
}

impl FileHeader {
    /// Size of this header on disk, in bytes (version-dependent).
    pub fn header_len(&self) -> usize {
        match self.version {
            VERSION_V1 => HEADER_LEN_V1,
            VERSION_V2 => HEADER_LEN_V2,
            _ => HEADER_LEN_V3,
        }
    }

    /// `true` when the entries section is delta+varint compressed.
    pub fn is_compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED_ENTRIES != 0
    }

    /// `true` when the file holds one shard of a QDOL layout (v3 only).
    pub fn is_sharded(&self) -> bool {
        self.flags & FLAG_SHARDED != 0
    }

    /// `true` when the file carries the per-entry parent section that
    /// enables shortest-path reconstruction (v3 only).
    pub fn is_paths(&self) -> bool {
        self.flags & FLAG_PATHS != 0
    }

    /// Total file size in bytes implied by the header's dimensions, or
    /// `None` when it cannot be known from the header alone — compressed
    /// files are self-describing (the encoded length lives in the skip
    /// table), sharded files carry a self-describing owned set, and hostile
    /// dimensions can overflow.
    pub fn expected_file_len(&self) -> Option<usize> {
        let (n, m) = (self.num_vertices, self.num_entries);
        match self.version {
            VERSION_V1 => expected_payload_len_v1(n, m)?.checked_add(HEADER_LEN_V1),
            _ if self.is_compressed() => None,
            _ => self.plan_known(None).map(|layout| layout.len),
        }
    }

    /// On-disk size of the entries section in bytes: the storage queries
    /// really touch. For v1 this is `m` times the record size; for v2/v3 it
    /// is the entries row of the layout, compressed files laid out from
    /// [`FileHeader::blob_len`], and 0 when that is unknown or the header's
    /// dimensions are impossible. `_file_len` is no longer needed and stays
    /// for existing callers.
    pub fn entries_section_len(&self, _file_len: u64) -> u64 {
        match self.version {
            VERSION_V1 => self.num_entries.saturating_mul(ENTRY_LEN_V1 as u64),
            // The owned count does not move the entries section.
            _ => self
                .plan_known(Some(0))
                .map_or(0, |layout| layout.entries.span.len() as u64),
        }
    }

    /// Lays out this header's v2/v3 file; see [`plan`].
    fn plan(
        &self,
        word: impl FnMut(Section, Range<usize>) -> Result<u64, PersistError>,
    ) -> Result<Layout, PersistError> {
        let (n, m) = (self.num_vertices, self.num_entries);
        plan(self.version, n, m, self.flags, word)
    }

    /// The layout with [`Self::blob_len`] and `owned` for the file's own
    /// words; `None` when one is unknown or the dimensions are impossible.
    fn plan_known(&self, owned: Option<u64>) -> Option<Layout> {
        let known = |section| match section {
            Section::Shard => owned,
            _ => self.blob_len,
        };
        let unread = |at: Range<usize>| PersistError::Truncated {
            expected: at.end,
            found: 0,
        };
        self.plan(|section, at| known(section).ok_or_else(|| unread(at)))
            .ok()
    }

    /// The compressed blob length, read through `read` from the skip-table
    /// slot the layout places it in; `None` when the read fails.
    fn read_blob_len(
        &self,
        mut read: impl FnMut(Range<usize>) -> Result<u64, PersistError>,
    ) -> Option<u64> {
        let mut blob_len = None;
        // The owned count comes after the blob, so any value serves.
        let _ = self.plan(|section, at| match section {
            Section::Shard => Ok(0),
            _ => read(at).inspect(|&len| blob_len = Some(len)),
        });
        blob_len
    }

    /// In-memory size of the decoded entries in bytes (`m * 16`), the
    /// denominator of the compression ratio.
    pub fn decoded_entries_len(&self) -> u64 {
        self.num_entries.saturating_mul(ENTRY_LEN_V2 as u64)
    }
}

// --- CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-16 (Kounavis &
// --- Berry, 2005). Every open of a `.chl` file is gated on this checksum,
// --- so it must run near memory bandwidth: one 16-byte block per step, 16
// --- table lookups that mostly overlap, 0.37 -> 3.7 GB/s over the
// --- one-byte-per-step table loop on a 2-vCPU Xeon. Safe code keeps one
// --- path on every target; a carry-less-multiply (PCLMULQDQ) tier is left
// --- out on purpose, as it needs `std::arch`, `unsafe` and CPU detection.

/// `CRC_TABLES[s][b]` is the CRC register after byte `b` followed by `s`
/// zero bytes, so byte `i` of a 16-byte block is looked up in table `15 - i`.
#[expect(
    clippy::indexing_slicing,
    reason = "const table build: s < 16 and i < 256 are the loop bounds, the dimensions of the \
              tables being filled"
)]
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut s = 0;
        while s < 16 {
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                k += 1;
            }
            tables[s][i] = c;
            s += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `data`, the checksum the `.chl` header stores.
#[expect(
    clippy::indexing_slicing,
    reason = "a u8-derived index (< 256) into a 256-entry table; CRC_TABLES[0] is a constant \
              index into 16 tables"
)]
pub fn crc32(data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = u32::MAX;
    for block in blocks {
        let mut bytes = *block;
        for (b, r) in bytes.iter_mut().zip(c.to_le_bytes()) {
            *b ^= r;
        }
        // Last byte first: the four lookups that depend on the previous
        // block's `c` then join the XOR chain at its end, not its start,
        // which halves the loop-carried latency (2.0 -> 3.7 GB/s).
        c = bytes
            .iter()
            .rev()
            .zip(&CRC_TABLES)
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in tail {
        c = (c >> 8) ^ CRC_TABLES[0][usize::from(c as u8 ^ b)];
    }
    !c
}

// --- LEB128 varints (the compressed entries encoding) --------------------

/// Appends `x` to `buf` as a canonical (minimal-length) little-endian
/// base-128 varint: 7 value bits per byte, high bit = continuation.
pub(crate) fn write_uvarint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Fast LEB128 reader for *validated* streams: advances `pos` and returns
/// the value, or `None` past the end. Canonicality was enforced at load
/// time, so this reader does not re-check it.
#[inline]
pub(crate) fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        x |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
    }
}

/// Strict LEB128 reader for the validation pass: rejects truncation,
/// encodings longer than a u64 can hold, and overlong (non-minimal)
/// encodings. Canonicality is what makes decode → re-encode byte-stable.
fn read_uvarint_canonical(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err("truncated varint");
        };
        *pos += 1;
        if shift > 63 || (shift == 63 && (byte & 0x7F) > 1) {
            return Err("varint overflows u64");
        }
        x |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err("overlong varint encoding");
            }
            return Ok(x);
        }
        shift += 7;
    }
}

/// v1 payload size implied by the header dimensions, `None` on overflow
/// (which can only arise from a corrupt or hostile header).
fn expected_payload_len_v1(n: u64, m: u64) -> Option<usize> {
    let ranking = n.checked_mul(4)?;
    let offsets = n.checked_add(1)?.checked_mul(8)?;
    let entries = m.checked_mul(ENTRY_LEN_V1 as u64)?;
    let total = ranking.checked_add(offsets)?.checked_add(entries)?;
    usize::try_from(total).ok()
}

// --- The section table ----------------------------------------------------
//
// `plan` alone decides where a v2/v3 section starts, how far it is padded
// and where its checksum is stored. The writer fills and seals its rows,
// the validator walks them, the casts cut their arrays out.

/// One section of a v2/v3 file, as [`plan`] lays it out.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    section: Section,
    /// What the CRC covers: from a section boundary through the padding.
    span: Range<usize>,
    /// The section's array. Before it in `span` sits a fixed prelude (the
    /// skip table, the shard identity), after it zero padding.
    data: Range<usize>,
    /// Where the CRC is stored: a header word or the path prelude's first.
    crc: Range<usize>,
    /// Bytes besides the padding that must be zero.
    zeros: Zeros,
}

/// The record-level zero checks of a [`Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Zeros {
    None,
    /// Bytes 4..8 of every 16-byte entry record: `LabelEntry`'s padding.
    EntryWords,
    /// The bytes between the CRC word and the span: the path prelude's
    /// reserved word.
    Reserved,
}

impl Row {
    /// The section starting at `at` with its array at `data`, zero-padded
    /// to the alignment. The match is where each section keeps its CRC: a
    /// header word, or the path section's 8-byte prelude just before `at`.
    fn new(section: Section, at: usize, data: Range<usize>) -> Option<Row> {
        let span = at..data.end.checked_next_multiple_of(SECTION_ALIGN)?;
        let (crc, zeros) = match section {
            Section::Ranking => (28, Zeros::None),
            Section::Offsets => (32, Zeros::None),
            Section::Entries => (36, Zeros::None),
            Section::Paths => (at - 8, Zeros::Reserved),
            Section::Shard => (40, Zeros::None),
        };
        let crc = crc..crc + 4;
        Some(Row {
            section,
            span,
            data,
            crc,
            zeros,
        })
    }

    /// The fixed prelude inside the span, before the array.
    fn prelude(&self) -> Range<usize> {
        self.span.start..self.data.start
    }
}

/// The section table of one v2/v3 file. Every section starts on a multiple
/// of [`SECTION_ALIGN`], so in an 8-byte-aligned buffer it is aligned too.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) n: usize,
    pub(crate) m: usize,
    version: u32,
    pub(crate) compressed: bool,
    ranking: Row,
    offsets: Row,
    entries: Row,
    pub(crate) paths: Option<Row>,
    shard: Option<Row>,
    /// The file length, header included.
    len: usize,
}

impl Layout {
    /// Every section, in file order.
    fn rows(&self) -> impl Iterator<Item = &Row> {
        [&self.ranking, &self.offsets, &self.entries]
            .into_iter()
            .chain(self.paths.as_ref())
            .chain(self.shard.as_ref())
    }
}

/// Lays out a v2/v3 file from its header fields. Two sections size
/// themselves: `word` is asked for the compressed entries' blob length (the
/// skip table's last slot) and the shard's owned count (the shard prelude's
/// last word), with the bytes each is stored in, once the sections before
/// them are placed. A v3 header passed its CRC before this runs, so
/// impossible dimensions are the writer's doing
/// ([`PersistError::HeaderMalformed`]); in v2 they may be header corruption
/// ([`PersistError::Malformed`], which `validate_layout` annotates).
fn plan(
    version: u32,
    n64: u64,
    m64: u64,
    flags: u32,
    mut word: impl FnMut(Section, Range<usize>) -> Result<u64, PersistError>,
) -> Result<Layout, PersistError> {
    let v2 = version == VERSION_V2;
    let dims_err = if v2 {
        PersistError::Malformed
    } else {
        PersistError::HeaderMalformed
    };
    if n64 > VertexId::MAX as u64 {
        return Err(dims_err(format!(
            "{n64} vertices exceeds the u32 vertex id space"
        )));
    }
    let overflow = || {
        dims_err(format!(
            "declared dimensions (n = {n64}, m = {m64}) overflow the addressable size"
        ))
    };
    let add = |at: usize, len: Option<u64>| {
        len.and_then(|len| at.checked_add(usize::try_from(len).ok()?))
            .ok_or_else(overflow)
    };
    let cut = |section, at, data| Row::new(section, at, data).ok_or_else(overflow);

    let at = if v2 { HEADER_LEN_V2 } else { HEADER_LEN_V3 };
    let ranking = cut(Section::Ranking, at, at..add(at, Some(n64 * 4))?)?;
    let at = ranking.span.end;
    let offsets = cut(Section::Offsets, at, at..add(at, Some((n64 + 1) * 8))?)?;
    let at = offsets.span.end;
    let compressed = flags & FLAG_COMPRESSED_ENTRIES != 0;
    let entries = if compressed {
        // The skip table, whose last slot holds the blob length, then the
        // blob.
        let start = add(at, Some((n64 + 1) * 8))?;
        let blob_len = word(Section::Entries, start - 8..start)?;
        if blob_len
            .checked_next_multiple_of(SECTION_ALIGN as u64)
            .is_none()
        {
            return Err(PersistError::Malformed(format!(
                "declared encoded blob length {blob_len} overflows the addressable size"
            )));
        }
        let blob = start..add(start, Some(blob_len))?;
        let entries = cut(Section::Entries, at, blob)?;
        // The flat arm bounds m against the file length via `m * 16`; the
        // compressed equivalent is that every encoded entry costs at least
        // two bytes (a one-byte hub-gap varint plus a one-byte distance
        // varint). A forged header whose m cannot fit in the blob must be
        // rejected here, before any loader allocates m-sized buffers.
        if m64.checked_mul(2).is_none_or(|min| min > blob_len) {
            return Err(dims_err(format!(
                "declared entry count {m64} cannot fit in a {blob_len}-byte encoded blob"
            )));
        }
        entries
    } else {
        let end = add(at, m64.checked_mul(ENTRY_LEN_V2 as u64))?;
        let zeros = Zeros::EntryWords;
        Row {
            zeros,
            ..cut(Section::Entries, at, at..end)?
        }
    };
    let mut at = entries.span.end;
    let paths = if flags & FLAG_PATHS != 0 {
        // After an 8-byte prelude (crc_paths, a reserved word): one u32
        // parent per label entry.
        let start = add(at, Some(8))?;
        let paths = cut(
            Section::Paths,
            start,
            start..add(start, m64.checked_mul(4))?,
        )?;
        at = paths.span.end;
        Some(paths)
    } else {
        None
    };
    let shard = if flags & FLAG_SHARDED != 0 {
        // After a 16-byte prelude (shard_id, shard_count, zeta,
        // owned_count): the owned vertex ids.
        let start = add(at, Some(16))?;
        let owned = word(Section::Shard, start - 4..start)?;
        let shard = cut(Section::Shard, at, start..add(start, owned.checked_mul(4))?)?;
        at = shard.span.end;
        Some(shard)
    } else {
        None
    };
    Ok(Layout {
        n: n64 as usize,
        m: m64 as usize,
        version,
        compressed,
        ranking,
        offsets,
        entries,
        paths,
        shard,
        len: at,
    })
}

/// Lays out `data` as a v2/v3 file, reading its self-describing words in
/// place, and checks that its length is exactly the planned one.
fn plan_file(header: &FileHeader, data: &[u8]) -> Result<Layout, PersistError> {
    let layout = header.plan(|_, at| file_word(data, at))?;
    if data.len() < layout.len {
        return Err(PersistError::Truncated {
            expected: layout.len,
            found: data.len(),
        });
    }
    if data.len() > layout.len {
        return Err(PersistError::TrailingBytes {
            extra: data.len() - layout.len,
        });
    }
    Ok(layout)
}

/// The little-endian word stored at `at`, or [`PersistError::Truncated`]
/// when `data` ends before it.
fn file_word(data: &[u8], at: Range<usize>) -> Result<u64, PersistError> {
    let bytes = data.get(at.clone()).ok_or(PersistError::Truncated {
        expected: at.end,
        found: data.len(),
    })?;
    Ok(bytes.iter().rev().fold(0, |x, &b| x << 8 | u64::from(b)))
}

/// The whole-payload integrity check of v2/v3, one section at a time in
/// file order: every CRC first, then every byte a row says must be zero.
#[expect(
    clippy::indexing_slicing,
    reason = "rows of the Layout plan_file checked against data.len(); 16-byte chunks"
)]
fn check_sections(data: &[u8], layout: &Layout) -> Result<(), PersistError> {
    layout.rows().try_for_each(|row| check_crc(data, row))?;
    for row in layout.rows() {
        match row.zeros {
            Zeros::None => {}
            Zeros::Reserved => zero_bytes(data, row.crc.end..row.span.start)?,
            // Keeps serialization deterministic: a forged record cannot
            // smuggle data the view cannot see.
            Zeros::EntryWords => {
                let mut records = data[row.data.clone()].chunks_exact(ENTRY_LEN_V2);
                if let Some(i) = records.position(|r| r[4..8] != [0; 4]) {
                    let at = row.data.start + i * ENTRY_LEN_V2;
                    zero_bytes(data, at + 4..at + 8)?;
                }
            }
        }
        zero_bytes(data, row.data.end..row.span.end)?;
    }
    Ok(())
}

/// Compares the CRC stored for `row` with the CRC of its span.
fn check_crc(data: &[u8], row: &Row) -> Result<(), PersistError> {
    let stored = file_word(data, row.crc.clone())? as u32;
    let computed = crc32(data.get(row.span.clone()).unwrap_or_default());
    if computed != stored {
        return Err(PersistError::SectionChecksumMismatch {
            section: row.section,
            stored,
            computed,
        });
    }
    Ok(())
}

/// [`PersistError::NonZeroPadding`] at the first non-zero byte in `range`.
fn zero_bytes(data: &[u8], range: Range<usize>) -> Result<(), PersistError> {
    let bytes = data.get(range.clone()).unwrap_or_default();
    match bytes.iter().position(|&b| b != 0) {
        Some(i) => Err(PersistError::NonZeroPadding {
            offset: range.start + i,
        }),
        None => Ok(()),
    }
}

/// Stores every section's CRC where its row says and then, in v3, the
/// header CRC, which covers them: the one writer of checksums.
#[expect(
    clippy::indexing_slicing,
    reason = "rows of the Layout planned for this buffer's length"
)]
fn seal(buf: &mut [u8], layout: &Layout) {
    for row in layout.rows() {
        let crc = crc32(&buf[row.span.clone()]);
        buf[row.crc.clone()].copy_from_slice(&crc.to_le_bytes());
    }
    if layout.version == VERSION {
        seal_header(buf);
    }
}

/// Stores the v3 header CRC, the CRC of header bytes 0..44.
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass at least the HEADER_LEN_V3-byte header"
)]
fn seal_header(buf: &mut [u8]) {
    let crc = crc32(&buf[..HEADER_LEN_V3 - 4]);
    buf[HEADER_LEN_V3 - 4..HEADER_LEN_V3].copy_from_slice(&crc.to_le_bytes());
}

/// Checks that `order` lists every vertex in `0..order.len()` exactly once.
#[expect(
    clippy::indexing_slicing,
    reason = "vi < n is checked just above, and seen was allocated with n entries"
)]
fn check_permutation(order: &[VertexId]) -> Result<(), PersistError> {
    let n = order.len();
    let mut seen = vec![false; n];
    for &v in order {
        let vi = v as usize;
        if vi >= n {
            return Err(PersistError::Malformed(format!(
                "ranking section: vertex {v} out of range"
            )));
        }
        if seen[vi] {
            return Err(PersistError::Malformed(format!(
                "ranking section: vertex {v} appears twice in the ranking"
            )));
        }
        seen[vi] = true;
    }
    Ok(())
}

/// The offsets-array invariants shared by every load path and encoding:
/// start at 0, rise monotonically, end at `m`.
#[expect(
    clippy::indexing_slicing,
    reason = "the offsets array holds exactly n + 1 entries (the v1 reader builds it so and \
              plan cuts the section so), and windows(2) yields 2-element slices"
)]
fn validate_offsets(n: usize, offsets: &[u64], m64: u64) -> Result<(), PersistError> {
    debug_assert_eq!(offsets.len(), n + 1);
    if offsets[0] != 0 {
        return Err(PersistError::Malformed(format!(
            "offsets must start at 0, found {}",
            offsets[0]
        )));
    }
    if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
        return Err(PersistError::Malformed(format!(
            "offsets must be monotonically non-decreasing, found {} before {}",
            w[0], w[1]
        )));
    }
    if offsets[n] != m64 {
        return Err(PersistError::Malformed(format!(
            "final offset {} disagrees with the declared entry count {m64}",
            offsets[n]
        )));
    }
    Ok(())
}

/// The per-entry invariants of the flat encoding: every vertex's entries
/// strictly hub-sorted with in-range hub positions. (The compressed decoder
/// enforces the same invariants inline while it decodes.)
#[expect(
    clippy::indexing_slicing,
    reason = "runs after validate_offsets: n + 1 monotone offsets ending at entries.len()"
)]
fn validate_hub_sort(
    n: usize,
    offsets: &[u64],
    entries: &[LabelEntry],
) -> Result<(), PersistError> {
    for v in 0..n {
        let slice = &entries[offsets[v] as usize..offsets[v + 1] as usize];
        let mut prev: Option<u32> = None;
        for e in slice {
            if e.hub as usize >= n {
                return Err(PersistError::Malformed(format!(
                    "vertex {v} has a label with hub position {} outside 0..{n}",
                    e.hub
                )));
            }
            if prev.is_some_and(|p| p >= e.hub) {
                return Err(PersistError::Malformed(format!(
                    "labels of vertex {v} are not strictly hub-sorted"
                )));
            }
            prev = Some(e.hub);
        }
    }
    Ok(())
}

/// Validates a compressed entries section against already-validated CSR
/// offsets: the skip table starts at 0 and rises monotonically (it ends at
/// the blob length, which `plan` read from it); every vertex's run decodes to exactly its declared label
/// count with canonical varints, strictly increasing in-range hubs, and
/// consumes exactly its skip-table byte span. When `sink` is given the
/// decoded entries are appended to it (the copying loader keeps them, so
/// the blob is decoded once); the view path validates without
/// materializing anything. When `parents` is given (a file with a path
/// section), each decoded entry is checked against its parent record in the
/// same streaming pass — the entries concatenate in vertex order, so the
/// running entry counter is the record's global index.
#[expect(
    clippy::indexing_slicing,
    reason = "skip and offsets hold n + 1 entries (plan cuts them so), windows(2) yields \
              2-element slices, skip ends at blob.len() (plan sized the blob from it) and is \
              checked monotone before any run is cut"
)]
fn validate_compressed_entries(
    skip: &[u64],
    blob: &[u8],
    offsets: &[u64],
    parents: Option<&[u32]>,
    mut sink: Option<&mut Vec<LabelEntry>>,
) -> Result<(), PersistError> {
    let n = offsets.len() - 1;
    debug_assert_eq!(skip.len(), n + 1);
    if skip[0] != 0 {
        return Err(PersistError::Malformed(format!(
            "skip table must start at 0, found {}",
            skip[0]
        )));
    }
    if let Some(w) = skip.windows(2).find(|w| w[0] > w[1]) {
        return Err(PersistError::Malformed(format!(
            "skip table must be monotonically non-decreasing, found {} before {}",
            w[0], w[1]
        )));
    }
    if let Some(sink) = sink.as_deref_mut() {
        // offsets[n] is the validated entry count, which plan bounded
        // by the blob length.
        sink.reserve_exact(offsets[n] as usize);
    }
    let mut entry_index = 0usize;
    for v in 0..n {
        let run = &blob[skip[v] as usize..skip[v + 1] as usize];
        let count = (offsets[v + 1] - offsets[v]) as usize;
        let mut pos = 0usize;
        let mut prev: Option<u32> = None;
        let malformed =
            |msg: &str| PersistError::Malformed(format!("compressed run of vertex {v}: {msg}"));
        for _ in 0..count {
            let gap = read_uvarint_canonical(run, &mut pos).map_err(&malformed)?;
            let dist = read_uvarint_canonical(run, &mut pos).map_err(&malformed)?;
            let hub64 = match prev {
                None => gap,
                Some(p) => {
                    if gap == 0 {
                        return Err(malformed("zero hub gap (labels must be strictly sorted)"));
                    }
                    u64::from(p)
                        .checked_add(gap)
                        .ok_or_else(|| malformed("hub gap overflows the u32 rank position space"))?
                }
            };
            if hub64 >= n as u64 {
                return Err(PersistError::Malformed(format!(
                    "vertex {v} has a label with hub position {hub64} outside 0..{n}"
                )));
            }
            let hub = hub64 as u32;
            if let Some(parents) = parents {
                let p = parents
                    .get(entry_index)
                    .copied()
                    .ok_or_else(|| malformed("more label entries than parent records"))?;
                check_parent_entry(n, v as VertexId, dist, p)?;
            }
            entry_index += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(LabelEntry::new(hub, dist));
            }
            prev = Some(hub);
        }
        if pos != run.len() {
            return Err(malformed("trailing bytes beyond the declared label count"));
        }
    }
    Ok(())
}

/// Serializes `index` into the current (v3) `.chl` byte format with the
/// default options (flat entries).
pub fn to_bytes(index: &FlatIndex) -> Vec<u8> {
    to_bytes_with(index, &SaveOptions::default())
}

/// Delta+varint encodes every label run, returning the per-vertex skip
/// table (`skip[v]` = byte offset of vertex `v`'s run; `skip[n]` = blob
/// length) and the encoded blob.
#[expect(
    clippy::indexing_slicing,
    reason = "offsets of an in-memory FlatIndex: n + 1 monotone entries ending at entries.len()"
)]
fn encode_entries(offsets: &[u64], entries: &[LabelEntry]) -> (Vec<u64>, Vec<u8>) {
    let n = offsets.len() - 1;
    let mut skip = Vec::with_capacity(n + 1);
    // Labels average a few bytes each once delta+varint encoded.
    let mut blob = Vec::with_capacity(entries.len() * 4);
    skip.push(0);
    for v in 0..n {
        let run = &entries[offsets[v] as usize..offsets[v + 1] as usize];
        let mut prev: Option<u32> = None;
        for e in run {
            let gap = match prev {
                None => u64::from(e.hub),
                Some(p) => u64::from(e.hub - p),
            };
            write_uvarint(&mut blob, gap);
            write_uvarint(&mut blob, e.dist);
            prev = Some(e.hub);
        }
        skip.push(blob.len() as u64);
    }
    (skip, blob)
}

/// Serializes `index` into the `.chl` v3 byte format under `options`:
/// flat 16-byte entry records by default, the delta+varint compressed
/// entries section (flags bit 0) when `options.compress` is set.
#[expect(
    clippy::indexing_slicing,
    reason = "the buffer is sized to the Layout its rows come from"
)]
#[expect(
    clippy::expect_used,
    reason = "sizes derive from vectors already resident in memory; overflow would mean the index \
              itself could not exist"
)]
pub fn to_bytes_with(index: &FlatIndex, options: &SaveOptions) -> Vec<u8> {
    let n = index.num_vertices() as u64;
    let m = index.total_labels() as u64;
    let shard = index.shard();
    let parents = index.parents();
    // Encoding up front fixes the blob length the layout needs, so the
    // buffer is sized once.
    let encoded = options
        .compress
        .then(|| encode_entries(index.offsets(), index.entries()));
    let flags = (FLAG_COMPRESSED_ENTRIES * u32::from(options.compress))
        | (FLAG_SHARDED * u32::from(shard.is_some()))
        | (FLAG_PATHS * u32::from(parents.is_some()));
    let layout = plan(VERSION, n, m, flags, |section, _| {
        Ok(match section {
            Section::Shard => shard.map_or(0, |s| s.owned.len() as u64),
            _ => encoded.as_ref().map_or(0, |(_, blob)| blob.len() as u64),
        })
    })
    .expect("an index held in memory has a layout");

    let mut buf = MAGIC.to_vec();
    buf.extend(VERSION.to_le_bytes());
    buf.extend(n.to_le_bytes());
    buf.extend(m.to_le_bytes());
    buf.extend(flags.to_le_bytes());
    // Checksums, padding and reserved words stay zero until sealed.
    buf.resize(layout.len, 0);
    put(
        &mut buf,
        &layout.ranking.data,
        index.ranking().order(),
        u32::to_le_bytes,
    );
    put(
        &mut buf,
        &layout.offsets.data,
        index.offsets(),
        u64::to_le_bytes,
    );
    let entries = &layout.entries;
    match &encoded {
        Some((skip, blob)) => {
            put(&mut buf, &entries.prelude(), skip, u64::to_le_bytes);
            buf[entries.data.clone()].copy_from_slice(blob);
        }
        None => put(&mut buf, &entries.data, index.entries(), |e| {
            let mut record = [0u8; ENTRY_LEN_V2];
            record[..4].copy_from_slice(&e.hub.to_le_bytes());
            record[8..].copy_from_slice(&e.dist.to_le_bytes());
            record
        }),
    }
    if let (Some(row), Some(parents)) = (&layout.paths, parents) {
        put(&mut buf, &row.data, parents, u32::to_le_bytes);
    }
    if let (Some(row), Some(s)) = (&layout.shard, shard) {
        let identity = [s.shard_id, s.shard_count, s.zeta, s.owned.len() as u32];
        put(&mut buf, &row.prelude(), &identity, u32::to_le_bytes);
        put(&mut buf, &row.data, &s.owned, u32::to_le_bytes);
    }
    seal(&mut buf, &layout);
    buf
}

/// Writes `items` encoded by `bytes` back to back from the start of
/// `buf[range]`.
#[expect(
    clippy::indexing_slicing,
    reason = "writer ranges are rows of the Layout the buffer was sized to"
)]
fn put<T: Copy, const W: usize>(
    buf: &mut [u8],
    range: &Range<usize>,
    items: &[T],
    bytes: impl Fn(T) -> [u8; W],
) {
    for (slot, &item) in buf[range.clone()].chunks_exact_mut(W).zip(items) {
        slot.copy_from_slice(&bytes(item));
    }
}

/// Serializes `index` into the legacy v1 packed format. Kept for
/// compatibility tests and for producing files older readers understand; new
/// files should use [`to_bytes`].
#[expect(
    clippy::indexing_slicing,
    reason = "the buffer starts with the HEADER_LEN_V1-byte header this function wrote"
)]
#[expect(
    clippy::expect_used,
    reason = "sizes derive from vectors already resident in memory; overflow would mean the index \
              itself could not exist"
)]
pub fn to_bytes_v1(index: &FlatIndex) -> Vec<u8> {
    let n = index.num_vertices();
    let m = index.total_labels();
    let payload_len =
        expected_payload_len_v1(n as u64, m as u64).expect("in-memory index fits in memory");
    let mut buf = Vec::with_capacity(HEADER_LEN_V1 + payload_len);

    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION_V1.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(m as u64).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder

    for &v in index.ranking().order() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for &off in index.offsets() {
        buf.extend_from_slice(&off.to_le_bytes());
    }
    for e in index.entries() {
        buf.extend_from_slice(&e.hub.to_le_bytes());
        buf.extend_from_slice(&e.dist.to_le_bytes());
    }

    let crc = crc32(&buf[HEADER_LEN_V1..]);
    buf[24..28].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Little-endian cursor over a byte slice. All reads are bounds-checked by
/// the caller having verified the total length up front.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "Cursor only reads inside the header length parse_header checked or a section \
                  row plan_file checked"
    )]
    fn take(&mut self, len: usize) -> &'a [u8] {
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        s
    }

    #[expect(
        clippy::expect_used,
        reason = "take returned exactly 4 bytes, so the fixed-size try_into cannot fail"
    )]
    fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("length checked"))
    }

    #[expect(
        clippy::expect_used,
        reason = "take returned exactly 8 bytes, so the fixed-size try_into cannot fail"
    )]
    fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("length checked"))
    }
}

/// Parses just the fixed header, validating magic, version, flags and (on
/// v3) the header CRC, but not the payload. `data` must hold the full
/// header for its version; a compressed file's blob length is read too
/// when `data` reaches it.
#[expect(
    clippy::expect_used,
    reason = "take(4) returned exactly 4 bytes, so the fixed-size try_into cannot fail"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "data.len() >= HEADER_LEN_V3 was checked above for every v3 header"
)]
pub fn parse_header(data: &[u8]) -> Result<FileHeader, PersistError> {
    if data.len() < 8 {
        return Err(PersistError::Truncated {
            expected: HEADER_LEN_V1,
            found: data.len(),
        });
    }
    let mut cur = Cursor::new(data);
    let magic: [u8; 4] = cur.take(4).try_into().expect("length checked");
    if &magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = cur.get_u32();
    let header_len = match version {
        VERSION_V1 => HEADER_LEN_V1,
        VERSION_V2 => HEADER_LEN_V2,
        VERSION => HEADER_LEN_V3,
        found => return Err(PersistError::UnsupportedVersion { found }),
    };
    if data.len() < header_len {
        return Err(PersistError::Truncated {
            expected: header_len,
            found: data.len(),
        });
    }
    let num_vertices = cur.get_u64();
    let num_entries = cur.get_u64();
    let (flags, checksums, crc_shard, crc_header) = if version == VERSION_V1 {
        (0, Checksums::WholePayload(cur.get_u32()), 0, 0)
    } else {
        let flags = cur.get_u32();
        let checksums = Checksums::PerSection {
            ranking: cur.get_u32(),
            offsets: cur.get_u32(),
            entries: cur.get_u32(),
        };
        let (crc_shard, crc_header) = if version == VERSION_V2 {
            (0, 0)
        } else {
            (cur.get_u32(), cur.get_u32())
        };
        // The v3 header CRC is verified before any other field is
        // interpreted, so a damaged flags or dimensions byte reports as
        // header corruption instead of whatever downstream error the
        // garbage value happens to trip.
        if version != VERSION_V2 {
            let computed = crc32(&data[..HEADER_LEN_V3 - 4]);
            if computed != crc_header {
                return Err(PersistError::HeaderChecksumMismatch {
                    stored: crc_header,
                    computed,
                });
            }
        }
        if flags & !flags_known(version) != 0 {
            return Err(PersistError::UnsupportedFlags { found: flags });
        }
        // From here on the header is CRC-proven (v3), so inconsistencies
        // between its fields are writer bugs, not corruption.
        if version != VERSION_V2 && flags & FLAG_SHARDED == 0 && crc_shard != 0 {
            return Err(PersistError::HeaderMalformed(format!(
                "crc_shard is {crc_shard:#010x} but the sharded flag is clear"
            )));
        }
        (flags, checksums, crc_shard, crc_header)
    };
    let mut header = FileHeader {
        version,
        num_vertices,
        num_entries,
        flags,
        checksums,
        crc_shard,
        crc_header,
        blob_len: None,
    };
    if header.is_compressed() {
        header.blob_len = header.read_blob_len(|at| file_word(data, at));
    }
    Ok(header)
}

/// Deserializes an index from `.chl` bytes, accepting the current v3
/// layout and legacy v1/v2 files. This is the **copying** path: every
/// section lands in a fresh allocation. For serving without the copy, see
/// [`open_view`].
///
/// v2/v3 bytes go through the validator every zero-copy loader runs and
/// the validated view is copied out; a buffer that is not 8-byte aligned
/// is first staged in an [`AlignedBytes`]. A compressed file's entries are
/// kept from the validation pass, so the blob is decoded once.
pub fn from_bytes(data: &[u8]) -> Result<FlatIndex, PersistError> {
    let header = parse_header(data)?;
    if header.version == VERSION_V1 {
        return from_bytes_v1(data, &header);
    }
    if !is_view_aligned(data) {
        return from_bytes(&AlignedBytes::from_slice(data));
    }
    let mut decoded = Vec::new();
    let layout = validate_layout(data, Some(&mut decoded))?;
    let decoded = layout.compressed.then_some(decoded);
    Ok(assemble_view(data, &layout).to_owned_with(decoded))
}

/// Folds the v2 header-trust gap into payload-shaped errors: a v2 header
/// is not covered by any checksum, so a corrupted `n`/`m`/`flags` field
/// surfaces as exactly the length / section-checksum / semantic errors a
/// damaged payload would produce. Spelling that out in the message saves
/// the reader from debugging the payload when the header is the culprit.
/// v3 closes the gap with a real header CRC.
fn add_v2_header_caveat(e: PersistError) -> PersistError {
    match e {
        PersistError::Truncated { .. }
        | PersistError::TrailingBytes { .. }
        | PersistError::SectionChecksumMismatch { .. }
        | PersistError::Malformed(_) => PersistError::Malformed(format!(
            "{e} (note: v2 headers carry no checksum of their own, so a corrupted \
             header field such as n, m or flags produces exactly this class of \
             error; re-save the index as v3 to get a header CRC)"
        )),
        other => other,
    }
}

#[expect(
    clippy::unreachable,
    reason = "parse_header builds a whole-payload checksum for every v1 header"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "data.len() == HEADER_LEN_V1 + payload_len was checked just above"
)]
fn from_bytes_v1(data: &[u8], header: &FileHeader) -> Result<FlatIndex, PersistError> {
    let n64 = header.num_vertices;
    let m64 = header.num_entries;
    if n64 > VertexId::MAX as u64 {
        return Err(PersistError::Malformed(format!(
            "{n64} vertices exceeds the u32 vertex id space"
        )));
    }
    let payload_len = expected_payload_len_v1(n64, m64).ok_or_else(|| {
        PersistError::Malformed(format!(
            "declared dimensions (n = {n64}, m = {m64}) overflow the addressable size"
        ))
    })?;
    let expected = HEADER_LEN_V1 + payload_len;
    if data.len() < expected {
        return Err(PersistError::Truncated {
            expected,
            found: data.len(),
        });
    }
    if data.len() > expected {
        return Err(PersistError::TrailingBytes {
            extra: data.len() - expected,
        });
    }

    let computed = crc32(&data[HEADER_LEN_V1..]);
    let Checksums::WholePayload(stored) = header.checksums else {
        unreachable!("v1 headers always parse a whole-payload checksum");
    };
    if computed != stored {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }

    let n = n64 as usize;
    let m = m64 as usize;
    let mut cur = Cursor::new(data);
    cur.seek(HEADER_LEN_V1);

    let order: Vec<VertexId> = (0..n).map(|_| cur.get_u32()).collect();
    let offsets: Vec<u64> = (0..=n).map(|_| cur.get_u64()).collect();
    let mut entries = Vec::with_capacity(m);
    for _ in 0..m {
        let hub = cur.get_u32();
        let dist = cur.get_u64();
        entries.push(LabelEntry::new(hub, dist));
    }
    let ranking = Ranking::from_order(order, n)
        .map_err(|e| PersistError::Malformed(format!("ranking section: {e}")))?;
    validate_offsets(n, &offsets, m64)?;
    validate_hub_sort(n, &offsets, &entries)?;
    Ok(FlatIndex::from_validated_parts(offsets, entries, ranking))
}

// --- Zero-copy views -----------------------------------------------------
//
// On little-endian hosts a validated v2/v3 buffer is reinterpreted in place:
// the ranking section becomes `&[u32]`, the offsets section `&[u64]` and the
// entries section `&[LabelEntry]` (whose #[repr(C)] layout matches the
// 16-byte record exactly). Alignment holds because every section offset is a
// multiple of 8 and the caller's buffer base is checked to be 8-byte
// aligned; every bit pattern of the underlying integers is a valid value, so
// the casts cannot manufacture invalid data — semantic validation happens on
// the cast slices afterwards, and the copying loader copies the same view.

/// `true` when `data`'s base address allows in-place reinterpretation of
/// 8-byte-aligned sections.
fn is_view_aligned(data: &[u8]) -> bool {
    (data.as_ptr() as usize).is_multiple_of(SECTION_ALIGN)
}

#[cfg(target_endian = "little")]
fn cast_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert!((bytes.as_ptr() as usize).is_multiple_of(4));
    debug_assert!(bytes.len().is_multiple_of(4));
    // SAFETY: the caller (plan + is_view_aligned) guarantees 4-byte
    // alignment and a length that is a multiple of 4; any bit pattern is a
    // valid u32, and the lifetime is inherited from `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
}

#[cfg(target_endian = "little")]
fn cast_u64s(bytes: &[u8]) -> &[u64] {
    debug_assert!((bytes.as_ptr() as usize).is_multiple_of(8));
    debug_assert!(bytes.len().is_multiple_of(8));
    // SAFETY: as for cast_u32s, with 8-byte alignment.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u64, bytes.len() / 8) }
}

#[cfg(target_endian = "little")]
fn cast_entries(bytes: &[u8]) -> &[LabelEntry] {
    debug_assert!((bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<LabelEntry>()));
    debug_assert!(bytes.len().is_multiple_of(ENTRY_LEN_V2));
    // SAFETY: LabelEntry is #[repr(C)] with size 16 and align 8 (asserted at
    // compile time in labels.rs); the record layout matches field-for-field,
    // both integer fields accept any bit pattern, and the four bytes the
    // cast lands on LabelEntry's internal padding are never read.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr() as *const LabelEntry,
            bytes.len() / ENTRY_LEN_V2,
        )
    }
}

/// The sections of a v2/v3 buffer reinterpreted in place: what the
/// validation pass reads and what [`assemble_view`] welds into a view.
#[cfg(target_endian = "little")]
struct Sections<'a> {
    order: &'a [VertexId],
    offsets: &'a [u64],
    entries: EntriesSection<'a>,
    parents: Option<&'a [u32]>,
    shard: Option<ShardView<'a>>,
}

#[cfg(target_endian = "little")]
enum EntriesSection<'a> {
    Flat(&'a [LabelEntry]),
    Compressed { skip: &'a [u64], blob: &'a [u8] },
}

/// Cuts and casts every section `layout` describes out of `data`. Sound for
/// any 8-byte-aligned `data` as long as `layout` came from [`plan`] (the
/// only constructor), whose rows start on section boundaries and span whole
/// records; out-of-bounds ranges panic rather than misread.
#[cfg(target_endian = "little")]
#[expect(
    clippy::indexing_slicing,
    reason = "rows come from the Layout plan_file checked against data.len()"
)]
fn cast_sections<'a>(data: &'a [u8], layout: &Layout) -> Sections<'a> {
    assert!(is_view_aligned(data), "view buffer is not 8-byte aligned");
    let entries = &layout.entries;
    Sections {
        order: cast_u32s(&data[layout.ranking.data.clone()]),
        offsets: cast_u64s(&data[layout.offsets.data.clone()]),
        entries: if layout.compressed {
            EntriesSection::Compressed {
                skip: cast_u64s(&data[entries.prelude()]),
                blob: &data[entries.data.clone()],
            }
        } else {
            EntriesSection::Flat(cast_entries(&data[entries.data.clone()]))
        },
        parents: layout
            .paths
            .as_ref()
            .map(|p| cast_u32s(&data[p.data.clone()])),
        shard: layout.shard.as_ref().map(|s| cast_shard(data, s)),
    }
}

/// Casts the shard section out of `data`: the identity words of its
/// prelude plus the owned array in place. The prelude's fourth word,
/// owned_count, is implied by the array. Same soundness contract as
/// [`cast_sections`].
#[cfg(target_endian = "little")]
#[expect(
    clippy::indexing_slicing,
    reason = "the shard row comes from the Layout plan_file checked against data.len()"
)]
fn cast_shard<'a>(data: &'a [u8], row: &Row) -> ShardView<'a> {
    let mut cur = Cursor::new(data);
    cur.seek(row.span.start);
    ShardView {
        shard_id: cur.get_u32(),
        shard_count: cur.get_u32(),
        zeta: cur.get_u32(),
        owned: cast_u32s(&data[row.data.clone()]),
    }
}

/// Runs the whole [`open_view`] battery over `data` — the one validator of
/// v2/v3 bytes behind every loader — and returns the section table it
/// validated. `MmapIndex` keeps that layout so per-query views are one
/// [`assemble_view`] over ranges already known good. When `sink` is given,
/// a compressed file's decoded entries are appended to it (the copying
/// loader keeps them instead of decoding the blob a second time).
pub(crate) fn validate_layout(
    data: &[u8],
    sink: Option<&mut Vec<LabelEntry>>,
) -> Result<Layout, PersistError> {
    let header = parse_header(data)?;
    if header.version == VERSION_V1 {
        return Err(PersistError::NotZeroCopy {
            version: header.version,
        });
    }
    if !is_view_aligned(data) {
        return Err(PersistError::Unviewable {
            reason: "base address is not 8-byte aligned",
        });
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = sink;
        return Err(PersistError::Unviewable {
            reason: "host is big-endian",
        });
    }
    #[cfg(target_endian = "little")]
    {
        let checked = plan_file(&header, data).and_then(|layout| {
            check_sections(data, &layout)?;
            let s = cast_sections(data, &layout);
            check_permutation(s.order)?;
            validate_offsets(layout.n, s.offsets, header.num_entries)?;
            if let Some(shard) = &s.shard {
                validate_shard_meta(
                    shard.shard_id,
                    shard.shard_count,
                    shard.zeta,
                    shard.owned,
                    header.num_vertices,
                )?;
                check_shard_consistency(shard.owned, s.offsets)?;
            }
            match s.entries {
                EntriesSection::Flat(entries) => {
                    validate_hub_sort(layout.n, s.offsets, entries)?;
                    if let Some(parents) = s.parents {
                        validate_parents(layout.n, s.offsets, entries, parents)?;
                    }
                }
                EntriesSection::Compressed { skip, blob } => {
                    validate_compressed_entries(skip, blob, s.offsets, s.parents, sink)?;
                }
            }
            Ok(layout)
        });
        if header.version == VERSION_V2 {
            checked.map_err(add_v2_header_caveat)
        } else {
            checked
        }
    }
}

/// Assembles the borrowed view over `data` from a layout that
/// [`validate_layout`] returned **for this same buffer** — a handful of
/// slice cuts and pointer casts, no check repeated.
pub(crate) fn assemble_view<'a>(data: &'a [u8], layout: &Layout) -> IndexView<'a> {
    #[cfg(target_endian = "little")]
    {
        let s = cast_sections(data, layout);
        let view = match s.entries {
            EntriesSection::Flat(entries) => {
                IndexView::flat(FlatView::from_validated_parts(s.order, s.offsets, entries))
            }
            EntriesSection::Compressed { skip, blob } => IndexView::compressed(
                CompressedView::from_validated_compressed_parts(s.order, s.offsets, skip, blob),
            ),
        };
        let view = s.parents.map_or(view, |parents| view.with_parents(parents));
        s.shard.map_or(view, |shard| view.with_shard(shard))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = (data, layout);
        unreachable!("validate_layout never accepts a buffer on a big-endian host");
    }
}

/// Validates `.chl` v2/v3 bytes of **either entries encoding** and returns
/// a borrowed [`IndexView`] served straight from `data`: flat files
/// reinterpret their sections in place exactly like [`view_bytes`], while
/// compressed files borrow the skip table and encoded blob and stream-decode
/// the two label runs each query touches. A v3 shard file's identity and
/// owned set are exposed through [`IndexView::shard`]. Validation is the
/// one battery every v2/v3 loader runs, the copying loader included
/// (length, per-section checksums, padding, semantic invariants — including
/// a full decode pass over every compressed run); the only transient
/// allocation is the permutation-check scratch.
///
/// Requirements beyond [`from_bytes`]: the buffer's base address must be
/// 8-byte aligned (use [`AlignedBytes`] or an mmap, both of which guarantee
/// it) and the host little-endian; otherwise [`PersistError::Unviewable`] is
/// returned. v1 files report [`PersistError::NotZeroCopy`].
pub fn open_view(data: &[u8]) -> Result<IndexView<'_>, PersistError> {
    let layout = validate_layout(data, None)?;
    Ok(assemble_view(data, &layout))
}

/// Validates `.chl` v2/v3 bytes and returns a [`FlatView`] whose ranking,
/// offsets and entries slices are **borrowed from `data` in place** — no
/// label byte is copied. This is the flat-only, unsharded strict form of
/// [`open_view`]: a compressed file cannot back a `FlatView` (its entries
/// are not 16-byte records), and a shard file would silently answer
/// `INFINITY` for foreign vertices through the shard-blind `FlatView` API —
/// both report [`PersistError::Unviewable`]; serve them through
/// [`open_view`] / `MmapIndex`, or decode with [`from_bytes`].
pub fn view_bytes(data: &[u8]) -> Result<FlatView<'_>, PersistError> {
    let view = open_view(data)?;
    if view.shard().is_some() {
        return Err(PersistError::Unviewable {
            reason: "file is one shard of a sharded index; serve it through \
                     open_view / MmapIndex so foreign vertices stay typed",
        });
    }
    match view.storage {
        StorageView::Flat(flat) => Ok(flat),
        StorageView::Compressed(_) => Err(PersistError::Unviewable {
            reason: "entries section is delta+varint compressed; serve it through \
                     open_view / MmapIndex or load it with the copying reader",
        }),
    }
}

/// An owned byte buffer whose base address is guaranteed 8-byte aligned —
/// the backing [`view_bytes`] needs when the bytes do not come from an mmap.
/// `Vec<u8>` makes no alignment promise, so serialized bytes destined for a
/// zero-copy view are staged here instead.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// An aligned buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies `data` into a fresh aligned buffer.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut buf = Self::zeroed(data.len());
        buf.as_mut_slice().copy_from_slice(data);
        buf
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the u64 backing store holds at least `len` bytes
        // (allocated in zeroed), u8 has no alignment requirement, and the
        // lifetime is tied to &self.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    /// The buffer contents, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as for as_slice, with exclusive access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }

    /// Number of bytes held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

/// Reads a whole file into an [`AlignedBytes`] buffer, the buffered
/// stand-in for an mmap when mapping is unavailable or disabled.
pub fn read_aligned<P: AsRef<Path>>(path: P) -> Result<AlignedBytes, PersistError> {
    use std::io::Read;
    let mut file = fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| PersistError::Malformed("file too large to address".into()))?;
    let mut buf = AlignedBytes::zeroed(len);
    file.read_exact(buf.as_mut_slice())?;
    Ok(buf)
}

/// Writes `index` to `path` in the current (v3) `.chl` format, replacing
/// any existing file whole; see [`save_with`].
pub fn save<P: AsRef<Path>>(index: &FlatIndex, path: P) -> Result<(), PersistError> {
    save_with(index, path, &SaveOptions::default())
}

/// Writes `index` to `path` in the `.chl` v3 format under explicit
/// [`SaveOptions`] (`compress: true` for the delta+varint entries section).
///
/// The bytes go to a sibling file in the same directory, which is synced
/// and then renamed over `path`, and on Unix the directory is synced too. A
/// reader opening `path` finds the old file or the new one, whole; a reader
/// or mapping that already holds the old file keeps its bytes. The sibling
/// is removed when a step fails.
pub fn save_with<P: AsRef<Path>>(
    index: &FlatIndex,
    path: P,
    options: &SaveOptions,
) -> Result<(), PersistError> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut sibling = path.as_os_str().to_owned();
    // ORDERING: the count only keeps sibling names unique; it orders no
    // other memory.
    let save = SAVES.fetch_add(1, Ordering::Relaxed);
    sibling.push(format!(".{}-{save}.tmp", std::process::id()));
    let written = fs::File::create(&sibling)
        .and_then(|mut file| {
            file.write_all(&to_bytes_with(index, options))?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&sibling, path))
        .and_then(|()| sync_parent(path));
    if written.is_err() {
        let _ = fs::remove_file(&sibling);
    }
    Ok(written?)
}

/// Syncs the directory holding `path`, which makes a rename into it
/// durable. Directories cannot be opened for syncing everywhere; on those
/// platforms this is a no-op.
fn sync_parent(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Reads an index from a `.chl` file of any version through the copying
/// path ([`from_bytes`]). The file is read into an [`AlignedBytes`], so a
/// v2/v3 file is validated in place with no staging copy.
pub fn load<P: AsRef<Path>>(path: P) -> Result<FlatIndex, PersistError> {
    from_bytes(&read_aligned(path)?)
}

/// Reads a `.chl` file's shard identity without decoding its labels:
/// `Ok(None)` for a whole-index file, the CRC-verified [`ShardSpec`] for a
/// v3 shard file. Reads (but does not decode or checksum) the label
/// payload — the shard section trails it and compressed files are only
/// self-describing with the skip table in hand — so this costs one file
/// read, not a full validation pass. The identity is cut out through the
/// same layout and cast the view uses.
pub fn load_shard_spec<P: AsRef<Path>>(path: P) -> Result<Option<ShardSpec>, PersistError> {
    let data = read_aligned(path)?;
    let header = parse_header(&data)?;
    if !header.is_sharded() {
        return Ok(None);
    }
    let layout = plan_file(&header, &data)?;
    let Some(s) = &layout.shard else {
        return Ok(None);
    };
    // Verify the shard section's own CRC so a forged identity cannot pass,
    // without paying for the (much larger) label-section checksums.
    check_crc(&data, s)?;
    #[cfg(not(target_endian = "little"))]
    return Err(PersistError::Unviewable {
        reason: "host is big-endian",
    });
    #[cfg(target_endian = "little")]
    {
        let spec = cast_shard(&data, s).to_spec();
        spec.validate(header.num_vertices)?;
        Ok(Some(spec))
    }
}

/// Reads and validates just the header of a `.chl` file, plus, for a
/// compressed file, the blob length in [`FileHeader::blob_len`].
pub fn load_header<P: AsRef<Path>>(path: P) -> Result<FileHeader, PersistError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = fs::File::open(path)?;
    let mut head = Vec::with_capacity(HEADER_LEN_V3);
    (&mut file)
        .take(HEADER_LEN_V3 as u64)
        .read_to_end(&mut head)?;
    let mut header = parse_header(&head)?;
    if header.is_compressed() {
        // One more 8-byte read: the skip table's last slot.
        header.blob_len = header.read_blob_len(|at| {
            let mut word = [0u8; 8];
            file.seek(SeekFrom::Start(at.start as u64))?;
            file.read_exact(&mut word)?;
            Ok(u64::from_le_bytes(word))
        });
    }
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HubLabelIndex;

    /// The frozen v2 golden fixture: v2 is an input format, nothing writes it.
    const V2_FLAT: &[u8] = include_bytes!("../tests/fixtures/golden.v2-flat.chl");

    fn tiny_flat() -> FlatIndex {
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_index(&HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        ))
    }

    /// Recomputes and patches a forged v3 buffer's header CRC so a test can
    /// prove a deeper guard fires after the header checks pass. No-op for
    /// pre-v3 buffers.
    fn reseal_header(buf: &mut [u8]) {
        if u32::from_le_bytes(buf[4..8].try_into().unwrap()) == VERSION {
            seal_header(buf);
        }
    }

    /// The section table of a whole v2/v3 buffer.
    fn layout_of(buf: &[u8]) -> Layout {
        plan_file(&parse_header(buf).unwrap(), buf).unwrap()
    }

    /// Recomputes and patches every checksum of a forged v2/v3 buffer —
    /// section CRCs, and on v3 the header CRC — so corruption tests can
    /// reach the post-checksum validators.
    fn reseal(buf: &mut [u8]) {
        reseal_header(buf);
        let layout = layout_of(buf);
        seal(buf, &layout);
    }

    #[test]
    fn forged_compressed_entry_count_is_rejected_not_allocated() {
        let flat = tiny_flat();
        let mut bytes = to_bytes_with(&flat, &SaveOptions::compressed());
        // Forge the header's m to a count no blob of this size could hold
        // (every encoded entry costs at least two bytes). Before the layout
        // bound this reached `Vec::with_capacity(m)` in the copying loader —
        // a capacity-overflow abort instead of a typed error.
        bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
        // On v3 the header CRC catches the tampering first...
        assert!(matches!(
            from_bytes(&bytes),
            Err(PersistError::HeaderChecksumMismatch { .. })
        ));
        // ...and once resealed, the CRC-proven header's impossible m is a
        // HeaderMalformed from the layout bound, before any allocation.
        reseal_header(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes),
            Err(PersistError::HeaderMalformed(msg)) if msg.contains("cannot fit")
        ));
        let aligned = AlignedBytes::from_slice(&bytes);
        assert!(matches!(
            open_view(&aligned),
            Err(PersistError::HeaderMalformed(_))
        ));
        // m = u64::MAX must trip the same guard, not overflow the bound
        // arithmetic.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal_header(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes),
            Err(PersistError::HeaderMalformed(_))
        ));
    }

    /// Bit-at-a-time CRC-32 with no table: the reference the sliced kernel
    /// is checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_split() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        // Every block/tail split (len mod 16) at every alignment.
        for off in 0..16 {
            for len in 0..=300 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "off {off}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let flat = tiny_flat();
        let bytes = to_bytes(&flat);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, flat);
        // Serialization is deterministic.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn path_section_round_trips_on_every_loader() {
        // Structurally valid parents for tiny_flat's five entries (each
        // vertex's run is sorted by hub rank-position, so vertex 0's
        // positive-distance entry toward hub 1 comes first): zero-distance
        // entries are their own parent, the rest step to a different
        // in-range vertex.
        let flat = tiny_flat().with_parents(vec![1, 0, 1, 1, 2]).unwrap();
        assert!(flat.has_path_data());

        let bytes = to_bytes(&flat);
        let header = parse_header(&bytes).unwrap();
        assert_eq!(header.version, VERSION);
        assert!(header.is_paths());

        // Copying loader round-trips the parents exactly, and the encoding
        // stays deterministic.
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.parents(), flat.parents());
        assert_eq!(back, flat);
        assert_eq!(to_bytes(&back), bytes);

        // Zero-copy opens see the same parents, flat and compressed alike.
        let aligned = AlignedBytes::from_slice(&bytes);
        assert_eq!(open_view(&aligned).unwrap().parents(), flat.parents());
        let cbytes = to_bytes_with(&flat, &SaveOptions::compressed());
        let caligned = AlignedBytes::from_slice(&cbytes);
        assert_eq!(open_view(&caligned).unwrap().parents(), flat.parents());
        assert_eq!(from_bytes(&cbytes).unwrap(), flat);
    }

    #[test]
    fn path_section_corruption_is_detected() {
        let flat = tiny_flat().with_parents(vec![1, 0, 1, 1, 2]).unwrap();
        let bytes = to_bytes(&flat);
        let layout = layout_of(&bytes);
        let paths = layout.paths.as_ref().expect("file carries a path section");

        // A flipped parent byte trips the section's own CRC, attributed to
        // the paths section by name.
        let mut flipped = bytes.clone();
        flipped[paths.data.start] ^= 0x01;
        assert!(matches!(
            from_bytes(&flipped),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Paths,
                ..
            })
        ));

        // Resealed (a CRC-valid file from a hypothetical buggy writer), the
        // structural validator rejects an out-of-range parent with a typed
        // error — on the copying loader and the zero-copy open alike.
        let mut forged = bytes.clone();
        forged[paths.data.start..paths.data.start + 4].copy_from_slice(&99u32.to_le_bytes());
        reseal(&mut forged);
        assert!(matches!(
            from_bytes(&forged),
            Err(PersistError::Malformed(msg)) if msg.contains("out of range")
        ));
        let aligned = AlignedBytes::from_slice(&forged);
        assert!(matches!(
            open_view(&aligned),
            Err(PersistError::Malformed(_))
        ));

        // A zero-distance entry rewired away from its owner is equally
        // structural corruption. Entry 1 is vertex 0's zero-distance entry.
        let mut rewired = bytes.clone();
        rewired[paths.data.start + 4..paths.data.start + 8].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut rewired);
        assert!(matches!(
            from_bytes(&rewired),
            Err(PersistError::Malformed(msg)) if msg.contains("own parent")
        ));

        // Non-zero bytes in the section's reserved word or tail padding are
        // refused even when the CRC is resealed around them.
        let mut dirty_reserved = bytes.clone();
        dirty_reserved[paths.crc.end] = 1;
        reseal(&mut dirty_reserved);
        assert!(matches!(
            from_bytes(&dirty_reserved),
            Err(PersistError::NonZeroPadding { .. })
        ));
        // Every checksum is verified before any zero byte, in the order the
        // format docs give: with a ranking byte flipped too, the ranking
        // section's CRC reports first.
        let mut also_flipped = dirty_reserved.clone();
        also_flipped[layout.ranking.data.start] ^= 0x01;
        assert!(matches!(
            from_bytes(&also_flipped),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Ranking,
                ..
            })
        ));
        if paths.span.end > paths.data.end {
            let mut dirty_pad = bytes.clone();
            dirty_pad[paths.data.end] = 1;
            reseal(&mut dirty_pad);
            assert!(matches!(
                from_bytes(&dirty_pad),
                Err(PersistError::NonZeroPadding { .. })
            ));
        }
    }

    #[test]
    fn v1_bytes_still_load_through_the_copying_path() {
        let flat = tiny_flat();
        let v1 = to_bytes_v1(&flat);
        let back = from_bytes(&v1).unwrap();
        assert_eq!(back, flat);
        assert_eq!(parse_header(&v1).unwrap().version, VERSION_V1);
        // ...but cannot back a zero-copy view.
        let aligned = AlignedBytes::from_slice(&v1);
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::NotZeroCopy { version: 1 })
        ));
    }

    #[test]
    fn header_describes_the_file() {
        let flat = tiny_flat();
        let bytes = to_bytes(&flat);
        let header = parse_header(&bytes).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.num_vertices, 3);
        assert_eq!(header.num_entries, 5);
        assert_eq!(header.header_len(), HEADER_LEN_V3);
        assert_eq!(header.expected_file_len(), Some(bytes.len()));
        assert!(matches!(header.checksums, Checksums::PerSection { .. }));
        assert_eq!(header.crc_shard, 0);
        assert_eq!(header.crc_header, crc32(&bytes[..HEADER_LEN_V3 - 4]));
        assert!(!header.is_sharded());

        let header = parse_header(V2_FLAT).unwrap();
        assert_eq!(header.version, VERSION_V2);
        assert_eq!(header.header_len(), HEADER_LEN_V2);
        assert_eq!(header.expected_file_len(), Some(V2_FLAT.len()));
        assert_eq!(header.crc_header, 0);

        let v1 = to_bytes_v1(&flat);
        let header = parse_header(&v1).unwrap();
        assert_eq!(header.header_len(), HEADER_LEN_V1);
        assert_eq!(header.expected_file_len(), Some(v1.len()));
        assert!(matches!(header.checksums, Checksums::WholePayload(_)));
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        // n = 3: the ranking data is 12 bytes, so the section carries 4
        // padding bytes and the offsets section still starts aligned.
        let bytes = to_bytes(&tiny_flat());
        let layout = layout_of(&bytes);
        for start in [
            layout.ranking.span.start,
            layout.offsets.span.start,
            layout.entries.span.start,
        ] {
            assert!(start.is_multiple_of(SECTION_ALIGN), "offset {start}");
        }
        assert_eq!(layout.ranking.span.len(), 16);
        assert_eq!(layout.ranking.data.len(), 12);
    }

    #[test]
    fn empty_and_zero_vertex_indexes_round_trip() {
        let empty = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(5)));
        assert_eq!(from_bytes(&to_bytes(&empty)).unwrap(), empty);
        let zero = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(0)));
        assert_eq!(from_bytes(&to_bytes(&zero)).unwrap(), zero);
        // The degenerate shapes also view.
        let aligned = AlignedBytes::from_slice(&to_bytes(&zero));
        assert_eq!(view_bytes(&aligned).unwrap().num_vertices(), 0);
    }

    #[test]
    fn view_borrows_the_buffer_in_place() {
        let flat = tiny_flat();
        let aligned = AlignedBytes::from_slice(&to_bytes(&flat));
        let view = view_bytes(&aligned).unwrap();

        // The view's slices point INTO the serialized buffer: zero copy.
        let base = aligned.as_slice().as_ptr() as usize;
        let end = base + aligned.len();
        for ptr in [
            view.offsets().as_ptr() as usize,
            view.entries().as_ptr() as usize,
            view.order().as_ptr() as usize,
        ] {
            assert!((base..end).contains(&ptr), "slice escaped the buffer");
        }

        // And it answers exactly like the owned index.
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(view.query(u, v), flat.query(u, v), "({u}, {v})");
                assert_eq!(view.query_with_hub(u, v), flat.query_with_hub(u, v));
            }
        }
        assert_eq!(FlatIndex::from_view(view), flat);
    }

    #[test]
    fn misaligned_buffers_are_refused_not_recast() {
        let bytes = to_bytes(&tiny_flat());
        let mut staging = AlignedBytes::zeroed(bytes.len() + 1);
        staging.as_mut_slice()[1..].copy_from_slice(&bytes);
        let misaligned = &staging.as_slice()[1..];
        assert!(matches!(
            view_bytes(misaligned),
            Err(PersistError::Unviewable { .. })
        ));
        // The copying loader does not care about alignment: it stages the
        // bytes aligned and loads exactly what the aligned buffer loads.
        assert_eq!(from_bytes(misaligned).unwrap(), from_bytes(&bytes).unwrap());
    }

    #[test]
    fn corruption_is_detected_with_typed_errors() {
        let bytes = to_bytes(&tiny_flat());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            from_bytes(&bad_magic),
            Err(PersistError::BadMagic { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            from_bytes(&bad_version),
            Err(PersistError::UnsupportedVersion { found: 99 })
        ));

        // Any header byte flip — here the flags word — is caught by the v3
        // header CRC before the flag is even interpreted.
        let mut bad_flags = bytes.clone();
        bad_flags[24] = 8;
        assert!(matches!(
            from_bytes(&bad_flags),
            Err(PersistError::HeaderChecksumMismatch { .. })
        ));
        // Resealed (a CRC-valid header from a hypothetical future writer),
        // the unknown bit is a typed UnsupportedFlags.
        reseal_header(&mut bad_flags);
        assert!(matches!(
            from_bytes(&bad_flags),
            Err(PersistError::UnsupportedFlags { found: 8 })
        ));

        // Forging the compressed bit onto a flat file changes the declared
        // layout out from under the payload: it must fail (the exact error
        // depends on what the reinterpreted skip table claims), never load.
        let mut forged_compressed = bytes.clone();
        forged_compressed[24] = 1;
        reseal_header(&mut forged_compressed);
        assert!(from_bytes(&forged_compressed).is_err());

        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            from_bytes(truncated),
            Err(PersistError::Truncated { .. })
        ));

        assert!(matches!(
            from_bytes(&bytes[..10]),
            Err(PersistError::Truncated { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            from_bytes(&trailing),
            Err(PersistError::TrailingBytes { extra: 1 })
        ));

        // Flip one entry byte: caught by that section's checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            from_bytes(&flipped),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Entries,
                ..
            })
        ));

        // Flip a ranking padding byte (n = 3 leaves 4 pad bytes): the
        // ranking checksum covers its padding.
        let mut pad_flip = bytes.clone();
        pad_flip[HEADER_LEN_V3 + 12] ^= 0xFF;
        assert!(matches!(
            from_bytes(&pad_flip),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Ranking,
                ..
            })
        ));

        // Flip a stored section-checksum byte: the header CRC covers the
        // section CRCs, so the header reports first; resealed, the stale
        // section CRC is a section mismatch.
        let mut bad_crc = bytes.clone();
        bad_crc[29] ^= 0xFF;
        assert!(matches!(
            from_bytes(&bad_crc),
            Err(PersistError::HeaderChecksumMismatch { .. })
        ));
        reseal_header(&mut bad_crc);
        assert!(matches!(
            from_bytes(&bad_crc),
            Err(PersistError::SectionChecksumMismatch { .. })
        ));

        // Flip a dimension byte (n's low byte): header CRC again.
        let mut bad_n = bytes.clone();
        bad_n[8] ^= 0xFF;
        assert!(matches!(
            from_bytes(&bad_n),
            Err(PersistError::HeaderChecksumMismatch { .. })
        ));
        let aligned = AlignedBytes::from_slice(&bad_n);
        assert!(matches!(
            open_view(&aligned),
            Err(PersistError::HeaderChecksumMismatch { .. })
        ));

        // The view path reports the identical errors.
        let aligned = AlignedBytes::from_slice(&flipped);
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::SectionChecksumMismatch { .. })
        ));
    }

    #[test]
    fn forged_padding_is_rejected_even_with_valid_checksums() {
        // Non-zero ranking tail padding, checksums recomputed to match.
        let mut forged = to_bytes(&tiny_flat());
        forged[HEADER_LEN_V3 + 12] = 0xAB;
        reseal(&mut forged);
        assert!(matches!(
            from_bytes(&forged),
            Err(PersistError::NonZeroPadding { .. })
        ));

        // Non-zero reserved bytes inside an entry record.
        let mut forged = to_bytes(&tiny_flat());
        let layout = layout_of(&forged);
        forged[layout.entries.data.start + 5] = 0xCD;
        reseal(&mut forged);
        let err = from_bytes(&forged).unwrap_err();
        assert!(matches!(
            err,
            PersistError::NonZeroPadding {
                offset
            } if offset == layout.entries.data.start + 5
        ));
        let aligned = AlignedBytes::from_slice(&forged);
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::NonZeroPadding { .. })
        ));
    }

    #[test]
    fn semantically_invalid_payloads_are_malformed() {
        // Hand-craft a v2 file whose checksums are valid but whose ranking
        // is not a permutation (vertex 0 listed twice).
        let n = 2u64;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // flags
        buf.extend_from_slice(&[0u8; 20]); // crc placeholders
        buf.extend_from_slice(&0u32.to_le_bytes()); // ranking[0] = 0
        buf.extend_from_slice(&0u32.to_le_bytes()); // ranking[1] = 0 (dup)
        for _ in 0..3 {
            buf.extend_from_slice(&0u64.to_le_bytes()); // offsets
        }
        reseal(&mut buf);
        assert!(matches!(from_bytes(&buf), Err(PersistError::Malformed(_))));
        let aligned = AlignedBytes::from_slice(&buf);
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn files_round_trip_on_disk() {
        let flat = tiny_flat();
        let path = std::env::temp_dir().join(format!(
            "chl-persist-test-{}-{:?}.chl",
            std::process::id(),
            std::thread::current().id()
        ));
        save(&flat, &path).unwrap();
        let header = load_header(&path).unwrap();
        assert_eq!(header.num_vertices, 3);
        assert_eq!(header.version, VERSION);
        let back = load(&path).unwrap();
        assert_eq!(back, flat);
        let aligned = read_aligned(&path).unwrap();
        assert_eq!(view_bytes(&aligned).unwrap().query(0, 2), flat.query(0, 2));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn save_replaces_the_file_and_leaves_open_handles_whole() {
        use std::io::Read;
        let dir = std::env::temp_dir().join(format!(
            "chl-persist-save-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let path = dir.join("index.chl");
        save(&tiny_flat(), &path).unwrap();
        let mut old = std::fs::File::open(&path).unwrap();
        // A reader holding the old file keeps reading the old bytes whole,
        // while the path now names the new index.
        let sharded = tiny_shardable().with_shard(tiny_shard_spec()).unwrap();
        save_with(&sharded, &path, &SaveOptions::compressed()).unwrap();
        let mut old_bytes = Vec::new();
        old.read_to_end(&mut old_bytes).unwrap();
        assert_eq!(old_bytes, to_bytes(&tiny_flat()));
        assert_eq!(load(&path).unwrap(), sharded);
        // A save whose rename fails (the target is a directory) leaves no
        // sibling behind, and neither does a successful one.
        assert!(matches!(
            save(&tiny_flat(), dir.join("sub")),
            Err(PersistError::Io(_))
        ));
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["index.chl", "sub"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_shard_spec_reads_identity_without_full_validation() {
        let path = std::env::temp_dir().join(format!(
            "chl-persist-shardspec-test-{}-{:?}.chl",
            std::process::id(),
            std::thread::current().id()
        ));
        // Whole-index files answer None.
        save(&tiny_flat(), &path).unwrap();
        assert_eq!(load_shard_spec(&path).unwrap(), None);
        // Shard files answer their spec, flat and compressed alike.
        let sharded = tiny_shardable().with_shard(tiny_shard_spec()).unwrap();
        for options in [SaveOptions::default(), SaveOptions::compressed()] {
            save_with(&sharded, &path, &options).unwrap();
            assert_eq!(load_shard_spec(&path).unwrap(), Some(tiny_shard_spec()));
        }
        // A flipped shard-section byte is caught by the section CRC even
        // though the label sections are never checksummed on this path.
        let mut bytes = to_bytes(&sharded);
        let shard_byte = bytes.len() - 1; // high byte of the last owned id
        bytes[shard_byte] ^= 1;
        reseal_header(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_shard_spec(&path),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Shard,
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn aligned_bytes_guarantee_alignment() {
        for len in [0usize, 1, 7, 8, 9, 41] {
            let buf = AlignedBytes::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.is_empty(), len == 0);
            assert!((buf.as_slice().as_ptr() as usize).is_multiple_of(8));
            assert!(buf.iter().all(|&b| b == 0));
        }
        let mut buf = AlignedBytes::from_slice(&[1, 2, 3]);
        buf[1] = 9;
        assert_eq!(&buf[..], &[1, 9, 3]);
    }

    fn tiny_compressed_bytes() -> Vec<u8> {
        to_bytes_with(&tiny_flat(), &SaveOptions::compressed())
    }

    #[test]
    fn uvarints_round_trip_canonically() {
        for x in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
            let mut pos = 0;
            assert_eq!(read_uvarint_canonical(&buf, &mut pos), Ok(x));
            assert_eq!(pos, buf.len());
        }
        // Overlong: 1 encoded in two groups.
        let mut pos = 0;
        assert!(read_uvarint_canonical(&[0x81, 0x00], &mut pos).is_err());
        // Truncated: continuation bit with nothing after it.
        let mut pos = 0;
        assert!(read_uvarint_canonical(&[0x80], &mut pos).is_err());
        // Overflow: 11 continuation groups.
        let mut pos = 0;
        assert!(read_uvarint_canonical(&[0x80u8; 11], &mut pos).is_err());
        // Overflow: 10th group carrying more than u64's last bit.
        let mut pos = 0;
        let mut wide = vec![0x80u8; 9];
        wide.push(0x02);
        assert!(read_uvarint_canonical(&wide, &mut pos).is_err());
    }

    #[test]
    fn compressed_bytes_round_trip_and_are_byte_stable() {
        let flat = tiny_flat();
        let bytes = tiny_compressed_bytes();
        let header = parse_header(&bytes).unwrap();
        assert_eq!(header.flags, FLAG_COMPRESSED_ENTRIES);
        assert!(header.is_compressed());
        assert_eq!(header.expected_file_len(), None);

        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, flat);
        // Decode → re-encode reproduces the file byte for byte (canonical
        // varints make the encoding injective).
        assert_eq!(to_bytes_with(&back, &SaveOptions::compressed()), bytes);
        // And the flat serialization of the decoded index matches the
        // directly written flat file: the encodings are interchangeable.
        assert_eq!(to_bytes(&back), to_bytes(&flat));
    }

    #[test]
    fn compressed_views_stream_from_the_buffer_in_place() {
        let flat = tiny_flat();
        let aligned = AlignedBytes::from_slice(&tiny_compressed_bytes());
        let view = open_view(&aligned).unwrap();
        assert!(view.is_compressed());
        assert_eq!(view.num_vertices(), 3);
        assert_eq!(view.total_labels(), 5);
        assert!(view.encoding().contains("compressed"));
        // The compressed storage footprint is what the buffer holds, not
        // the 16-byte-per-entry decoded size.
        assert!(view.memory_bytes() < flat.memory_bytes());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(view.query(u, v), flat.query(u, v), "({u}, {v})");
                assert_eq!(view.query_with_hub(u, v), flat.query_with_hub(u, v));
            }
        }
        assert_eq!(view.to_owned_index(), flat);

        // The strict flat view cannot back a compressed file...
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::Unviewable { .. })
        ));
        // ...while flat files also serve through open_view.
        let flat_aligned = AlignedBytes::from_slice(&to_bytes(&flat));
        let flat_view = open_view(&flat_aligned).unwrap();
        assert!(!flat_view.is_compressed());
        assert_eq!(flat_view.query(0, 2), flat.query(0, 2));
    }

    #[test]
    fn compressed_corruption_is_detected_with_typed_errors() {
        let bytes = tiny_compressed_bytes();

        // Any blob byte flip trips the entries-section checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            from_bytes(&flipped),
            Err(PersistError::SectionChecksumMismatch { .. })
        ));
        let aligned = AlignedBytes::from_slice(&flipped);
        assert!(matches!(
            open_view(&aligned),
            Err(PersistError::SectionChecksumMismatch { .. })
        ));

        // Truncation and trailing bytes are caught before checksums.
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 8]),
            Err(PersistError::Truncated { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0; 8]);
        assert!(matches!(
            from_bytes(&trailing),
            Err(PersistError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn forged_compressed_payloads_are_rejected_after_resealing() {
        // A non-monotone skip table, checksums recomputed to match.
        let mut forged = tiny_compressed_bytes();
        let skip = layout_of(&forged).entries.prelude();
        forged[skip.start + 8..skip.start + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut forged);
        let err = from_bytes(&forged).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");

        // An overlong varint (0x81 0x00 spells 1 in two groups) in the
        // first run, blob re-padded and resealed: canonicality is enforced,
        // which is what keeps re-encoding byte-stable.
        let flat = tiny_flat();
        let (skip_table, mut blob) = encode_entries(flat.offsets(), flat.entries());
        // Vertex 0's first gap varint is a single byte (hub position 0);
        // rewrite it as the same value in two groups.
        assert!(blob[0] & 0x80 == 0);
        blob.splice(0..1, [0x80 | blob[0], 0x00]);
        let mut skip2: Vec<u64> = skip_table
            .iter()
            .map(|&s| if s > 0 { s + 1 } else { 0 })
            .collect();
        // Rebuild the file by hand around the forged blob.
        let n = flat.num_vertices() as u64;
        let m = flat.total_labels() as u64;
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf.extend_from_slice(&FLAG_COMPRESSED_ENTRIES.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]);
        for &v in flat.ranking().order() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        while !buf.len().is_multiple_of(SECTION_ALIGN) {
            buf.push(0);
        }
        for &off in flat.offsets() {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        for s in skip2.drain(..) {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.extend_from_slice(&blob);
        while !buf.len().is_multiple_of(SECTION_ALIGN) {
            buf.push(0);
        }
        reseal(&mut buf);
        let err = from_bytes(&buf).unwrap_err();
        assert!(
            err.to_string().contains("overlong"),
            "expected overlong-varint rejection, got: {err}"
        );
        let aligned = AlignedBytes::from_slice(&buf);
        assert!(matches!(
            open_view(&aligned),
            Err(PersistError::Malformed(_))
        ));

        // Non-zero blob tail padding, resealed: NonZeroPadding, as for flat.
        let mut forged = tiny_compressed_bytes();
        let l = layout_of(&forged);
        if l.entries.data.end < l.entries.span.end {
            let pad_at = l.entries.data.end;
            forged[pad_at] = 0xEE;
            reseal(&mut forged);
            assert!(matches!(
                from_bytes(&forged),
                Err(PersistError::NonZeroPadding { offset }) if offset == pad_at
            ));
        }
    }

    #[test]
    fn compressed_entries_section_is_at_least_2x_smaller_on_a_grid() {
        use chl_graph::generators::{grid_network, GridOptions};
        let g = grid_network(
            &GridOptions {
                rows: 10,
                cols: 10,
                ..GridOptions::default()
            },
            7,
        );
        let ranking = chl_ranking::degree_ranking(&g);
        let flat = FlatIndex::from_index(&crate::pll::sequential_pll(&g, &ranking).index);

        let flat_bytes = to_bytes(&flat);
        let comp_bytes = to_bytes_with(&flat, &SaveOptions::compressed());
        let file_ratio = flat_bytes.len() as f64 / comp_bytes.len() as f64;

        let header = parse_header(&comp_bytes).unwrap();
        let encoded = header.entries_section_len(comp_bytes.len() as u64);
        let decoded = header.decoded_entries_len();
        assert_eq!(decoded, flat.total_labels() as u64 * 16);
        assert!(
            encoded * 2 <= decoded,
            "entries section must shrink >= 2x: {encoded} encoded vs {decoded} decoded \
             (whole file {file_ratio:.2}x)"
        );

        // And the flat header reports the flat section size.
        let flat_header = parse_header(&flat_bytes).unwrap();
        assert_eq!(
            flat_header.entries_section_len(flat_bytes.len() as u64),
            decoded
        );
    }

    #[test]
    fn empty_and_zero_vertex_indexes_round_trip_compressed() {
        let empty = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(5)));
        let bytes = to_bytes_with(&empty, &SaveOptions::compressed());
        assert_eq!(from_bytes(&bytes).unwrap(), empty);
        let aligned = AlignedBytes::from_slice(&bytes);
        let view = open_view(&aligned).unwrap();
        assert_eq!(view.query(0, 3), chl_graph::types::INFINITY);
        assert_eq!(view.query(2, 2), 0);

        let zero = FlatIndex::from_index(&HubLabelIndex::empty(Ranking::identity(0)));
        let bytes = to_bytes_with(&zero, &SaveOptions::compressed());
        assert_eq!(from_bytes(&bytes).unwrap(), zero);
        let aligned = AlignedBytes::from_slice(&bytes);
        assert_eq!(open_view(&aligned).unwrap().num_vertices(), 0);
    }

    #[test]
    fn display_messages_are_informative() {
        let e = PersistError::BadMagic { found: *b"NOPE" };
        assert!(e.to_string().contains("magic"));
        let e = PersistError::UnsupportedVersion { found: 7 };
        assert!(e.to_string().contains('7'));
        let e = PersistError::UnsupportedFlags { found: 3 };
        assert!(e.to_string().contains("flags"));
        let e = PersistError::Truncated {
            expected: 100,
            found: 10,
        };
        assert!(e.to_string().contains("100"));
        let e = PersistError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = PersistError::SectionChecksumMismatch {
            section: Section::Offsets,
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("offsets") && e.to_string().contains("checksum"));
        let e = PersistError::NonZeroPadding { offset: 44 };
        assert!(e.to_string().contains("44"));
        let e = PersistError::Unviewable { reason: "why" };
        assert!(e.to_string().contains("why"));
        let e = PersistError::NotZeroCopy { version: 1 };
        assert!(e.to_string().contains("v1"));
        let e = PersistError::TrailingBytes { extra: 3 };
        assert!(e.to_string().contains("trailing"));
        let e = PersistError::Malformed("oops".into());
        assert!(e.to_string().contains("oops"));
        let e = PersistError::HeaderChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("header") && e.to_string().contains("checksum"));
        let e = PersistError::HeaderMalformed("bad shard word".into());
        assert!(e.to_string().contains("bad shard word"));
    }

    // ---- v3 shard section -------------------------------------------------

    /// A 3-vertex index where vertex 1 carries no labels: the shape of shard
    /// 0-of-2 owning positions {0, 2} (foreign vertices have empty runs).
    fn tiny_shardable() -> FlatIndex {
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_index(&HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (2, 1, 1), (2, 2, 0)],
            ranking,
        ))
    }

    fn tiny_shard_spec() -> ShardSpec {
        ShardSpec {
            shard_id: 0,
            shard_count: 2,
            zeta: 2,
            owned: vec![0, 2],
        }
    }

    #[test]
    fn sharded_files_round_trip_with_typed_foreign_answers() {
        let flat = tiny_shardable()
            .with_shard(tiny_shard_spec())
            .expect("spec is consistent with the labels");
        let bytes = to_bytes(&flat);

        let header = parse_header(&bytes).unwrap();
        assert_eq!(header.version, VERSION);
        assert!(header.is_sharded());
        assert_ne!(header.flags & FLAG_SHARDED, 0);
        assert_ne!(header.crc_shard, 0);
        assert_eq!(header.expected_file_len(), None);

        // Copying loader preserves the shard identity.
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, flat);
        let spec = back.shard().expect("shard section round-trips");
        assert_eq!(spec, &tiny_shard_spec());

        // Borrowed view: shard-honest queries.
        let aligned = AlignedBytes::from_slice(&bytes);
        let view = open_view(&aligned).unwrap();
        let shard = view.shard().expect("view exposes the shard");
        assert_eq!((shard.shard_id, shard.shard_count, shard.zeta), (0, 2, 2));
        assert!(shard.owns(0) && !shard.owns(1) && shard.owns(2));
        assert_eq!(view.try_query(0, 2), Ok(2));
        assert_eq!(view.try_query(0, 0), Ok(0));
        assert_eq!(
            view.try_query(0, 1),
            Err(crate::flat::NotThisShard { vertex: 1 })
        );
        assert_eq!(
            view.try_query(1, 2),
            Err(crate::flat::NotThisShard { vertex: 1 })
        );
        // Out-of-range endpoints stay data, exactly as unsharded.
        assert_eq!(view.try_query(99, 0), Ok(chl_graph::types::INFINITY));
        // The untyped path still answers (callers who opt out of typing).
        assert_eq!(view.query(0, 2), 2);

        // to_owned_index keeps the shard attached.
        let owned = view.to_owned_index();
        assert_eq!(owned.shard(), Some(&tiny_shard_spec()));
        assert_eq!(
            owned.try_query(0, 1),
            Err(crate::flat::NotThisShard { vertex: 1 })
        );

        // view_bytes refuses shard files: FlatView has no shard channel, so
        // foreign vertices would silently read as unreachable.
        assert!(matches!(
            view_bytes(&aligned),
            Err(PersistError::Unviewable { .. })
        ));

        // Compressed + sharded composes.
        let comp = to_bytes_with(&flat, &SaveOptions::compressed());
        let h = parse_header(&comp).unwrap();
        assert!(h.is_compressed() && h.is_sharded());
        assert_eq!(from_bytes(&comp).unwrap(), flat);
        let aligned = AlignedBytes::from_slice(&comp);
        let view = open_view(&aligned).unwrap();
        assert_eq!(
            view.try_query(0, 1),
            Err(crate::flat::NotThisShard { vertex: 1 })
        );
        assert_eq!(view.try_query(0, 2), Ok(2));
    }

    #[test]
    fn with_shard_rejects_inconsistent_specs() {
        // Vertex 1 carries labels in tiny_flat, so a spec that disowns it is
        // inconsistent with the payload.
        let err = tiny_flat().with_shard(tiny_shard_spec()).unwrap_err();
        assert!(
            err.to_string().contains("not in the owned set"),
            "unexpected: {err}"
        );

        // Owned ids must be strictly increasing and in range.
        let mut dup = tiny_shard_spec();
        dup.owned = vec![0, 0];
        assert!(tiny_shardable().with_shard(dup).is_err());
        let mut oob = tiny_shard_spec();
        oob.owned = vec![0, 9];
        assert!(tiny_shardable().with_shard(oob).is_err());
        let mut bad_id = tiny_shard_spec();
        bad_id.shard_id = 5;
        assert!(tiny_shardable().with_shard(bad_id).is_err());
    }

    #[test]
    fn shard_section_forgeries_are_rejected() {
        let flat = tiny_shardable().with_shard(tiny_shard_spec()).unwrap();
        let bytes = to_bytes(&flat);
        let layout = layout_of(&bytes);
        let shard = layout.shard.as_ref().expect("file is sharded");

        // Flip a shard-section byte, reseal only the header: the shard CRC
        // catches it with a typed section error.
        let mut forged = bytes.clone();
        forged[shard.span.start] ^= 0xFF;
        reseal_header(&mut forged);
        assert!(matches!(
            from_bytes(&forged),
            Err(PersistError::SectionChecksumMismatch {
                section: Section::Shard,
                ..
            })
        ));

        // Non-increasing owned ids, fully resealed: Malformed.
        let mut forged = bytes.clone();
        let owned_at = shard.data.start;
        forged[owned_at..owned_at + 4].copy_from_slice(&2u32.to_le_bytes());
        forged[owned_at + 4..owned_at + 8].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut forged);
        assert!(matches!(
            from_bytes(&forged),
            Err(PersistError::Malformed(_))
        ));

        // Disown a labeled vertex (claim {1, 2} instead of {0, 2}), fully
        // resealed: the cross-section consistency check fires.
        let mut forged = bytes.clone();
        forged[owned_at..owned_at + 4].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut forged);
        let err = from_bytes(&forged).unwrap_err();
        assert!(
            err.to_string().contains("not in the owned set"),
            "unexpected: {err}"
        );
        let aligned = AlignedBytes::from_slice(&forged);
        assert!(open_view(&aligned).is_err());

        // Shard tail padding is covered by the shard CRC.
        if shard.data.end < shard.span.end {
            let mut forged = bytes.clone();
            forged[shard.data.end] = 0xAA;
            reseal(&mut forged);
            assert!(matches!(
                from_bytes(&forged),
                Err(PersistError::NonZeroPadding { offset }) if offset == shard.data.end
            ));
        }

        // A nonzero crc_shard on an unsharded header is HeaderMalformed.
        let mut unsharded = to_bytes(&tiny_flat());
        unsharded[40..44].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        reseal_header(&mut unsharded);
        assert!(matches!(
            from_bytes(&unsharded),
            Err(PersistError::HeaderMalformed(_))
        ));
    }

    #[test]
    fn v2_header_corruption_reports_the_caveat() {
        // Corrupt a header byte of a genuine v2 file (no header CRC): every
        // loader returns the same typed error, and its message points at the
        // v2 gap.
        assert_eq!(parse_header(V2_FLAT).unwrap().version, VERSION_V2);
        let mut bad = AlignedBytes::from_slice(V2_FLAT);
        bad[8] ^= 0x01; // n's low byte
        let copied = from_bytes(&bad).unwrap_err().to_string();
        assert!(
            copied.contains("v2 headers carry no checksum"),
            "unexpected: {copied}"
        );
        assert_eq!(open_view(&bad).unwrap_err().to_string(), copied);
        let path = std::env::temp_dir().join(format!(
            "chl-persist-v2-caveat-test-{}-{:?}.chl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, &*bad).unwrap();
        let mapped = crate::mapped::MmapIndex::open(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(mapped.to_string(), copied);
        // Uncorrupted v2 still loads cleanly.
        assert!(from_bytes(V2_FLAT).is_ok());
    }
}
