//! Memory-mapped serving: a `.chl` file queried straight from the OS
//! page cache.
//!
//! [`MmapIndex`] is the zero-copy member of the serving-layout family (next
//! to the owned [`FlatIndex`](crate::flat::FlatIndex)): it owns a read-only
//! mapping of the index file, validates it **once** at open — with the one
//! validator every loader runs — and then hands out [`IndexView`]s borrowed
//! directly from the mapped bytes. Nothing is deserialized and no heap copy
//! of the payload is ever made: the kernel pages label data in on demand,
//! cold-serve cost is one validation scan instead of scan + allocate +
//! rebuild, and several processes serving the same file share one physical
//! copy of it.
//!
//! With the `mmap` feature (default) the backing is a real `mmap(2)` via the
//! vendored `memmap2` shim; without it — or when mapping the file fails at
//! runtime — the same type transparently falls back to one buffered read
//! into an 8-byte-aligned heap buffer, preserving behavior everywhere at the
//! cost of the copy. Either way every query runs on the one [`IndexView`]
//! kernel: flat files reinterpret their entries in place, while compressed
//! files (`FLAG_COMPRESSED_ENTRIES`) stream-decode the two label runs each
//! query intersects, directly from the mapped bytes at the compressed
//! footprint.
//!
//! The aligned layout is what makes in-place reinterpretation possible.
//! Opening a file of an earlier format version reports
//! [`PersistError::UpgradeRequired`], as every loader does. A shard file
//! maps like any other; its identity is cached at open
//! ([`MmapIndex::shard`]) and its views answer
//! [`IndexView::try_query`] shard-honestly.

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::path::Path;

use chl_graph::types::{Distance, VertexId};

use crate::flat::IndexView;
use crate::oracle::DistanceOracle;
use crate::persist::{self, AlignedBytes, Layout, PersistError, ShardSpec};

/// A `.chl` index served zero-copy from a file mapping (or, as a
/// fallback, from one aligned buffered read of the file).
///
/// ```no_run
/// use chl_core::mapped::MmapIndex;
/// use chl_core::oracle::DistanceOracle;
///
/// let index = MmapIndex::open("graph.chl").expect("valid index file");
/// let oracle: &dyn DistanceOracle = &index;
/// println!("dist = {}", oracle.distance(0, 42));
/// ```
///
/// ## File stability
///
/// The open is safe Rust, but a memory map observes external changes to its
/// file: another process truncating or rewriting the index in place while
/// it serves can crash queries (`SIGBUS`) or change answers. Treat published
/// `.chl` files as immutable and replace them by rename, never in place.
/// [`persist::save`] does exactly that (and so `chl build --out`), so a
/// mapping of the old file keeps serving the old bytes. The buffered
/// fallback has no such coupling.
#[derive(Debug)]
pub struct MmapIndex {
    backing: Backing,
    /// The section table `open` validated `backing` against; every view
    /// is assembled from its rows. Boxed: the table outweighs the rest.
    layout: Box<Layout>,
    /// Owned copy of the shard section, cached at open so per-query shard
    /// membership checks never re-walk the mapped bytes' layout.
    shard: Option<ShardSpec>,
}

#[derive(Debug)]
enum Backing {
    #[cfg(feature = "mmap")]
    Mapped(memmap2::Mmap),
    Buffered(AlignedBytes),
}

impl Backing {
    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(feature = "mmap")]
            Backing::Mapped(map) => map,
            Backing::Buffered(buf) => buf,
        }
    }
}

#[cfg(feature = "mmap")]
fn open_backing(path: &Path) -> Result<Backing, PersistError> {
    let file = std::fs::File::open(path)?;
    // SAFETY: the mapping is read-only; the documented contract of
    // MmapIndex (files are replaced by rename, not mutated in place) is
    // exactly the stability requirement Mmap::map states.
    match unsafe { memmap2::Mmap::map(&file) } {
        Ok(map) => Ok(Backing::Mapped(map)),
        // Filesystems without mmap support (some network/FUSE mounts):
        // degrade to the buffered read rather than failing the open.
        Err(_) => Ok(Backing::Buffered(persist::read_aligned(path)?)),
    }
}

#[cfg(not(feature = "mmap"))]
fn open_backing(path: &Path) -> Result<Backing, PersistError> {
    Ok(Backing::Buffered(persist::read_aligned(path)?))
}

impl MmapIndex {
    /// Opens and fully validates a `.chl` file for zero-copy serving.
    ///
    /// Validation is the same function the copying loader runs (length,
    /// per-section checksums, padding, semantic invariants) and runs once;
    /// subsequent [`MmapIndex::view`] calls are a pointer cast. Every
    /// corruption mode is a typed [`PersistError`]; a file of an earlier
    /// format version is [`PersistError::UpgradeRequired`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let backing = open_backing(path.as_ref())?;
        let layout = persist::validate_layout(backing.as_slice(), None)?;
        let shard = persist::assemble_view(backing.as_slice(), &layout)
            .shard()
            .map(|s| s.to_spec());
        Ok(MmapIndex {
            backing,
            layout: Box::new(layout),
            shard,
        })
    }

    /// The borrowed query kernel over the mapped bytes. Cheap enough to call
    /// per query: assembling the view is a few slice cuts and pointer casts
    /// over the layout [`MmapIndex::open`] validated and kept. Flat files
    /// serve their records in place, compressed files stream-decode — the
    /// query kernel is the same either way.
    #[inline]
    pub fn view(&self) -> IndexView<'_> {
        // The backing is immutable for self's lifetime (modulo the
        // documented external-mutation caveat) and keeps its 8-byte base
        // alignment: mmap is page-aligned, AlignedBytes by construction.
        persist::assemble_view(self.backing.as_slice(), &self.layout)
    }

    /// `true` when the file carries a path section, i.e.
    /// [`crate::paths::PathOracle::path`] can answer through this index.
    pub fn has_path_data(&self) -> bool {
        self.layout.paths.is_some()
    }

    /// `true` when the file's entries section is delta+varint compressed —
    /// queries stream-decode instead of reinterpreting records in place.
    pub fn is_compressed(&self) -> bool {
        self.layout.compressed
    }

    /// The shard identity cached at open, when the file is one QDOL shard
    /// of a sharded index; `None` for a whole index.
    pub fn shard(&self) -> Option<&ShardSpec> {
        self.shard.as_ref()
    }

    /// `true` when the file is one shard of a sharded index.
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// `true` when the index is backed by a real file mapping, `false` on
    /// the buffered fallback (feature disabled or mapping unsupported).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(feature = "mmap")]
            Backing::Mapped(_) => true,
            Backing::Buffered(_) => false,
        }
    }

    /// Number of vertices covered by the index.
    pub fn num_vertices(&self) -> usize {
        self.layout.n
    }

    /// Total number of labels stored.
    pub fn total_labels(&self) -> usize {
        self.layout.m
    }

    /// Size of the backing file image in bytes — what the mapping can fault
    /// in (or what the fallback buffer holds).
    pub fn file_len(&self) -> usize {
        self.backing.as_slice().len()
    }
}

/// Every call answers from one [`IndexView`] assembled for that call.
impl DistanceOracle for MmapIndex {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.view().distance(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.layout.n
    }

    /// For a mapped index the whole file image backs queries (the kernel
    /// decides residency); the fallback holds the same bytes on the heap.
    fn memory_bytes(&self) -> usize {
        self.file_len()
    }

    fn distances(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Distance> {
        self.view().distances(pairs)
    }

    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        self.view().matrix(sources, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::paths::PathOracle;
    use crate::persist::SaveOptions;
    use chl_graph::types::INFINITY;
    use chl_ranking::Ranking;

    fn tiny_flat() -> FlatIndex {
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        )
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "chl-mapped-test-{}-{:?}-{tag}.chl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn mapped_index_answers_identically_to_owned() {
        let path = temp_path("parity");
        // Every layout the stored section ranges can describe: compressed x
        // path section x shard section.
        for combo in 0..8u32 {
            let (compressed, paths, sharded) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
            let mut flat = tiny_flat();
            if paths {
                // One parent per entry: self for distance 0, else vertex 1,
                // the only neighbor of both path ends.
                flat = flat.with_parents(vec![1, 0, 1, 1, 2]).unwrap();
            }
            if sharded {
                let spec = ShardSpec {
                    shard_id: 0,
                    shard_count: 3,
                    zeta: 2,
                    owned: vec![0, 1],
                };
                flat = flat.restrict_to_shard(spec).unwrap();
            }
            let options = SaveOptions {
                compress: compressed,
            };
            flat.save_with(&path, &options).unwrap();

            let mapped = MmapIndex::open(&path).unwrap();
            assert_eq!(mapped.num_vertices(), flat.num_vertices());
            assert_eq!(mapped.total_labels(), flat.total_labels());
            assert_eq!(mapped.is_compressed(), compressed);
            assert_eq!(mapped.has_path_data(), paths);
            assert_eq!(mapped.shard(), flat.shard());
            assert_eq!(
                mapped.file_len(),
                std::fs::metadata(&path).unwrap().len() as usize
            );
            for u in 0..5 {
                for v in 0..5 {
                    let tag = format!("combo {combo} ({u}, {v})");
                    assert_eq!(mapped.view().query(u, v), flat.query(u, v), "{tag}");
                    assert_eq!(mapped.distance(u, v), flat.query(u, v), "{tag}");
                    assert_eq!(
                        mapped.view().query_with_hub(u, v),
                        flat.query_with_hub(u, v),
                        "{tag}"
                    );
                    assert_eq!(
                        mapped.view().try_query(u, v),
                        flat.as_index_view().try_query(u, v),
                        "{tag}"
                    );
                    assert_eq!(mapped.view().path(u, v), flat.path(u, v), "{tag}");
                }
            }
            // Out-of-range stays data, not a panic, through the mapped path too.
            assert_eq!(mapped.distance(99, 99), INFINITY);

            let oracle: &dyn DistanceOracle = &mapped;
            assert_eq!(oracle.distances(&[(0, 1), (1, 0)]), vec![1, 1]);
            assert!(oracle.memory_bytes() > 0);

            // With the feature on (and a Unix host) this is a real mapping;
            // either way the backend answered identically above.
            #[cfg(all(feature = "mmap", unix))]
            assert!(mapped.is_mapped());
            #[cfg(not(feature = "mmap"))]
            assert!(!mapped.is_mapped());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_files_are_refused_with_a_typed_error() {
        let path = temp_path("v1");
        std::fs::write(&path, include_bytes!("../tests/fixtures/golden.v1.chl")).unwrap();
        assert!(matches!(
            MmapIndex::open(&path),
            Err(PersistError::UpgradeRequired { version: 1 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_missing_files_fail_typed() {
        let flat = tiny_flat();
        let path = temp_path("corrupt");
        let mut bytes = persist::to_bytes(&flat);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MmapIndex::open(&path),
            Err(PersistError::SectionChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(MmapIndex::open(&path), Err(PersistError::Io(_))));
    }
}
