//! The served index: one loaded `.chl` file behind an atomically swappable
//! handle, so reloads never drop in-flight requests.
//!
//! [`SharedIndex`] owns the path it was opened from plus the currently
//! serving [`LoadedIndex`] wrapped in `RwLock<Arc<..>>`. Request handlers
//! take a [`SharedIndex::snapshot`] (one `Arc` clone under a read lock —
//! nanoseconds) per batch and answer from it; [`SharedIndex::reload`]
//! revalidates the file from scratch and swaps the `Arc` under the write
//! lock. Handlers holding the old snapshot keep serving the old index until
//! their batch completes, at which point the last `Arc` drops it — the
//! graceful-reload semantics the protocol's RELOAD frame exposes. A reload
//! that fails validation (corrupt or truncated replacement file) leaves the
//! serving index untouched and reports the loader's typed error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{PathError, PathOracle};
use chl_core::persist::{PersistError, ShardSpec};
use chl_graph::types::{Distance, VertexId};

use crate::protocol::ServerInfo;

/// The two load backends a generation can serve from.
#[derive(Debug)]
enum Backend {
    /// Copy-loaded, heap-owned index.
    Owned(FlatIndex),
    /// Zero-copy mapped index (buffered fallback off-Unix or with the
    /// `mmap` feature disabled).
    Mapped(MmapIndex),
}

/// One fully validated, immutable index serving generation. Both load
/// backends answer through the same [`DistanceOracle`] surface, which the
/// generation itself implements.
#[derive(Debug)]
pub struct LoadedIndex {
    backend: Backend,
}

impl LoadedIndex {
    /// Opens and fully validates `path` with the requested backend.
    pub fn open(path: &Path, mmap: bool) -> Result<Self, PersistError> {
        let backend = if mmap {
            MmapIndex::open(path).map(Backend::Mapped)?
        } else {
            FlatIndex::load(path).map(Backend::Owned)?
        };
        Ok(LoadedIndex { backend })
    }

    /// The query surface of this generation (the generation itself: the
    /// [`DistanceOracle`] impl below).
    pub fn oracle(&self) -> &dyn DistanceOracle {
        self
    }

    /// Vertices covered (valid ids are `0..n`).
    pub fn num_vertices(&self) -> usize {
        match &self.backend {
            Backend::Owned(index) => index.num_vertices(),
            Backend::Mapped(index) => index.num_vertices(),
        }
    }

    /// Total label entries stored.
    pub fn total_labels(&self) -> usize {
        match &self.backend {
            Backend::Owned(index) => index.total_labels(),
            Backend::Mapped(index) => index.total_labels(),
        }
    }

    /// Human-readable backend name for logs and stats.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Owned(_) => "owned (copy-load)",
            Backend::Mapped(m) => match (m.is_mapped(), m.is_compressed()) {
                (true, false) => "mmap (zero-copy view)",
                (true, true) => "mmap (streamed varint decode)",
                (false, false) => "mmap fallback (aligned buffered read)",
                (false, true) => "mmap fallback (buffered streamed decode)",
            },
        }
    }

    fn is_compressed(&self) -> bool {
        match &self.backend {
            // A copy-loaded index is decoded at load time; it serves raw
            // entries regardless of the file's encoding.
            Backend::Owned(_) => false,
            Backend::Mapped(m) => m.is_compressed(),
        }
    }

    fn is_mapped(&self) -> bool {
        match &self.backend {
            Backend::Owned(_) => false,
            Backend::Mapped(m) => m.is_mapped(),
        }
    }

    /// The shard identity when the loaded file is one QDOL shard of a
    /// sharded index; `None` for a whole index. Both backends cache the
    /// spec at load, so this never re-walks the file.
    pub fn shard(&self) -> Option<&ShardSpec> {
        match &self.backend {
            Backend::Owned(index) => index.shard(),
            Backend::Mapped(index) => index.shard(),
        }
    }

    /// `true` when the loaded file carries a path section, i.e. PATH frames
    /// can be answered from this generation.
    pub fn has_path_data(&self) -> bool {
        match &self.backend {
            Backend::Owned(index) => index.has_path_data(),
            Backend::Mapped(index) => index.has_path_data(),
        }
    }

    /// Reconstructs one shortest path from this generation's parent records
    /// (`Ok(None)` = disconnected). Same semantics as the in-process
    /// [`PathOracle::path`] on the underlying backend.
    pub fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        self.backend.view().path(u, v)
    }

    /// Shard-honesty check for one query: the first **in-range** endpoint
    /// this shard does not own, or `None` when the query is answerable here
    /// (including on a whole index, and including out-of-range ids, which
    /// are data — unreachable — on every server).
    pub fn foreign_endpoint(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        let shard = self.shard()?;
        let n = self.num_vertices();
        let foreign = |id: VertexId| (id as usize) < n && !shard.owns(id);
        if foreign(u) {
            Some(u)
        } else if foreign(v) {
            Some(v)
        } else {
            None
        }
    }
}

impl Backend {
    /// Borrowed runtime-dispatched view of the loaded index.
    fn view(&self) -> chl_core::flat::IndexView<'_> {
        match self {
            Backend::Owned(index) => index.as_index_view(),
            Backend::Mapped(index) => index.view(),
        }
    }
}

impl DistanceOracle for LoadedIndex {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.backend.view().query(u, v)
    }

    fn num_vertices(&self) -> usize {
        LoadedIndex::num_vertices(self)
    }

    fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Owned(index) => index.memory_bytes(),
            Backend::Mapped(index) => index.memory_bytes(),
        }
    }

    /// Distance blocks go through the hub-pivoted kernel on the view.
    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        self.backend.view().matrix(sources, targets)
    }
}

/// The hot-swappable index handle shared by every connection handler.
#[derive(Debug)]
pub struct SharedIndex {
    path: PathBuf,
    mmap: bool,
    current: parking_lot::RwLock<Arc<LoadedIndex>>,
    generation: AtomicU64,
}

impl SharedIndex {
    /// Opens `path` with the requested backend as generation 0.
    pub fn open<P: AsRef<Path>>(path: P, mmap: bool) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let loaded = LoadedIndex::open(&path, mmap)?;
        Ok(SharedIndex {
            path,
            mmap,
            current: parking_lot::RwLock::new(Arc::new(loaded)),
            generation: AtomicU64::new(0),
        })
    }

    /// The index file reloads re-read.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether reloads use the mapped backend.
    pub fn uses_mmap(&self) -> bool {
        self.mmap
    }

    /// The currently serving generation. Cheap: one `Arc` clone under a read
    /// lock. Callers answer a whole batch from one snapshot so a concurrent
    /// reload can never change answers mid-batch.
    pub fn snapshot(&self) -> Arc<LoadedIndex> {
        Arc::clone(&self.current.read())
    }

    /// Reload generation counter: 0 until the first successful
    /// [`SharedIndex::reload`], then incremented per swap.
    pub fn generation(&self) -> u64 {
        // ORDERING: the generation is a monotonically increasing stats
        // counter; readers only need *a* recent value, and the index swap
        // itself synchronizes through the RwLock.
        self.generation.load(Ordering::Relaxed)
    }

    /// Revalidates the file and atomically swaps it in, returning the new
    /// generation. On any load error the old index keeps serving and the
    /// typed error is returned. In-flight snapshots are unaffected either
    /// way: they hold their own `Arc` until their batch completes.
    pub fn reload(&self) -> Result<u64, PersistError> {
        // Load outside the write lock: validation is the expensive part
        // and must not stall readers.
        let fresh = Arc::new(LoadedIndex::open(&self.path, self.mmap)?);
        let mut current = self.current.write();
        *current = fresh;
        // ORDERING: monotonic stats counter; the swap above is what readers
        // synchronize on (via the RwLock), not this value.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(generation)
    }

    /// INFO-frame metadata for the current generation.
    pub fn info(&self) -> ServerInfo {
        let snapshot = self.snapshot();
        ServerInfo {
            num_vertices: snapshot.num_vertices() as u64,
            total_labels: snapshot.total_labels() as u64,
            generation: self.generation(),
            compressed: snapshot.is_compressed(),
            mapped: snapshot.is_mapped(),
            shard: snapshot.shard().map(|s| (s.shard_id, s.shard_count)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_core::labels::{LabelEntry, LabelSet};
    use chl_ranking::Ranking;

    fn tiny_flat() -> FlatIndex {
        // Path 0 - 1 - 2, vertex 1 ranked first: hub positions 0, 1, 2 are
        // vertices 1, 0, 2.
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let set = |runs: &[(u32, u64)]| {
            LabelSet::from_entries(runs.iter().map(|&(h, d)| LabelEntry::new(h, d)).collect())
        };
        let labels = vec![
            set(&[(0, 1), (1, 0)]),
            set(&[(0, 0)]),
            set(&[(0, 1), (2, 0)]),
        ];
        FlatIndex::new(labels, ranking).unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "chl-serve-index-test-{}-{:?}-{tag}.chl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn open_snapshot_and_reload_roll_the_generation() {
        let flat = tiny_flat();
        let path = temp_path("reload");
        flat.save(&path).unwrap();

        for mmap in [false, true] {
            let shared = SharedIndex::open(&path, mmap).unwrap();
            assert_eq!(shared.generation(), 0);
            assert_eq!(shared.uses_mmap(), mmap);
            let before = shared.snapshot();
            assert_eq!(before.num_vertices(), 3);
            assert_eq!(before.oracle().distance(0, 2), 2);
            assert!(!before.backend_name().is_empty());

            assert_eq!(shared.reload().unwrap(), 1);
            assert_eq!(shared.generation(), 1);
            // The old snapshot still answers after the swap.
            assert_eq!(before.oracle().distance(0, 2), 2);
            assert_eq!(shared.info().generation, 1);
            assert_eq!(shared.info().num_vertices, 3);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_reload_keeps_the_old_index() {
        let flat = tiny_flat();
        let path = temp_path("corrupt");
        flat.save(&path).unwrap();
        let shared = SharedIndex::open(&path, false).unwrap();

        std::fs::write(&path, b"not a chl file").unwrap();
        assert!(shared.reload().is_err());
        assert_eq!(shared.generation(), 0);
        assert_eq!(shared.snapshot().oracle().distance(0, 2), 2);

        std::fs::remove_file(&path).unwrap();
        assert!(matches!(shared.reload(), Err(PersistError::Io(_))));
    }

    #[test]
    fn legacy_files_are_refused_until_upgraded() {
        let v1 = include_bytes!("../../core/tests/fixtures/golden.v1.chl");
        let v2 = include_bytes!("../../core/tests/fixtures/golden.v2-flat.chl");
        let path = temp_path("legacy");
        for mmap in [false, true] {
            // Replaced by rename, as a mapped file must be.
            let replace = |bytes: &[u8]| chl_core::persist::write_bytes(&path, bytes).unwrap();
            replace(v1);
            assert!(matches!(
                SharedIndex::open(&path, mmap),
                Err(PersistError::UpgradeRequired { version: 1 })
            ));
            tiny_flat().save(&path).unwrap();
            let shared = SharedIndex::open(&path, mmap).unwrap();
            replace(v2);
            assert!(matches!(
                shared.reload(),
                Err(PersistError::UpgradeRequired { version: 2 })
            ));
            assert_eq!(shared.generation(), 0);
            replace(&chl_core::persist::upgrade(v2).unwrap());
            assert_eq!(shared.reload().unwrap(), 1);
            assert_eq!(shared.info().num_vertices, 16);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
