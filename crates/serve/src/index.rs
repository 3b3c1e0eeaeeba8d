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

use chl_core::flat::{FlatIndex, IndexView};
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{PathError, PathOracle};
use chl_core::persist::{PersistError, ShardSpec};
use chl_graph::types::VertexId;

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
/// backends answer every query through their [`IndexView`]; the
/// generation only reports what differs between them.
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

    /// The query surface of this generation: the backend's
    /// [`DistanceOracle`], which answers each call from one view.
    pub fn oracle(&self) -> &dyn DistanceOracle {
        match &self.backend {
            Backend::Owned(index) => index,
            Backend::Mapped(index) => index,
        }
    }

    /// The backend's borrowed query kernel.
    fn view(&self) -> IndexView<'_> {
        match &self.backend {
            Backend::Owned(index) => index.as_index_view(),
            Backend::Mapped(index) => index.view(),
        }
    }

    /// Vertices covered (valid ids are `0..n`).
    pub fn num_vertices(&self) -> usize {
        self.oracle().num_vertices()
    }

    /// Total label entries stored.
    pub fn total_labels(&self) -> usize {
        self.view().total_labels()
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

    fn is_mapped(&self) -> bool {
        matches!(&self.backend, Backend::Mapped(m) if m.is_mapped())
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
        self.view().has_path_data()
    }

    /// Reconstructs one shortest path from this generation's parent records
    /// (`Ok(None)` = disconnected). Same semantics as the in-process
    /// [`PathOracle::path`] on the underlying backend.
    pub fn path(&self, u: VertexId, v: VertexId) -> Result<Option<Vec<VertexId>>, PathError> {
        self.view().path(u, v)
    }

    /// Shard-honesty check for one query: [`IndexView::foreign_endpoint`],
    /// the first **in-range** endpoint this shard does not own, or `None`
    /// when the query is answerable here (including on a whole index, and
    /// including out-of-range ids, which are data — unreachable — on every
    /// server). A whole index answers from the cached spec without
    /// assembling a view.
    pub fn foreign_endpoint(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        self.shard()?;
        self.view().foreign_endpoint(u, v)
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
            // A copy-loaded index serves decoded entries, whatever the file.
            compressed: snapshot.view().is_compressed(),
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
    fn every_backend_answers_like_the_saved_index() {
        use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
        use chl_core::paths::attach_parents;
        use chl_core::persist::SaveOptions;
        use chl_graph::generators::{grid_network, GridOptions};

        let options = GridOptions {
            rows: 4,
            cols: 4,
            ..GridOptions::default()
        };
        let g = grid_network(&options, 7);
        let plain = ChlBuilder::new(&g)
            .ranking(RankingStrategy::Degree)
            .algorithm(Algorithm::Pll)
            .build()
            .unwrap()
            .index;
        let pathful = attach_parents(&g, plain.clone()).unwrap();
        let spec = ShardSpec {
            shard_id: 1,
            shard_count: 3,
            zeta: 2,
            owned: (0..16).filter(|v| v % 3 != 0).collect(),
        };
        let shard = pathful.restrict_to_shard(spec).unwrap();
        // Two ids past the 16 vertices: out of range is data everywhere.
        let ids: Vec<VertexId> = (0..18).collect();
        let pairs: Vec<(VertexId, VertexId)> = ids
            .iter()
            .flat_map(|&u| ids.iter().map(move |&v| (u, v)))
            .collect();
        let path = temp_path("parity");
        for (name, saved) in [("plain", &plain), ("paths", &pathful), ("shard", &shard)] {
            for compress in [false, true] {
                saved.save_with(&path, &SaveOptions { compress }).unwrap();
                let file_len = std::fs::metadata(&path).unwrap().len() as usize;
                for mmap in [false, true] {
                    let tag = format!("{name}, compress {compress}, mmap {mmap}");
                    let loaded = LoadedIndex::open(&path, mmap).unwrap();
                    assert_eq!(loaded.num_vertices(), saved.num_vertices(), "{tag}");
                    assert_eq!(loaded.total_labels(), saved.total_labels(), "{tag}");
                    assert_eq!(loaded.has_path_data(), saved.has_path_data(), "{tag}");
                    assert_eq!(loaded.shard(), saved.shard(), "{tag}");
                    let oracle = loaded.oracle();
                    let resident = if mmap { file_len } else { saved.memory_bytes() };
                    assert_eq!(oracle.memory_bytes(), resident, "{tag}");
                    assert_eq!(oracle.distances(&pairs), saved.distances(&pairs), "{tag}");
                    assert_eq!(oracle.matrix(&ids, &ids), saved.matrix(&ids, &ids), "{tag}");
                    let view = saved.as_index_view();
                    for &(u, v) in &pairs {
                        assert_eq!(oracle.distance(u, v), saved.query(u, v), "{tag} ({u}, {v})");
                        assert_eq!(loaded.path(u, v), saved.path(u, v), "{tag} ({u}, {v})");
                        assert_eq!(
                            loaded.foreign_endpoint(u, v),
                            view.foreign_endpoint(u, v),
                            "{tag} ({u}, {v})"
                        );
                    }
                    if saved.shard().is_some() {
                        // Vertices 0 and 3 live on other shards; 17 is no
                        // vertex at all.
                        assert_eq!(loaded.foreign_endpoint(1, 3), Some(3), "{tag}");
                        assert_eq!(loaded.foreign_endpoint(0, 3), Some(0), "{tag}");
                        assert_eq!(loaded.foreign_endpoint(17, 1), None, "{tag}");
                    } else {
                        assert_eq!(loaded.foreign_endpoint(0, 3), None, "{tag}");
                    }
                }
            }
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
        let v3 = include_bytes!("../../core/tests/fixtures/golden.v3-flat.chl");
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
            replace(v3);
            assert!(matches!(
                shared.reload(),
                Err(PersistError::UpgradeRequired { version: 3 })
            ));
            assert_eq!(shared.generation(), 0);
            replace(&chl_core::persist::upgrade(v2).unwrap());
            assert_eq!(shared.reload().unwrap(), 1);
            assert_eq!(shared.info().num_vertices, 16);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
