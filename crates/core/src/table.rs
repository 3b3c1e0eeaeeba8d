//! Concurrent label tables.
//!
//! The parallel constructors have worker threads appending labels to
//! arbitrary vertices while other threads read those same label sets to
//! answer pruning queries. Following the paper's design:
//!
//! * a **local** table ([`ConcurrentLabelTable`]) takes all appends and is
//!   protected by one small mutex per vertex;
//! * a **global** table (a plain `Vec<LabelSet>`) holds labels committed at
//!   the previous synchronization point, is immutable during a superstep and
//!   therefore read without any locking — this is GLL's main trick for
//!   cutting lock traffic (§4.2).
//!
//! The [`LabelRuns`] trait reads a vertex's labels where they are stored —
//! one run per layer, a locked slot scanned under its lock, nothing copied
//! — and [`LabelAccess`] adds the append, so the pruned-Dijkstra kernel
//! serves PLL, paraPLL, LCC and GLL unchanged and the cleaning kernel reads
//! committed and in-flight labels alike. [`FromHub`] reads committed sets
//! from one hub on, the part of them a GLL superstep's clean needs.

use parking_lot::Mutex;

use chl_graph::types::VertexId;

use crate::labels::{LabelEntry, LabelSet};

/// Read access to per-vertex labels, visited in the runs they are stored in.
pub trait LabelRuns: Sync {
    /// Calls `f` on each stored run of `v`'s current labels until a call
    /// returns `true`, and returns whether one did. Runs need not be sorted.
    fn any_run(&self, v: VertexId, f: impl FnMut(&[LabelEntry]) -> bool) -> bool;
}

/// How a construction kernel reads and writes labels.
pub trait LabelAccess: LabelRuns {
    /// Records a freshly generated label for `v`.
    fn append(&self, v: VertexId, entry: LabelEntry);
}

impl LabelRuns for [LabelSet] {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        f(self[v as usize].entries())
    }
}

impl LabelRuns for [Vec<LabelEntry>] {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        f(&self[v as usize])
    }
}

/// Hub-sorted sets read from hub `floor` on: each run starts at the first
/// entry whose hub is at least `floor`.
pub struct FromHub<'a> {
    /// One hub-sorted set per vertex.
    pub sets: &'a [LabelSet],
    /// The smallest hub rank position read.
    pub floor: u32,
}

impl LabelRuns for FromHub<'_> {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        let entries = self.sets[v as usize].entries();
        // Most sets end below the floor, and their last entry says so
        // without a binary search through the rest.
        match entries.last() {
            Some(last) if last.hub >= self.floor => {
                f(&entries[entries.partition_point(|e| e.hub < self.floor)..])
            }
            _ => false,
        }
    }
}

/// Two layers read as one: the first's runs, then the second's.
impl<A: LabelRuns + ?Sized, B: LabelRuns + ?Sized> LabelRuns for (&A, &B) {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        self.0.any_run(v, &mut f) || self.1.any_run(v, f)
    }
}

/// A per-vertex label table safe for concurrent appends and reads.
#[derive(Debug)]
pub struct ConcurrentLabelTable {
    slots: Vec<Mutex<Vec<LabelEntry>>>,
}

impl ConcurrentLabelTable {
    /// Creates a table for `n` vertices.
    pub fn new(n: usize) -> Self {
        ConcurrentLabelTable {
            slots: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.slots.len()
    }

    /// Appends a label to `v`.
    pub fn append(&self, v: VertexId, entry: LabelEntry) {
        self.slots[v as usize].lock().push(entry);
    }

    /// Returns a snapshot of the labels of `v`.
    pub fn snapshot(&self, v: VertexId) -> Vec<LabelEntry> {
        self.slots[v as usize].lock().clone()
    }

    /// Number of labels currently stored for `v`.
    pub fn len_of(&self, v: VertexId) -> usize {
        self.slots[v as usize].lock().len()
    }

    /// Total number of labels across all vertices.
    pub fn total_labels(&self) -> usize {
        self.slots.iter().map(|s| s.lock().len()).sum()
    }

    /// Drains the table into per-vertex raw entry vectors, leaving it empty.
    pub fn drain_all(&self) -> Vec<Vec<LabelEntry>> {
        self.slots
            .iter()
            .map(|s| std::mem::take(&mut *s.lock()))
            .collect()
    }

    /// Consumes the table into sorted per-vertex [`LabelSet`]s.
    pub fn into_label_sets(self) -> Vec<LabelSet> {
        self.slots
            .into_iter()
            .map(|s| LabelSet::from_entries(s.into_inner()))
            .collect()
    }
}

impl LabelRuns for ConcurrentLabelTable {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        f(&self.slots[v as usize].lock())
    }
}

impl LabelAccess for ConcurrentLabelTable {
    fn append(&self, v: VertexId, entry: LabelEntry) {
        ConcurrentLabelTable::append(self, v, entry);
    }
}

/// The global + local table pair used by GLL: reads see the union of the
/// committed global labels (lock-free) and the in-flight local labels
/// (per-vertex mutex); writes go to the local table only.
pub struct GllTables<'a> {
    /// Labels committed at earlier synchronization points.
    pub global: &'a [LabelSet],
    /// Labels generated during the current superstep.
    pub local: &'a ConcurrentLabelTable,
}

impl LabelRuns for GllTables<'_> {
    fn any_run(&self, v: VertexId, f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        (self.global, self.local).any_run(v, f)
    }
}

impl LabelAccess for GllTables<'_> {
    fn append(&self, v: VertexId, entry: LabelEntry) {
        self.local.append(v, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn append_and_snapshot() {
        let t = ConcurrentLabelTable::new(3);
        t.append(0, LabelEntry::new(1, 5));
        t.append(0, LabelEntry::new(0, 2));
        t.append(2, LabelEntry::new(0, 7));
        assert_eq!(t.len_of(0), 2);
        assert_eq!(t.len_of(1), 0);
        assert_eq!(t.total_labels(), 3);
        let snap = t.snapshot(0);
        assert_eq!(snap.len(), 2);
        let sets = t.into_label_sets();
        assert_eq!(sets[0].entries()[0].hub, 0);
        assert_eq!(sets[2].len(), 1);
    }

    #[test]
    fn drain_leaves_table_empty() {
        let t = ConcurrentLabelTable::new(2);
        t.append(1, LabelEntry::new(3, 3));
        let drained = t.drain_all();
        assert_eq!(drained[1].len(), 1);
        assert_eq!(t.total_labels(), 0);
    }

    #[test]
    fn concurrent_appends_from_many_threads() {
        let t = Arc::new(ConcurrentLabelTable::new(8));
        std::thread::scope(|scope| {
            for thread_id in 0..4u32 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        t.append(
                            (i % 8) as VertexId,
                            LabelEntry::new(thread_id * 1000 + i, i as u64),
                        );
                    }
                });
            }
        });
        assert_eq!(t.total_labels(), 400);
    }

    #[test]
    fn from_hub_skips_hubs_below_the_floor() {
        let sets = vec![LabelSet::from_entries(vec![
            LabelEntry::new(0, 1),
            LabelEntry::new(3, 2),
            LabelEntry::new(5, 3),
        ])];
        let read = |floor| {
            let mut hubs = Vec::new();
            FromHub { sets: &sets, floor }.any_run(0, |run| {
                hubs.extend(run.iter().map(|e| e.hub));
                false
            });
            hubs
        };
        assert_eq!(read(0), vec![0, 3, 5]);
        assert_eq!(read(3), vec![3, 5]);
        assert_eq!(read(4), vec![5]);
        assert_eq!(read(6), Vec::<u32>::new());
    }

    #[test]
    fn gll_tables_read_union_write_local() {
        let global = vec![
            LabelSet::from_entries(vec![LabelEntry::new(0, 1)]),
            LabelSet::new(),
        ];
        let local = ConcurrentLabelTable::new(2);
        local.append(0, LabelEntry::new(5, 9));
        let tables = GllTables {
            global: &global,
            local: &local,
        };

        let mut runs = Vec::new();
        tables.any_run(0, |run| {
            runs.push(run.to_vec());
            false
        });
        assert_eq!(
            runs,
            vec![vec![LabelEntry::new(0, 1)], vec![LabelEntry::new(5, 9)]]
        );
        assert!(tables.any_run(0, |run| run.iter().any(|e| e.hub == 5)));

        tables.append(1, LabelEntry::new(2, 2));
        assert_eq!(local.len_of(1), 1);
        assert!(global[1].is_empty());
    }
}
