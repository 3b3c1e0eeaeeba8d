//! The root scheduler under every shared-memory constructor.
//!
//! PLL, SparaPLL, LCC, GLL, PLaNT and Hybrid all grow one shortest-path tree
//! per root, claiming root positions in rank order. They differ only in the
//! tree kernel (pruned Algorithm 1 or PLaNT's Algorithm 3), the tables it
//! reads and writes, the stop rule (none, GLL's `α·n` labels, Hybrid's Ψ
//! switch) and the clean that follows. All of that is the caller's; [`run`]
//! is the claim loop they share.
//!
//! The claim contract: workers claim positions off one counter and check
//! the stop flag *before* each claim, so a claimed position below the end of
//! the range always runs. When [`run`] returns, every position in
//! `range.start..end` ran and none from `end` on did. A caller that stops
//! early resumes at `end`: GLL's superstep hub range and Hybrid's pruned
//! tail both start there.
//!
//! The watermark contract: beside each tree's record, [`run`] returns its
//! *floor*, the lowest position of the range not yet finished, read right
//! after the claim. Every position below the floor had finished, labels
//! and all, before the tree started, so (Pruned Landmark Labeling's
//! invariant; Akiba, Iwata, Yoshida, SIGMOD 2013) every pruning query of
//! the tree consulted them, and a label of tree `p` can only be redundant
//! through a hub in `[floor, p)`. Workers advance the watermark as they
//! finish trees, with one atomic flag per position and a compare-and-swap,
//! no lock. At one thread every floor is the tree's own position.
//!
//! Workers run on the rayon shim, one per scratch the caller passes in, so a
//! scratch outlives the pass (GLL reuses it across supersteps) and a
//! one-thread build runs inline on the caller with no spawn.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

use chl_ranking::Ranking;

use crate::index::LabelingResult;
use crate::labels::LabelSet;
use crate::stats::{ConstructionStats, SptRecord};

/// What one [`run`] did.
pub(crate) struct Pass {
    /// One record per tree, ascending by root position.
    pub records: Vec<SptRecord>,
    /// Each tree's floor, in the order of `records`: every position of the
    /// range below it had finished when the tree started.
    pub floors: Vec<u32>,
    /// Distance queries, summed over the trees.
    pub queries: usize,
    /// The first position not claimed: every position in `range.start..end`
    /// ran.
    pub end: u32,
}

impl Pass {
    /// The labeling of a pass that needs no clean (PLL, SparaPLL, PLaNT):
    /// `labels` holds its trees' labels, construction began at `start`.
    pub(crate) fn uncleaned(
        self,
        algorithm: &str,
        threads: usize,
        labels: Vec<LabelSet>,
        ranking: &Ranking,
        start: Instant,
    ) -> LabelingResult {
        let mut stats = ConstructionStats::new(algorithm);
        stats.threads = threads;
        stats.spt_records = self.records;
        stats.distance_queries = self.queries;
        stats.construction_time = start.elapsed();
        let mut result = LabelingResult::finish(labels, ranking, stats, start);
        result.stats.labels_before_cleaning = result.stats.labels_after_cleaning;
        result
    }
}

/// Grows `tree(scratch, position)` for the positions of `range`, in claim
/// order, on one worker per element of `scratch`. `tree` returns the tree's
/// record and its distance queries. After each tree, `stop(record)` decides
/// whether claiming ends: once a call returns true no worker claims another
/// position, while trees already claimed finish.
pub(crate) fn run<S: Send>(
    scratch: &mut [S],
    range: Range<u32>,
    stop: impl Fn(&SptRecord) -> bool + Sync,
    tree: impl Fn(&mut S, u32) -> (SptRecord, usize) + Sync,
) -> Pass {
    let next = AtomicU32::new(range.start);
    let stopped = AtomicBool::new(false);
    let watermark = Watermark::new(range.clone());
    // Per worker: its scratch, its trees' records and floors, its queries.
    let mut slots: Vec<_> = scratch
        .iter_mut()
        .map(|s| (s, Vec::<(SptRecord, u32)>::new(), 0usize))
        .collect();
    rayon::with_threads(slots.len(), || {
        rayon::for_each_mut(&mut slots, |_, (scratch, records, queries)| {
            // ORDERING: advisory stop flag — a stale read only lets a worker
            // claim more trees, each of which runs like any claimed one, so
            // the claim contract holds; no data is published through it.
            while !stopped.load(Ordering::Relaxed) {
                // ORDERING: root claiming — the fetch_add's RMW atomicity
                // alone makes positions unique; labels are published through
                // the tables' own locks and the watermark, records and the
                // final counter through the shim's join.
                let pos = next.fetch_add(1, Ordering::Relaxed);
                if pos >= range.end {
                    break;
                }
                let floor = watermark.read();
                let (record, q) = tree(scratch, pos);
                watermark.finish(pos);
                *queries += q;
                if stop(&record) {
                    // ORDERING: advisory stop flag, see the load above.
                    stopped.store(true, Ordering::Relaxed);
                }
                records.push((record, floor));
            }
        });
    });
    let queries = slots.iter().map(|slot| slot.2).sum();
    let mut trees: Vec<(SptRecord, u32)> = slots.into_iter().flat_map(|slot| slot.1).collect();
    trees.sort_unstable_by_key(|(r, _)| r.root_position);
    let (records, floors) = trees.into_iter().unzip();
    Pass {
        records,
        floors,
        queries,
        end: next.into_inner().min(range.end),
    }
}

/// The lowest position of a pass not yet finished: one done flag per
/// position, and a mark that finishing workers move past every finished
/// position in a row.
struct Watermark {
    start: u32,
    mark: AtomicU32,
    done: Vec<AtomicBool>,
}

impl Watermark {
    fn new(range: Range<u32>) -> Self {
        Watermark {
            start: range.start,
            mark: AtomicU32::new(range.start),
            done: range.map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// A position at or below the first unfinished one: every position
    /// below it has finished, and what its tree wrote is visible to the
    /// caller.
    fn read(&self) -> u32 {
        // ORDERING: acquire side of `finish`'s chain (SeqCst, see there):
        // the labels of every tree below the value read happen before it.
        self.mark.load(Ordering::SeqCst)
    }

    /// Marks `pos` finished and moves the mark past every finished position
    /// in a row from where it stands.
    fn finish(&self, pos: u32) {
        let flag = |p: u32| self.done.get((p - self.start) as usize);
        // ORDERING: SeqCst on the flags and the mark. The flag store
        // releases the tree's labels and each CAS releases the flags it
        // read, so a reader of the mark acquires every tree below it. The
        // single total order also rules out two workers each missing the
        // other's flag (the store-buffer race), which would leave the mark
        // behind a finished position until the next tree finishes.
        if let Some(done) = flag(pos) {
            done.store(true, Ordering::SeqCst);
        }
        let mut mark = self.mark.load(Ordering::SeqCst);
        while flag(mark).is_some_and(|done| done.load(Ordering::SeqCst)) {
            let (seq, next) = (Ordering::SeqCst, mark + 1);
            mark = match self.mark.compare_exchange(mark, next, seq, seq) {
                Ok(_) => next,
                Err(now) => now,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn record(root_position: u32) -> SptRecord {
        SptRecord {
            root_position,
            labels_generated: 1,
            vertices_explored: 2,
        }
    }

    #[test]
    fn every_position_runs_once_and_records_ascend() {
        // 6 threads is more than the cores of a small box, so workers
        // interleave on the claim counter.
        for threads in [1, 2, 6] {
            let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let mut scratch = vec![0usize; threads];
            let pass = run(
                &mut scratch,
                17..100,
                |_| false,
                |trees, pos| {
                    *trees += 1;
                    runs[pos as usize].fetch_add(1, Ordering::Relaxed);
                    (record(pos), 3)
                },
            );
            assert_eq!(pass.end, 100, "threads={threads}");
            assert_eq!(pass.queries, 3 * 83);
            assert_eq!(
                scratch.iter().sum::<usize>(),
                83,
                "scratch outlives the pass"
            );
            let positions: Vec<u32> = pass.records.iter().map(|r| r.root_position).collect();
            assert_eq!(positions, (17..100).collect::<Vec<_>>());
            for (pos, count) in runs.iter().enumerate() {
                let expected = usize::from(pos >= 17);
                assert_eq!(count.load(Ordering::Relaxed), expected, "pos={pos}");
            }
        }
    }

    #[test]
    fn every_position_below_a_floor_finished_before_its_tree_started() {
        for threads in [1, 2, 6] {
            let finished: Vec<AtomicBool> = (0..120).map(|_| AtomicBool::new(false)).collect();
            // The first unfinished position each tree saw as it started.
            let seen: Vec<AtomicU32> = (0..120).map(|_| AtomicU32::new(u32::MAX)).collect();
            // With two or more workers, trees 30 and 31 meet at the first
            // barrier: 31 is claimed and starts while 30 is in flight. At
            // the second, 31 waits for the stop rule's call on 30's
            // record, which comes after the scheduler marked 30 finished,
            // so a floor read after the tree instead of at its claim
            // would pass 30.
            let overlap = Barrier::new(2);
            let thirty_done = Barrier::new(2);
            let mut scratch = vec![(); threads];
            let pass = run(
                &mut scratch,
                10..120,
                |r| {
                    if threads > 1 && r.root_position == 30 {
                        thirty_done.wait();
                    }
                    false
                },
                |_, pos| {
                    let first = (10..120)
                        .find(|&p| !finished[p as usize].load(Ordering::SeqCst))
                        .unwrap_or(120);
                    seen[pos as usize].store(first, Ordering::SeqCst);
                    if threads > 1 && (pos == 30 || pos == 31) {
                        overlap.wait();
                    }
                    finished[pos as usize].store(true, Ordering::SeqCst);
                    if threads > 1 && pos == 31 {
                        thirty_done.wait();
                    }
                    (record(pos), 0)
                },
            );
            assert_eq!(pass.floors.len(), pass.records.len());
            for (r, &floor) in pass.records.iter().zip(&pass.floors) {
                let pos = r.root_position;
                let first = seen[pos as usize].load(Ordering::SeqCst);
                assert!(
                    (10..=first).contains(&floor) && floor <= pos,
                    "threads={threads} pos={pos} floor={floor} first unfinished={first}"
                );
                if threads == 1 {
                    assert_eq!(floor, pos, "one thread leaves every window empty");
                }
            }
            if threads > 1 {
                assert!(pass.floors[31 - 10] <= 30, "31 overlapped 30");
            }
        }
    }

    #[test]
    fn stop_rule_halts_claiming_at_the_returned_end() {
        for threads in [1, 2, 6] {
            let runs: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            // With two or more workers, trees 60 and 61 meet at the barrier:
            // 61 is claimed while 60, whose record stops the pass, runs.
            let in_flight = Barrier::new(2);
            let mut scratch = vec![(); threads];
            let pass = run(
                &mut scratch,
                40..200,
                |r| r.root_position >= 60,
                |_, pos| {
                    if threads > 1 && (pos == 60 || pos == 61) {
                        in_flight.wait();
                    }
                    runs[pos as usize].fetch_add(1, Ordering::Relaxed);
                    (record(pos), 0)
                },
            );
            // Every tree from 60 on stops its worker, so each worker claims
            // at most one of them; the claim in flight still ran.
            let first = if threads > 1 { 62 } else { 61 };
            assert!(
                (first..=60 + threads as u32).contains(&pass.end),
                "threads={threads} end={}",
                pass.end
            );
            let positions: Vec<u32> = pass.records.iter().map(|r| r.root_position).collect();
            assert_eq!(positions, (40..pass.end).collect::<Vec<_>>());
            for (pos, count) in runs.iter().enumerate() {
                let expected = usize::from((40..pass.end as usize).contains(&pos));
                assert_eq!(count.load(Ordering::Relaxed), expected, "pos={pos}");
            }
            // A later pass resumes where this one ended.
            let rest = run(
                &mut scratch,
                pass.end..200,
                |_| false,
                |_, pos| (record(pos), 0),
            );
            assert_eq!(rest.records.len() + pass.records.len(), 160);
        }
    }
}
