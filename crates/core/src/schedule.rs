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
//! early resumes at `end`: GLL's superstep hub range and Hybrid's switch to
//! GLL both start there.
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
    let mut slots: Vec<(&mut S, Vec<SptRecord>, usize)> =
        scratch.iter_mut().map(|s| (s, Vec::new(), 0)).collect();
    rayon::with_threads(slots.len(), || {
        rayon::for_each_mut(&mut slots, |_, (scratch, records, queries)| {
            // ORDERING: advisory stop flag — a stale read only lets a worker
            // claim more trees, each of which runs like any claimed one, so
            // the claim contract holds; no data is published through it.
            while !stopped.load(Ordering::Relaxed) {
                // ORDERING: root claiming — the fetch_add's RMW atomicity
                // alone makes positions unique; labels are published through
                // the tables' own locks, records and the final counter
                // through the shim's join.
                let pos = next.fetch_add(1, Ordering::Relaxed);
                if pos >= range.end {
                    break;
                }
                let (record, q) = tree(scratch, pos);
                *queries += q;
                if stop(&record) {
                    // ORDERING: advisory stop flag, see the load above.
                    stopped.store(true, Ordering::Relaxed);
                }
                records.push(record);
            }
        });
    });
    let queries = slots.iter().map(|slot| slot.2).sum();
    let mut records: Vec<SptRecord> = slots.into_iter().flat_map(|slot| slot.1).collect();
    records.sort_unstable_by_key(|r| r.root_position);
    Pass {
        records,
        queries,
        end: next.into_inner().min(range.end),
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
