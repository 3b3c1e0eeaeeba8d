//! Parallel shim standing in for `rayon`: four functions over one chunked
//! execution core on scoped `std::thread`s.
//!
//! * [`map`] computes `f(i)` for every `i < len` and returns the results in
//!   index order;
//! * [`for_each_mut`] calls `f(i, &mut items[i])` for every element;
//! * [`with_threads`] runs a closure with a thread count in force;
//! * [`current_num_threads`] reports the count a call would use now.
//!
//! Both parallel functions cut their input into contiguous, near-equal
//! chunks (several per worker), spawn one scoped thread per worker and let
//! the workers claim chunks dynamically off a shared atomic cursor — cheap
//! load balancing without a work-stealing deque. Results are reassembled in
//! chunk order, so [`map`] returns exactly what the sequential loop would,
//! at any thread count. [`for_each_mut`] visits each chunk in order, but
//! chunks run concurrently.
//!
//! Thread count resolution, most specific first:
//! 1. the innermost enclosing [`with_threads`] scope on this thread,
//! 2. the `RAYON_NUM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With a resolved count of 1 everything runs inline on the calling thread
//! — no spawns. Parallelism applies to the **outermost** parallel call
//! only: a nested call inside a worker runs inline on that worker, which
//! keeps a `--threads t` / `RAYON_NUM_THREADS=1` cap airtight and rules out
//! multiplicative thread blow-up.

#![forbid(unsafe_code)]
// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// How many chunks each worker gets on average: >1 so a skewed chunk (e.g.
/// one hot bucket of a query workload) does not serialize the whole batch.
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    /// Thread count forced by an enclosing [`with_threads`] (0 = none).
    static SCOPED: Cell<usize> = const { Cell::new(0) };
}

/// `RAYON_NUM_THREADS`, else available parallelism. Resolved on first use
/// rather than at startup, so a process may still set the variable before
/// its first parallel call, then cached for the life of the process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of threads a parallel call started on this thread will use.
pub fn current_num_threads() -> usize {
    match SCOPED.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
}

/// Runs `op` with `threads` as the current thread count; 0 means the default
/// resolution (`RAYON_NUM_THREADS`, then available parallelism). The
/// previous count is restored when `op` returns or unwinds.
pub fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|c| c.replace(threads)));
    op()
}

/// `[f(0), f(1), …, f(len - 1)]`, computed in parallel chunks.
pub fn map<R: Send>(len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut parts = execute(
        len,
        |parts| chunks(len, parts).collect(),
        |range: Range<usize>| range.map(&f).collect::<Vec<R>>(),
    );
    // The inline path's single part is the output as is. Otherwise the
    // caller allocates the output, so a long-lived result never sits in
    // memory a short-lived worker thread allocated.
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Calls `f(i, &mut items[i])` for every element, in parallel chunks.
pub fn for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let len = items.len();
    let mut rest = items;
    execute(
        len,
        |parts| {
            chunks(len, parts)
                .map(|range| {
                    let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                    rest = tail;
                    (range.start, head)
                })
                .collect()
        },
        |(start, chunk): (usize, &mut [T])| {
            for (i, item) in chunk.iter_mut().enumerate() {
                f(start + i, item);
            }
        },
    );
}

/// `0..len` cut into `parts` contiguous ranges, in order, whose lengths
/// differ by at most one (none is empty while `parts <= len`).
fn chunks(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    (0..parts).map(move |c| c * len / parts..(c + 1) * len / parts)
}

/// The execution core: `split(k)` cuts the input into `k` chunks, `work`
/// runs on each, and the per-chunk results come back **in chunk order**.
/// Workers claim chunks dynamically while the caller waits; a panic in any
/// chunk is re-raised in the caller, with its own payload, once every
/// worker has stopped.
fn execute<C: Send, R: Send>(
    len: usize,
    split: impl FnOnce(usize) -> Vec<C>,
    work: impl Fn(C) -> R + Sync,
) -> Vec<R> {
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        return split(1).into_iter().map(work).collect();
    }

    let slots: Vec<Mutex<Option<C>>> = split((threads * CHUNKS_PER_THREAD).min(len))
        .into_iter()
        .map(|chunk| Mutex::new(Some(chunk)))
        .collect();
    let cursor = AtomicUsize::new(0);

    let mut claimed: Vec<(usize, R)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Fresh OS threads would otherwise re-resolve the
                    // default, letting a nested call escape an enclosing
                    // `with_threads` / `RAYON_NUM_THREADS` cap and multiply
                    // threads. Nested calls therefore run inline here.
                    SCOPED.with(|c| c.set(1));
                    let mut done = Vec::new();
                    loop {
                        // ORDERING: the cursor increment's read-modify-write
                        // atomicity alone makes claimed indices unique; the
                        // chunks themselves are handed over through the
                        // Mutex slots, whose lock/unlock pairs provide the
                        // acquire/release edges, and the results through
                        // the join. Exactly-once claiming is proven over all
                        // ≤3-thread interleavings in tests/interleavings.rs.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        // No lock is held while `work` runs, so a slot is
                        // never poisoned; the take cannot come up empty
                        // because each index is claimed once.
                        let chunk = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                        if let Some(chunk) = chunk {
                            done.push((i, work(chunk)));
                        }
                    }
                    done
                })
            })
            .collect();
        // Join every worker before re-raising, so a panic surfaces only
        // after all of them have stopped.
        let mut claimed = Vec::with_capacity(slots.len());
        let mut panic = None;
        for worker in workers {
            match worker.join() {
                Ok(done) => claimed.extend(done),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        claimed
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn map_and_for_each_mut_behave_like_iter() {
        assert_eq!(map(3, |i| i * 2), vec![0, 2, 4]);
        assert_eq!(map(0, |i| i), Vec::<usize>::new());
        let mut w = vec![1, 2];
        for_each_mut(&mut w, |i, x| *x += 10 * (i + 1));
        assert_eq!(w, vec![11, 22]);
        for_each_mut(&mut [] as &mut [u8], |_, _| panic!("no items"));
    }

    #[test]
    fn collect_preserves_order_at_every_thread_count() {
        let expected: Vec<u64> = (0..10_000u64).map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 17] {
            let got = with_threads(threads, || map(10_000, |i| (i * i) as u64));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn enumerate_indices_are_global_across_chunks() {
        let mut idx = vec![0usize; 5000];
        with_threads(8, || for_each_mut(&mut idx, |i, x| *x = i));
        assert_eq!(idx, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn zip_mutation_covers_every_element_exactly_once() {
        // One side borrowed mutably, the other moved in, zipped
        // sequentially and consumed in parallel.
        let mut a = vec![0u64; 4097];
        let mut pairs: Vec<(&mut u64, u64)> = a.iter_mut().zip(0..4097).collect();
        with_threads(4, || {
            for_each_mut(&mut pairs, |_, (x, y)| **x += std::mem::take(y) + 1)
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn work_actually_runs_on_multiple_threads() {
        // A sequential implementation runs every item on the calling thread,
        // so observing more than one thread id proves real parallelism — and
        // unlike a wall-clock bound it cannot flake on a loaded CI host. The
        // short sleep keeps early workers from draining all chunks before
        // the later ones have spawned.
        let ids = with_threads(8, || {
            map(8, |_| {
                thread::sleep(Duration::from_millis(25));
                thread::current().id()
            })
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected more than one worker thread");
        assert!(
            !distinct.contains(&thread::current().id()),
            "work ran on the calling thread"
        );
    }

    #[test]
    fn nested_parallel_calls_run_inline_on_their_worker() {
        // Workers pin their thread-local count to 1, so a nested call must
        // not spawn further threads (and cannot escape a --threads /
        // RAYON_NUM_THREADS cap through fresh OS threads).
        let nested = with_threads(4, || {
            map(4, |_| {
                thread::sleep(Duration::from_millis(10));
                assert_eq!(current_num_threads(), 1);
                map(16, |_| thread::current().id())
            })
        });
        for ids in nested {
            let distinct: HashSet<_> = ids.into_iter().collect();
            assert_eq!(distinct.len(), 1, "nested work left its worker thread");
        }
    }

    #[test]
    fn install_is_scoped_and_restored() {
        let outer = current_num_threads();
        with_threads(5, || {
            assert_eq!(current_num_threads(), 5);
            with_threads(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 5);
            with_threads(0, || assert_eq!(current_num_threads(), default_threads()));
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let caller = thread::current().id();
        let ids = with_threads(1, || map(64, |_| thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn panics_reach_the_caller_with_their_payload() {
        let payload = |r: thread::Result<()>| {
            r.expect_err("the panic must reach the caller")
                .downcast_ref::<&str>()
                .copied()
        };
        let mapped = catch_unwind(|| {
            with_threads(4, || {
                map(1000, |i| assert!(i != 617, "boom in map"));
            })
        });
        assert_eq!(payload(mapped), Some("boom in map"));
        let mut items = vec![0u32; 1000];
        let mutated = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                for_each_mut(&mut items, |i, _| assert!(i != 383, "boom in for_each_mut"))
            })
        }));
        assert_eq!(payload(mutated), Some("boom in for_each_mut"));
    }

    #[test]
    fn thread_count_is_restored_after_a_panicking_scope() {
        with_threads(3, || {
            let unwound = catch_unwind(|| with_threads(5, || panic!("inside the scope")));
            assert!(unwound.is_err());
            assert_eq!(current_num_threads(), 3);
        });
    }
}
