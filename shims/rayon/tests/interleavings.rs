//! Deterministic-scheduler proofs for the shim's concurrency.
//!
//! The one `Ordering::Relaxed` in `src/lib.rs` (the chunk-claiming cursor)
//! and the thread-local `with_threads` override are modeled here as
//! [`World`] state machines — one `step` per atomic action — and driven
//! through **every** sequentially consistent interleaving by the
//! [`sched`] explorer: `find_violation(...) == None` plus `!truncated`
//! means the protocol is race-free over all schedules of the modeled thread
//! count (≤3). That the explorer finds a race when there is one is pinned
//! by its own `explorer_finds_the_lost_update`. A real-code test then runs
//! the actual `with_threads` on OS threads.

mod sched;

use sched::{explore, find_violation, World};

// ---------------------------------------------------------------------------
// Model 1: dynamic chunk claiming off a shared cursor (`execute`)
// ---------------------------------------------------------------------------

/// Program counter of one virtual worker in [`ChunkClaim`].
#[derive(Clone, Copy, PartialEq)]
enum WorkerPc {
    /// About to `cursor.fetch_add(1)`.
    FetchAdd,
    /// Claimed index `i`; about to take the task out of its slot.
    Take(usize),
    /// Observed `i >= tasks` and exited the loop.
    Done,
}

/// Models the worker loop of `execute`: each worker repeatedly fetch_adds a
/// shared cursor and, when the index is in range, takes that chunk out of
/// its slot. The fetch_add and the slot-take are separate atomic actions,
/// exactly as in the real code, where the take runs under the slot's
/// `Mutex` and the worker's results travel back through its `JoinHandle`.
#[derive(Clone)]
struct ChunkClaim {
    cursor: usize,
    tasks: usize,
    taken: Vec<bool>,
    double_claim: bool,
    pc: Vec<WorkerPc>,
}

impl ChunkClaim {
    fn new(workers: usize, tasks: usize) -> Self {
        ChunkClaim {
            cursor: 0,
            tasks,
            taken: vec![false; tasks],
            double_claim: false,
            pc: vec![WorkerPc::FetchAdd; workers],
        }
    }
}

impl World for ChunkClaim {
    fn thread_count(&self) -> usize {
        self.pc.len()
    }

    fn is_runnable(&self, tid: usize) -> bool {
        self.pc[tid] != WorkerPc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            WorkerPc::FetchAdd => {
                let i = self.cursor;
                self.cursor += 1;
                self.pc[tid] = if i < self.tasks {
                    WorkerPc::Take(i)
                } else {
                    WorkerPc::Done
                };
            }
            WorkerPc::Take(i) => {
                if self.taken[i] {
                    self.double_claim = true;
                }
                self.taken[i] = true;
                self.pc[tid] = WorkerPc::FetchAdd;
            }
            WorkerPc::Done => unreachable!("explorer never steps a finished thread"),
        }
    }
}

#[test]
fn chunk_claiming_is_exactly_once_under_all_schedules() {
    for (workers, tasks) in [(2, 3), (3, 2), (3, 4)] {
        let initial = ChunkClaim::new(workers, tasks);
        let mut leaves = 0usize;
        let result = explore(&initial, &mut |world, schedule| {
            leaves += 1;
            assert!(
                !world.double_claim,
                "task claimed twice under schedule {schedule:?}"
            );
            assert!(
                world.taken.iter().all(|&t| t),
                "task never claimed under schedule {schedule:?}"
            );
        });
        assert!(!result.truncated, "exploration must be exhaustive");
        assert_eq!(result.schedules, leaves);
        assert!(result.schedules > 1, "model must actually interleave");
    }
}

// ---------------------------------------------------------------------------
// Model 2: `with_threads` isolation (thread-local overrides)
// ---------------------------------------------------------------------------

/// Two threads run `with_threads` with different counts; the override lives in a
/// thread-local, so each must observe its own value regardless of schedule.
#[derive(Clone)]
struct InstallIsolation {
    /// Per-thread thread-local slot (0 = no override).
    slot: [usize; 2],
    /// 0 = install, 1 = read, 2 = restore, 3 = done.
    pc: [u8; 2],
    observed: [usize; 2],
}

impl InstallIsolation {
    fn new() -> Self {
        InstallIsolation {
            slot: [0; 2],
            pc: [0; 2],
            observed: [0; 2],
        }
    }
    const SIZES: [usize; 2] = [4, 9];
}

impl World for InstallIsolation {
    fn thread_count(&self) -> usize {
        2
    }

    fn is_runnable(&self, tid: usize) -> bool {
        self.pc[tid] != 3
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            0 => self.slot[tid] = Self::SIZES[tid],
            1 => self.observed[tid] = self.slot[tid],
            _ => self.slot[tid] = 0,
        }
        self.pc[tid] += 1;
    }
}

#[test]
fn install_overrides_never_leak_across_threads() {
    assert_eq!(
        find_violation(&InstallIsolation::new(), |w| {
            w.pc == [3, 3] && w.observed != InstallIsolation::SIZES
        }),
        None
    );
}

// ---------------------------------------------------------------------------
// Real-code test: the actual implementation on OS threads
// ---------------------------------------------------------------------------

#[test]
fn concurrent_installs_stay_isolated() {
    std::thread::scope(|scope| {
        for threads in [2usize, 4, 8] {
            scope.spawn(move || {
                for _ in 0..100 {
                    rayon::with_threads(threads, || {
                        assert_eq!(rayon::current_num_threads(), threads)
                    });
                }
            });
        }
    });
}
