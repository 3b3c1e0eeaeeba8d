//! A deterministic-scheduler exploration harness, loom-style but
//! hand-rolled: model a small concurrent algorithm as a [`World`] state
//! machine and the explorer drives it through **every** interleaving of its
//! virtual threads by depth-first search with state cloning.
//!
//! Each `step(tid)` must model one *atomic* action of thread `tid` — one
//! atomic load, store or read-modify-write, or one private-state
//! transition. The explorer then enumerates all schedules (sequentially
//! consistent interleavings) of those atomic actions. That is exactly the
//! right tool for the races this workspace cares about — program-order
//! races such as "flag published before the value it guards" — which are
//! observable under sequential consistency already. Weak-memory
//! reorderings (visible only under relaxed hardware models) are *not*
//! modeled; the rayon shim's one atomic, its chunk-claiming cursor,
//! publishes no data, so it does not depend on any (see the models in
//! `interleavings.rs`, this module's only user).
//!
//! Worlds are plain `Clone` structs, so exploring is allocation-cheap and
//! fully deterministic: a reported schedule (a `Vec` of thread ids) replays
//! a failure exactly.

/// A model of a concurrent algorithm under exploration.
pub trait World: Clone {
    /// Number of virtual threads in the model.
    fn thread_count(&self) -> usize;
    /// `true` while thread `tid` still has an atomic action to run.
    fn is_runnable(&self, tid: usize) -> bool;
    /// Runs exactly one atomic action of thread `tid`.
    ///
    /// Only called when `is_runnable(tid)` is true.
    fn step(&mut self, tid: usize);
}

/// Result of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Number of complete schedules (leaves) visited.
    pub schedules: usize,
    /// `true` when the schedule cap stopped the search early — an
    /// exhaustiveness assertion should require this to be `false`.
    pub truncated: bool,
}

/// Hard cap on schedules so a mis-sized model fails loudly instead of
/// hanging the test suite. 3 threads × a handful of steps each stays far
/// below this.
pub const MAX_SCHEDULES: usize = 2_000_000;

/// Explores every interleaving of `initial`, invoking `check` on each final
/// state together with the schedule (sequence of thread ids) that produced
/// it. Panics in `check` (assertions) abort the search with the failing
/// schedule visible in the panic message's context.
pub fn explore<W: World>(initial: &W, check: &mut dyn FnMut(&W, &[usize])) -> Exploration {
    let mut result = Exploration {
        schedules: 0,
        truncated: false,
    };
    let mut schedule = Vec::new();
    dfs(initial, &mut schedule, check, &mut result);
    result
}

fn dfs<W: World>(
    world: &W,
    schedule: &mut Vec<usize>,
    check: &mut dyn FnMut(&W, &[usize]),
    result: &mut Exploration,
) {
    if result.truncated {
        return;
    }
    let mut any_ran = false;
    for tid in 0..world.thread_count() {
        if !world.is_runnable(tid) {
            continue;
        }
        any_ran = true;
        let mut next = world.clone();
        next.step(tid);
        schedule.push(tid);
        dfs(&next, schedule, check, result);
        schedule.pop();
    }
    if !any_ran {
        result.schedules += 1;
        if result.schedules >= MAX_SCHEDULES {
            result.truncated = true;
        }
        check(world, schedule);
    }
}

/// Convenience: explores all interleavings and returns the first schedule
/// whose final state satisfies `bad`, or `None` when no interleaving can
/// reach a bad state. Use a `Some` assertion to prove the harness *finds* a
/// known bug, and a `None` assertion to prove a fix closes it.
pub fn find_violation<W: World>(initial: &W, bad: impl Fn(&W) -> bool) -> Option<Vec<usize>> {
    let mut found: Option<Vec<usize>> = None;
    explore(initial, &mut |world, schedule| {
        if found.is_none() && bad(world) {
            found = Some(schedule.to_vec());
        }
    });
    found
}

/// The explorer's own proofs: it finds a known race and passes its fix.
mod tests {
    use super::*;

    /// Two threads increment a shared counter. In `atomic` mode the
    /// increment is one fetch_add step; otherwise it is a separate read and
    /// write, which allows the classic lost update.
    #[derive(Clone)]
    struct Counter {
        value: u32,
        atomic: bool,
        // Per-thread program counter: 0 = before read, 1 = holds `loaded`
        // and still has to write, 2 = done.
        pc: [u8; 2],
        loaded: [u32; 2],
    }

    impl Counter {
        fn new(atomic: bool) -> Self {
            Counter {
                value: 0,
                atomic,
                pc: [0; 2],
                loaded: [0; 2],
            }
        }
    }

    impl World for Counter {
        fn thread_count(&self) -> usize {
            2
        }

        fn is_runnable(&self, tid: usize) -> bool {
            self.pc[tid] != 2
        }

        fn step(&mut self, tid: usize) {
            if self.atomic {
                self.value += 1;
                self.pc[tid] = 2;
                return;
            }
            match self.pc[tid] {
                0 => {
                    self.loaded[tid] = self.value;
                    self.pc[tid] = 1;
                }
                _ => {
                    self.value = self.loaded[tid] + 1;
                    self.pc[tid] = 2;
                }
            }
        }
    }

    #[test]
    fn explorer_finds_the_lost_update() {
        let schedule = find_violation(&Counter::new(false), |w| w.value != 2);
        let schedule = schedule.expect("non-atomic increment must lose an update somewhere");
        // Replay the reported schedule and confirm it reproduces the bug.
        let mut world = Counter::new(false);
        for &tid in &schedule {
            world.step(tid);
        }
        assert_ne!(world.value, 2);
    }

    #[test]
    fn explorer_proves_the_atomic_version_correct() {
        assert_eq!(find_violation(&Counter::new(true), |w| w.value != 2), None);
    }

    #[test]
    fn exploration_is_exhaustive_and_counts_schedules() {
        // Two threads with two steps each: C(4,2) = 6 interleavings.
        let result = explore(&Counter::new(false), &mut |_, _| {});
        assert_eq!(result.schedules, 6);
        assert!(!result.truncated);
        // One step each: C(2,1) = 2.
        let result = explore(&Counter::new(true), &mut |_, _| {});
        assert_eq!(result.schedules, 2);
        assert!(!result.truncated);
    }
}
