//! Wall-clock shim for `criterion`: the `Criterion`/group/`Bencher` API and
//! the `criterion_group!`/`criterion_main!` macros, measuring each benchmark
//! as mean wall time over `sample_size` timed iterations (after one warm-up
//! iteration). No statistics, plots or comparisons — just honest timings so
//! `cargo bench` compiles and runs without the real crate.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Batch sizing hint (accepted, ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per sample.
    PerIteration,
}

/// Identifier combining a function name and a parameter.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing context handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Mean duration of the routine, filled in by `iter`/`iter_batched`.
    mean: Duration,
}

impl Bencher {
    /// Times `routine` over the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine()); // warm-up
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(routine());
        }
        self.mean = start.elapsed() / self.samples as u32;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup())); // warm-up
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.mean = total / self.samples as u32;
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl fmt::Display, mut f: F) {
        let mut bencher = Bencher {
            samples: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        let name = id.to_string();
        println!(
            "bench {:<50} {:>12.3?}  ({} samples)",
            name, bencher.mean, self.sample_size
        );
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl fmt::Display, f: F) {
        let full = format!("{}/{}", self.name, id);
        self.criterion.bench_function(full, f);
    }

    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group runner function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("g");
        group.bench_function("inner", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        group.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
    }
}
