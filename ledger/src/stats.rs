//! Order statistics the ledger reports: nearest-rank percentiles, medians
//! and quartiles over timing samples, and the median over fixed windows of
//! a completion stream.

/// What one metric keeps of its samples: the median it reports and the
/// quartiles `compare` uses as the run's own spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    percentile_sorted(&sorted(samples), p)
}

/// Median (mean of the two middle elements for an even count) and
/// nearest-rank quartiles. `None` when there are no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    let median = if n == 0 {
        return None;
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        q1: percentile_sorted(&v, 25.0)?,
        q3: percentile_sorted(&v, 75.0)?,
        samples: n,
    })
}

/// One completed operation of a load run, in nanoseconds since the run
/// began.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub answers: u32,
}

/// Throughput and latency of one fixed window of a completion stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub answers_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Buckets completions by the window their reply arrived in and summarizes
/// each *complete* window (the tail shorter than `window_ns` is dropped, as
/// is a window in which nothing completed).
pub fn windows(done: &[Completion], window_ns: u64, run_ns: u64) -> Vec<Window> {
    let complete = (run_ns / window_ns.max(1)) as usize;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); complete];
    let mut answers = vec![0u64; complete];
    for c in done {
        let w = (c.recv_ns / window_ns.max(1)) as usize;
        if let (Some(l), Some(a)) = (latencies.get_mut(w), answers.get_mut(w)) {
            l.push(c.recv_ns.saturating_sub(c.sent_ns) as f64 / 1e3);
            *a += u64::from(c.answers);
        }
    }
    latencies
        .iter()
        .zip(&answers)
        .filter_map(|(l, &a)| {
            Some(Window {
                answers_per_s: a as f64 * 1e9 / window_ns as f64,
                p50_us: percentile(l, 50.0)?,
                p99_us: percentile(l, 99.0)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 90.0), Some(9.0));
        assert_eq!(percentile_sorted(&v, 91.0), Some(10.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        // Unsorted input and a single sample.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), Some(5.0));
        assert_eq!(percentile(&[4.0], 99.9), Some(4.0));
    }

    #[test]
    fn summary_median_and_quartiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3, s.samples), (2.5, 1.0, 3.0, 4));
        let s = summarize(&[7.0, 5.0, 6.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3), (6.0, 5.0, 7.0));
        assert_eq!(summarize(&[]), None);
        let one = summarize(&[3.0]).expect("non-empty");
        assert_eq!(
            (one.median, one.q1, one.q3, one.samples),
            (3.0, 3.0, 3.0, 1)
        );
    }

    #[test]
    fn median_of_windows_drops_the_partial_tail() {
        // 100 ns windows over a 250 ns run: two complete windows.
        let done: Vec<Completion> = [(0, 10, 2), (20, 90, 2), (50, 150, 4), (160, 240, 8)]
            .iter()
            .map(|&(sent_ns, recv_ns, answers)| Completion {
                sent_ns,
                recv_ns,
                answers,
            })
            .collect();
        let w = windows(&done, 100, 250);
        assert_eq!(w.len(), 2);
        // Window 0: 4 answers in 100 ns; latencies 10 ns and 70 ns.
        assert_eq!(w[0].answers_per_s, 4.0 * 1e9 / 100.0);
        assert_eq!(w[0].p50_us, 0.010);
        assert_eq!(w[0].p99_us, 0.070);
        // Window 1 holds only the 4-answer completion; the 240 ns one falls
        // in the dropped partial window.
        assert_eq!(w[1].answers_per_s, 4.0 * 1e9 / 100.0);
        let qps: Vec<f64> = w.iter().map(|x| x.answers_per_s).collect();
        assert_eq!(summarize(&qps).map(|s| s.median), Some(4.0e7));
    }
}
