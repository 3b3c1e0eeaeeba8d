//! Result files, the printed tables, the driver's contract line, and
//! `compare` over two result sets.

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::trace::self_times;
use crate::workload::{Metric, Outcome};

pub fn outcome_json(o: &Outcome) -> Json {
    let metrics = o.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value())),
                ("unit", Json::str(m.unit)),
                ("q1", Json::Num(m.summary.q1)),
                ("q3", Json::Num(m.summary.q3)),
                ("samples", Json::Num(m.summary.samples as f64)),
            ]),
        )
    });
    Json::obj([
        ("workload", Json::str(o.workload)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Bool(o.trace)),
        ("scale", Json::str(o.scale.as_str())),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        // A string: a 64-bit value does not survive a JSON number.
        (
            "answers_checksum",
            Json::str(format!("{:#018x}", o.checksum)),
        ),
        ("wall_s", Json::Num(o.wall_s)),
        ("notes", Json::Arr(o.notes.iter().map(Json::str).collect())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The last line of standard output of a single-workload run: exactly the
/// keys the driver reads, with exactly the metrics `BENCHMARK.json` lists
/// for this kind of run.
pub fn contract_line(o: &Outcome) -> String {
    let listed = |m: &&Metric| {
        if o.trace {
            m.name != spec::PLANT_BUILD && PER_LAYER.iter().any(|l| l.name == m.name)
        } else {
            m.name != spec::FAILED_SHARE && END_TO_END.iter().any(|e| e.name == m.name)
        }
    };
    let metrics = o.metrics.iter().filter(listed).map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value())), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn number(x: f64) -> String {
    match x.abs() {
        _ if !x.is_finite() => format!("{x}"),
        a if a >= 1e6 => format!("{x:.0}"),
        a if a >= 100.0 => format!("{x:.1}"),
        a if a >= 1.0 => format!("{x:.3}"),
        _ => format!("{x:.5}"),
    }
}

/// Every (metric, workload) cell of one run by name, with unit and spread.
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {} seed {} ({}, {} s budget): wall {:.1} s, attempted {}, failed {}, \
         answers_checksum {:#018x}",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        o.seconds,
        o.wall_s,
        o.attempted,
        o.failed,
        o.checksum
    );
    for note in &o.notes {
        println!("   FAILED: {note}");
    }
    for m in &o.metrics {
        let spread = if m.summary.samples > 1 {
            format!(
                "  [q1 {} q3 {} n={}]",
                number(m.summary.q1),
                number(m.summary.q3),
                m.summary.samples
            )
        } else {
            String::new()
        };
        let moves = PER_LAYER
            .iter()
            .find(|l| l.name == m.name)
            .map_or(String::new(), |l| format!("  -> {}", l.moves));
        println!(
            "{:<13} {:<34} {:>14} {:<6}{spread}{moves}",
            o.workload,
            m.name,
            number(m.value()),
            m.unit
        );
    }
    if o.trace {
        print_self_times(o);
        print_stack(o);
    }
}

/// Per span name: calls, total time and self time (span minus children).
fn print_self_times(o: &Outcome) {
    println!(
        "-- {} self times (span minus the part its children cover)",
        o.workload
    );
    println!(
        "{:<34} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    let rows = self_times(o.tracer.spans());
    let root = rows.first().map_or(1, |r| r.total_ns.max(1)) as f64;
    for row in rows {
        println!(
            "{:<34} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            row.name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / root
        );
    }
}

/// The ROADMAP stack as ns per answer and as overhead over the layer
/// beneath, with the unattributed residual shown.
fn print_stack(o: &Outcome) {
    let get = |name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value())
    };
    println!(
        "-- {} stack, ns per answer (serve.server, serve.router: per worker = wall time x 2 workers)",
        o.workload
    );
    println!(
        "{:<32} {:>12} {:>14} {:>8}",
        "layer", "ns/answer", "over beneath", "x"
    );
    let run = format!(
        "serve.inproc, {} frames/call",
        get("stack.coalesced_frames")
    );
    let rows = [
        ("core.kernel.join_ns", "stack.join_ns"),
        ("query_ns", "stack.query_ns"),
        ("core.oracle.distances_b64", "stack.distances_b64_ns"),
        ("serve.inproc, 1 frame/call", "stack.inproc_ns"),
        (run.as_str(), "stack.inproc_coalesced_ns"),
        ("serve.server", "stack.server_worker_ns"),
        ("serve.router", "stack.router_worker_ns"),
    ];
    let mut beneath = f64::NAN;
    for (label, name) in rows {
        let ns = get(name);
        if beneath.is_nan() {
            println!("{label:<32} {ns:>12.1} {:>14} {:>8}", "-", "-");
        } else {
            println!(
                "{label:<32} {ns:>12.1} {:>+14.1} {:>8.2}",
                ns - beneath,
                ns / beneath
            );
        }
        beneath = ns;
    }
    println!(
        "{:<32} {:>12.1} {:>13.1}% of serve.server: what is left after the coalesced service, \
         the client's decode and both frame buffers (sockets, wake-ups, waiting)",
        "unattributed",
        get("stack.unattributed_ns"),
        get("stack.unattributed_pct")
    );
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) cell of a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Cell {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let change = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        change.signum() * f64::INFINITY
    } else {
        change / a.abs()
    }
}

/// `a` is the base. A move beyond the bound counts only when the runs' own
/// quartile ranges do not overlap; a move within it counts as unchanged only
/// when both runs are steadier than the bound.
pub fn verdict(metric: &EndToEnd, a: &Cell, b: &Cell, same_seed: bool) -> Verdict {
    let worse = worse_by(metric, a.value, b.value);
    if metric.exact && same_seed {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    let apart = a.q3 < b.q1 || b.q3 < a.q1;
    if worse > metric.bound {
        if apart {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse < -metric.bound {
        if apart {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if a.spread().max(b.spread()) <= metric.bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

fn cell(workload: &Json, metric: &str) -> Option<Cell> {
    let m = workload.get("metrics")?.get(metric)?;
    let field = |name: &str| m.get(name).and_then(Json::as_f64);
    Some(Cell {
        value: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
    })
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub regressed: usize,
    /// Cells whose medians differ by more than the bound, either way.
    pub disagree: usize,
    pub cells: usize,
}

/// One row per (end-to-end metric, workload): both medians with quartiles,
/// the ratio with its base, and the verdict.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let seed = |set: &Json| set.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let list = |set: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(set
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("not a ledger result set: no \"workloads\"")?
            .to_vec())
    };
    let (in_a, in_b) = (list(a)?, list(b)?);
    println!(
        "{:<13} {:<24} {:>32} {:>32} {:>9} {:>6}  verdict",
        "workload", "metric", "a: value [q1, q3]", "b: value [q1, q3]", "b/a", "bound"
    );
    let mut out = Comparison::default();
    for wa in &in_a {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = in_b
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<13} missing from b");
            out.regressed += 1;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(ca), Some(cb)) = (cell(wa, metric.name), cell(wb, metric.name)) else {
                println!("{name:<13} {:<24} missing from a or b", metric.name);
                out.regressed += 1;
                continue;
            };
            let v = verdict(metric, &ca, &cb, same_seed);
            let show =
                |c: &Cell| format!("{} [{}, {}]", number(c.value), number(c.q1), number(c.q3));
            let ratio = match cb.value / ca.value {
                r if r.is_finite() => format!("{r:.4}"),
                _ => "-".to_string(),
            };
            println!(
                "{name:<13} {:<24} {:>32} {:>32} {ratio:>9} {:>6}  {}",
                metric.name,
                show(&ca),
                show(&cb),
                metric.bound,
                v.as_str()
            );
            out.cells += 1;
            out.regressed += usize::from(v == Verdict::Regressed);
            let bound = if metric.exact && same_seed {
                0.0
            } else {
                metric.bound
            };
            out.disagree += usize::from(worse_by(metric, ca.value, cb.value).abs() > bound);
        }
        let checksum = |w: &Json| {
            w.get("answers_checksum")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if same_seed {
            let same = checksum(wa) == checksum(wb);
            println!(
                "{name:<13} {:<24} {:>32} {:>32} {:>9} {:>6}  {}",
                "answers_checksum",
                checksum(wa).unwrap_or_default(),
                checksum(wb).unwrap_or_default(),
                "-",
                0,
                if same { "unchanged" } else { "regressed" }
            );
            out.cells += 1;
            out.regressed += usize::from(!same);
            out.disagree += usize::from(!same);
        }
    }
    println!("base of every ratio: a. b/a above 1 is worse for metrics where lower is better.");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("declared")
    }

    fn steady(value: f64) -> Cell {
        Cell {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let query = metric("query_ns"); // lower is better, bound 0.25
        assert_eq!(
            verdict(query, &steady(100.0), &steady(110.0), true),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(query, &steady(100.0), &steady(140.0), true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(query, &steady(100.0), &steady(60.0), true),
            Verdict::Improved
        );
        // Beyond the bound but the quartile ranges overlap: not resolved.
        let noisy = Cell {
            value: 140.0,
            q1: 95.0,
            q3: 160.0,
        };
        assert_eq!(
            verdict(query, &steady(100.0), &noisy, true),
            Verdict::Unresolved
        );
        // Within the bound but one run is noisier than the bound.
        let wide = Cell {
            value: 103.0,
            q1: 85.0,
            q3: 115.0,
        };
        assert_eq!(
            verdict(query, &steady(100.0), &wide, true),
            Verdict::Unresolved
        );

        let qps = metric("serve_qps"); // higher is better
        assert_eq!(
            verdict(qps, &steady(1000.0), &steady(700.0), true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(qps, &steady(1000.0), &steady(1300.0), true),
            Verdict::Improved
        );
        assert!((worse_by(qps, 1000.0, 800.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_metrics_agree_exactly_for_one_seed_only() {
        let labels = metric("labels_per_vertex");
        let (a, b) = (
            Cell {
                value: 172.6,
                q1: 172.6,
                q3: 172.6,
            },
            Cell {
                value: 172.7,
                q1: 172.7,
                q3: 172.7,
            },
        );
        assert_eq!(verdict(labels, &a, &a, true), Verdict::Unchanged);
        assert_eq!(verdict(labels, &a, &b, true), Verdict::Regressed);
        assert_eq!(verdict(labels, &b, &a, true), Verdict::Improved);
        // Graphs of different seeds differ a little: the bound applies.
        assert_eq!(verdict(labels, &a, &b, false), Verdict::Unchanged);
        let failed = metric(spec::FAILED_SHARE);
        let zero = Cell {
            value: 0.0,
            q1: 0.0,
            q3: 0.0,
        };
        let some = Cell {
            value: 0.001,
            q1: 0.001,
            q3: 0.001,
        };
        assert_eq!(verdict(failed, &zero, &zero, false), Verdict::Unchanged);
        assert_eq!(verdict(failed, &zero, &some, false), Verdict::Regressed);
    }
}
