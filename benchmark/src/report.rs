//! Results: the end-to-end metrics of one run, the JSON result line and
//! file, and `compare` over two sets of result files.

use std::collections::BTreeMap;
use std::path::Path;

use subwarp_serve::json::{parse, Value};
use subwarp_sweep::json_escape;

use crate::layers::Values;
use crate::metrics::{Def, END_TO_END};
use crate::stats::{median, quartiles, tail, Tail};

/// The jobs one measured run completed: cells for the simulation
/// workloads, requests for the service ones.
#[derive(Debug, Default, Clone)]
pub struct Jobs {
    /// Latency of every successful job, ms.
    pub ok_ms: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed: simulation errors, wrong results, error or shed
    /// replies, transport errors.
    pub failed: u64,
    /// Simulated warp instructions carried by the successful results.
    pub insts: u64,
    /// Wall time of the measured window, s.
    pub elapsed_s: f64,
}

impl Jobs {
    /// Records one job.
    pub fn push(&mut self, latency_ms: f64, ok: bool, insts: u64) {
        self.attempted += 1;
        if ok {
            self.ok_ms.push(latency_ms);
            self.insts += insts;
        } else {
            self.failed += 1;
        }
    }

    /// All the jobs of `windows` as one window.
    pub fn total(windows: &[Jobs]) -> Jobs {
        let mut all = Jobs::default();
        for w in windows {
            all.ok_ms.extend(&w.ok_ms);
            all.attempted += w.attempted;
            all.failed += w.failed;
            all.insts += w.insts;
            all.elapsed_s += w.elapsed_s;
        }
        all
    }
}

/// What one workload run measured, before it becomes metrics.
#[derive(Default)]
pub struct Measured {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Peak RSS of the processes doing the work, MB.
    pub peak_rss_mb: f64,
    /// Untraced jobs (the whole measured span, or its first half when
    /// tracing), split into the windows the metrics are medians over.
    pub jobs: Vec<Jobs>,
    /// Traced jobs (the second half), when tracing.
    pub traced: Option<Vec<Jobs>>,
    /// Per-layer values (traced runs).
    pub layers: Values,
    /// How late the generator ran, p99, ms.
    pub late_ms_p99: f64,
    /// Failures found by the checks.
    pub errors: Vec<String>,
}

/// End-to-end metrics of a run whose jobs are split into `windows`: each
/// job metric is the median of its values over the windows, so a burst of
/// host interference that spoils one window does not move it. `limit_ms`
/// is the latency a job must meet to count toward goodput (`None`: every
/// successful job counts). The returned tail describes the windows' tail
/// percentiles: the lowest percentile and fewest samples beyond it of any
/// window, over all of their samples.
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: f64,
    windows: &[Jobs],
    limit_ms: Option<f64>,
) -> (Vec<(&'static Def, f64)>, Option<Tail>) {
    let tails: Vec<Tail> = windows.iter().filter_map(|w| tail(&w.ok_ms)).collect();
    let p99 = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()).unwrap_or(0.0);
    let per_window = |f: &dyn Fn(&Jobs) -> f64| {
        median(&windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "peak_rss_mb" => peak_rss_mb,
        "sim_insts_per_s" => per_window(&|w| w.insts as f64 / w.elapsed_s),
        "goodput_per_s" => per_window(&|w| {
            let good = match limit_ms {
                Some(l) => w.ok_ms.iter().filter(|&&ms| ms <= l).count(),
                None => w.ok_ms.len(),
            };
            good as f64 / w.elapsed_s
        }),
        "job_p50_ms" => per_window(&|w| median(&w.ok_ms).unwrap_or(0.0)),
        "job_p99_ms" => p99,
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    let metrics = END_TO_END.iter().map(|d| (d, value(d.name))).collect();
    let t = tails.into_iter().reduce(|a, b| Tail {
        pct: a.pct.min(b.pct),
        value: p99,
        beyond: a.beyond.min(b.beyond),
        n: a.n + b.n,
    });
    (metrics, t)
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Whether every output checked out.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric, in order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Run description for the result file (numbers or strings as JSON).
    pub meta: Vec<(&'static str, String)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// The first few failures, for diagnosis.
    pub errors: Vec<String>,
}

impl RunResult {
    /// Records a failure message (the first 20 are kept).
    pub fn error(&mut self, msg: impl Into<String>) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The result file: the contract line's fields plus `workload`, the run
    /// description and the errors.
    pub fn file_json(&self) -> String {
        let line = self.result_line();
        let mut extra = format!("\"workload\":\"{}\"", json_escape(&self.workload));
        for (k, v) in &self.meta {
            extra.push_str(&format!(",\"{k}\":{v}"));
        }
        let errors = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect::<Vec<_>>()
            .join(",");
        extra.push_str(&format!(",\"errors\":[{errors}]"));
        format!("{{{extra},{}\n", &line[1..])
    }
}

/// A metric value as JSON: every digit Rust's shortest round-trip form
/// gives, and never NaN or infinity (reported as 0, with the run marked
/// wrong by the caller's checks).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// One side of a comparison: each end-to-end metric's values per workload.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_side(paths: &[String]) -> Result<Side, String> {
    let mut files = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut inner: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot list {p}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.extension().is_some_and(|x| x == "json")
                        && !p.to_string_lossy().ends_with(".trace.json")
                })
                .collect();
            inner.sort();
            files.extend(inner);
        } else {
            files.push(path.to_path_buf());
        }
    }
    let mut side = Side::new();
    for f in files {
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let v = parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        if v.bool_field("trace") == Some(true) {
            continue;
        }
        let workload = v.str_field("workload").unwrap_or("?").to_owned();
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{}: no metrics", f.display()));
        };
        for (name, m) in metrics {
            let x = match m.get("value") {
                Some(Value::Float(x)) => *x,
                Some(Value::Int(i)) => *i as f64,
                _ => continue,
            };
            side.entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(x);
        }
    }
    Ok(side)
}

/// The verdict for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// A side's quartile spread is wider than the bound, and not every run
    /// of B beats every run of A.
    Unresolved,
}

/// Compares B against A for one metric.
pub fn verdict(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let spread =
        |xs: &[f64], m: f64| quartiles(xs).map_or(f64::INFINITY, |(q1, q3)| (q3 - q1) / m.abs());
    let worse_by = if def.higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let better_all = |x: &[f64], y: &[f64]| {
        x.iter().all(|&xv| {
            y.iter()
                .all(|&yv| if def.higher { xv > yv } else { xv < yv })
        })
    };
    if spread(a, ma).max(spread(b, mb)) > def.bound {
        return if better_all(b, a) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else if -worse_by > def.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `compare A... -- B...`: prints each side's median and quartiles and a
/// verdict per (end-to-end metric, workload). Returns whether nothing got
/// worse.
pub fn compare(a: &[String], b: &[String]) -> Result<bool, String> {
    let (sa, sb) = (load_side(a)?, load_side(b)?);
    let mut ok = true;
    println!(
        "{:<11} {:<16} {:>13} {:>27} {:>13} {:>27} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else {
            println!("{workload:<11} (no B runs)");
            continue;
        };
        for def in &END_TO_END {
            let (Some(xa), Some(xb)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let v = verdict(def, xa, xb);
            ok &= v != Verdict::Worse;
            let q = |xs: &[f64]| {
                quartiles(xs).map_or("-".to_owned(), |(q1, q3)| format!("{q1:.6}..{q3:.6}"))
            };
            println!(
                "{workload:<11} {:<16} {:>13.6} {:>27} {:>13.6} {:>27} {:>6.0}%  {}  (n={}/{})",
                def.name,
                median(xa).unwrap_or(0.0),
                q(xa),
                median(xb).unwrap_or(0.0),
                q(xb),
                def.bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "unresolved",
                },
                xa.len(),
                xb.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> Def {
        Def {
            name: "m",
            unit: "s",
            higher,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(
            verdict(&def(false, 0.1), &a, &[10.3, 10.4, 10.2, 10.35, 10.25]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&def(false, 0.1), &a, &[12.0, 12.1, 11.9, 12.05, 11.95]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&def(true, 0.1), &a, &[12.0, 12.1, 11.9, 12.05, 11.95]),
            Verdict::Better
        );
        let wide = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&def(false, 0.1), &a, &wide), Verdict::Unresolved);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "w".into(),
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("job_p50_ms".into(), 1.25, "ms")],
            meta: vec![("seed", "7".into())],
            ..RunResult::default()
        };
        let v = parse(&r.result_line()).unwrap();
        let Value::Obj(pairs) = &v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let file = parse(r.file_json().trim()).unwrap();
        assert_eq!(file.u64_field("seed"), Some(7));
        assert_eq!(file.str_field("workload"), Some("w"));
    }
}
