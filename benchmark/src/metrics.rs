//! Every metric the benchmark reports, with its unit and direction. The
//! lists mirror `BENCHMARK.json` at the repository root (a test keeps them
//! in step).

/// A metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    /// For end-to-end metrics, the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
    e2e("sim_insts_per_s", "inst/s", true, 0.25),
    e2e("goodput_per_s", "jobs/s", true, 0.25),
    e2e("job_p50_ms", "ms", false, 0.25),
    e2e("job_p99_ms", "ms", false, 0.25),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: [Def; 49] = [
    layer("workloads.build_s", "s", false),
    layer("trace.decode_mb_per_s", "MB/s", true),
    layer("core.ns_per_inst", "ns", false),
    layer("core.phase.issue_share", "fraction", false),
    layer("core.phase.execute_share", "fraction", false),
    layer("core.phase.memory_share", "fraction", false),
    layer("core.phase.fast_forward_share", "fraction", false),
    layer("core.phase.other_share", "fraction", false),
    layer("core.phase.unattributed_share", "fraction", false),
    layer("isa.alu_issue_share", "fraction", false),
    layer("mem.l1d_miss_ratio", "fraction", false),
    layer("mem.l2_hit_rate", "fraction", true),
    layer("mem.fill_latency_cy_mean", "cycles", false),
    layer("mem.requests_per_kinst", "count", false),
    layer("chip.run_s.1sm", "s", false),
    layer("chip.run_s.36sm", "s", false),
    layer("chip.weak_scaling", "ratio", false),
    layer("model.cycles", "cycles", false),
    layer("model.instructions", "count", false),
    layer("model.ipc", "inst/cycle", true),
    layer("model.si_gain_pct", "%", true),
    layer("model.cause.issued_share", "fraction", true),
    layer("model.cause.load_stall_share", "fraction", false),
    layer("model.cause.traversal_stall_share", "fraction", false),
    layer("model.cause.fetch_stall_share", "fraction", false),
    layer("model.cause.switch_penalty_share", "fraction", false),
    layer("model.cause.short_dep_share", "fraction", false),
    layer("model.cause.barrier_share", "fraction", false),
    layer("model.cause.idle_share", "fraction", false),
    layer("sweep.fingerprint_us", "us", false),
    layer("journal.record_us_p50", "us", false),
    layer("journal.lookup_us_p50", "us", false),
    layer("journal.open_ms", "ms", false),
    layer("journal.compact_ms", "ms", false),
    layer("serve.json_parse_us", "us", false),
    layer("serve.spec_us", "us", false),
    layer("serve.sim_ms_p50", "ms", false),
    layer("serve.hit_rate", "fraction", true),
    layer("serve.coalesced", "count", true),
    layer("serve.simulated", "count", false),
    layer("serve.shed", "count", false),
    layer("serve.failed", "count", false),
    layer("router.hop_ms_p50", "ms", false),
    layer("router.hop_ms_p99", "ms", false),
    layer("router.retries", "count", false),
    layer("router.failovers", "count", false),
    layer("router.shed", "count", false),
    layer("loadgen.late_ms_p99", "ms", false),
    layer("trace_overhead_pct", "%", false),
];

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["paper-grid", "chip-hier", "serve-hot", "serve-cold"];

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_serve::json::{parse, Value};

    fn defs(v: &Value, key: &str) -> Vec<(String, String, bool, Option<f64>)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = match m.get("bound") {
                    Some(Value::Float(f)) => Some(*f),
                    Some(Value::Int(i)) => Some(*i as f64),
                    _ => None,
                };
                (
                    m.str_field("name").unwrap().to_owned(),
                    m.str_field("unit").unwrap().to_owned(),
                    m.str_field("better") == Some("higher"),
                    bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.higher,
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(defs(&v, "end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.higher, None))
            .collect();
        assert_eq!(defs(&v, "per_layer"), want);
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
