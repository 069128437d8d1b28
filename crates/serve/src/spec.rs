//! Job specifications: the one vocabulary for "simulate this workload under
//! this configuration", resolved to simulator inputs and a content
//! fingerprint.
//!
//! This module is the only place that parses workload keys and knobs. The
//! daemon reads them from a request object:
//!
//! ```json
//! {"cmd":"run","workload":"trace:AV1","si":"both","policy":"half",
//!  "latency":600,"slots":8,"sms":1,"shared_mem":true,"subwarps":32,
//!  "order":"ft","small_icache":false,"mem":"fixed"}
//! ```
//!
//! The `simulate` and `profile` binaries read the same knobs as
//! command-line flags: [`request_from_argv`] turns `--si both --policy half
//! trace:AV1` into that object, and [`JobSpec::from_request`] resolves it,
//! so a command line and its JSON form give the same job, label and
//! fingerprint. `--private-mem` is `"shared_mem":false`, `--small-icache`
//! is `"small_icache":true`, and `--trace FILE` is `"workload":"file:FILE"`.
//! The `trace` tool and `figures --trace` resolve their workload keys
//! through [`resolve_workload`].
//!
//! Workload keys: `toy` (the Figure 9 toy), `micro:SIZE[@ITERS]` (the
//! Figure 11 microbenchmark, 16 iterations by default), `trace:NAME` (a
//! Table II suite trace) and `file:PATH` (a serialized `subwarp-trace`
//! file).
//!
//! Two different requests that resolve to the same workload + configuration
//! produce the same [`cell_fingerprint`], which is what lets the memo store
//! and in-flight coalescing collapse duplicate work. The workload half of
//! that key is [`workload_hash`], the fingerprint of the canonical `.swt`
//! encoding, whatever key named the workload: `file:tests/corpus/av1.swt`
//! and `trace:AV1` resolve to one workload identity (their labels, and so
//! their cell fingerprints, still differ). The configuration half is a walk
//! of both configs' fields straight into the hash, so a request answered
//! from the memo store pays for parsing its knobs and one short hash, not
//! for formatting or buffering the configs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use subwarp_core::{
    DivergeOrder, HierarchyConfig, MemBackendConfig, SelectPolicy, SiConfig, SmConfig, Workload,
};
use subwarp_sweep::json::Value;
use subwarp_sweep::{cell_fingerprint, workload_hash};
use subwarp_workloads::{figure9_workload, microbenchmark_with, trace_by_name, MicroConfig};

/// A fully resolved simulation job: shared workload, validated configs, a
/// canonical label, and the content fingerprint the memo store keys on.
#[derive(Clone)]
pub struct JobSpec {
    /// Canonical `"<workload>/<config>"` label (journal + log vocabulary).
    pub label: String,
    /// Content fingerprint over workload + configs + label.
    pub fp: u64,
    /// The workload, shared via the process-wide cache.
    pub wl: Arc<Workload>,
    /// SM configuration.
    pub sm: SmConfig,
    /// Subwarp-interleaving configuration.
    pub si: SiConfig,
}

/// Cache value: the shared workload, its precomputed content hash, and for
/// a `file:` key the bytes it was decoded from.
struct CachedWorkload {
    wl: Arc<Workload>,
    hash: u64,
    file: Option<Vec<u8>>,
}

/// Process-wide workload cache, keyed by the request's workload key:
/// building a trace means re-tracing rays through a BVH (milliseconds), so
/// each distinct workload key is built once and shared across every job and
/// worker thread.
fn workload_cache() -> &'static Mutex<HashMap<String, CachedWorkload>> {
    static CACHE: OnceLock<Mutex<HashMap<String, CachedWorkload>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Iterations of `micro:SIZE` when the key names none: the Figure 11 /
/// Table III kernel.
const MICRO_ITERATIONS: &str = "16";

/// Resolves a workload key (`toy`, `micro:SIZE[@ITERS]`, `trace:NAME`, or
/// `file:PATH` naming a serialized `subwarp-trace` file) to a shared
/// workload and its [`workload_hash`] key. A canonical trace file keys the
/// same as the workload it was recorded from.
pub fn resolve_workload(key: &str) -> Result<(Arc<Workload>, u64), String> {
    // A file is read on every request and its cached build is used only
    // while the file still holds exactly the bytes it was decoded from: an
    // edited file replaces its entry (and, through `workload_hash`, is a new
    // identity, so the memo store stays sound).
    let file = key
        .strip_prefix("file:")
        .map(|path| {
            std::fs::read(path).map_err(|e| format!("cannot read trace file `{path}`: {e}"))
        })
        .transpose()?;
    if let Some(hit) = workload_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .filter(|hit| hit.file == file)
    {
        return Ok((Arc::clone(&hit.wl), hit.hash));
    }
    let wl = Arc::new(match &file {
        Some(bytes) => subwarp_trace::decode_workload(bytes).map_err(|e| e.to_string())?,
        None => build_workload(key)?,
    });
    let hash = workload_hash(&wl);
    let entry = CachedWorkload {
        wl: Arc::clone(&wl),
        hash,
        file,
    };
    workload_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key.to_owned(), entry);
    Ok((wl, hash))
}

/// Builds a workload named by a `toy`, `micro:` or `trace:` key.
fn build_workload(key: &str) -> Result<Workload, String> {
    if key == "toy" {
        return Ok(figure9_workload());
    }
    if let Some(rest) = key.strip_prefix("micro:") {
        let (size, iters) = match rest.split_once('@') {
            Some((s, i)) => (s, i),
            None => (rest, MICRO_ITERATIONS),
        };
        let subwarp_size: usize = size
            .parse()
            .map_err(|_| format!("bad micro subwarp size `{size}`"))?;
        let iterations: u32 = iters
            .parse()
            .map_err(|_| format!("bad micro iteration count `{iters}`"))?;
        if !(1..=32).contains(&subwarp_size) || !subwarp_size.is_power_of_two() {
            return Err(format!(
                "micro subwarp size must be a power of two in 1..=32, got {subwarp_size}"
            ));
        }
        if iterations == 0 || iterations > 64 {
            return Err(format!(
                "micro iterations must be in 1..=64, got {iterations}"
            ));
        }
        return Ok(microbenchmark_with(MicroConfig {
            subwarp_size,
            iterations,
            ..MicroConfig::default()
        }));
    }
    if let Some(name) = key.strip_prefix("trace:") {
        return trace_by_name(name)
            .map(|t| t.build())
            .ok_or_else(|| format!("unknown trace `{name}`"));
    }
    Err(format!(
        "unknown workload `{key}` (expected toy, micro:SIZE, trace:NAME, or file:PATH)"
    ))
}

fn parse_order(s: &str) -> Result<DivergeOrder, String> {
    Ok(match s {
        "ft" => DivergeOrder::FallthroughFirst,
        "taken" => DivergeOrder::TakenFirst,
        "random" => DivergeOrder::Random,
        "hinted" => DivergeOrder::Hinted,
        other => return Err(format!("bad order `{other}` (ft|taken|random|hinted)")),
    })
}

fn parse_policy(s: &str) -> Result<SelectPolicy, String> {
    Ok(match s {
        "any" => SelectPolicy::AnyStalled,
        "half" => SelectPolicy::HalfStalled,
        "all" => SelectPolicy::AllStalled,
        other => return Err(format!("bad policy `{other}` (any|half|all)")),
    })
}

impl JobSpec {
    /// Builds a job from a parsed request object. Every knob is optional
    /// except `workload`. Rejects unknown workloads, out-of-range knobs,
    /// and configurations that fail `SmConfig::validate`/`SiConfig::validate`
    /// — a daemon must bounce bad requests at the door, not panic a worker
    /// on them.
    pub fn from_request(req: &Value) -> Result<JobSpec, String> {
        let wl_key = req
            .str_field("workload")
            .ok_or_else(|| "missing `workload` field".to_owned())?;
        let (wl, whash) = resolve_workload(wl_key)?;

        let mut sm = SmConfig::turing_like();
        let default_latency = sm.miss_latency;
        if let Some(v) = req.get("latency") {
            sm.miss_latency = v.as_u64().ok_or("bad `latency`")?;
        }
        if let Some(v) = req.get("slots") {
            sm.warp_slots_per_pb = v.as_u64().ok_or("bad `slots`")? as usize;
        }
        if let Some(v) = req.get("sms") {
            sm.n_sms = v.as_u64().ok_or("bad `sms`")? as usize;
        }
        if let Some(v) = req.get("shared_mem") {
            sm.shared_partitions = v.as_bool().ok_or("bad `shared_mem`")?;
        }
        if let Some(v) = req.get("order") {
            sm.diverge_order = parse_order(v.as_str().ok_or("bad `order`")?)?;
        }
        if req.bool_field("small_icache").unwrap_or(false) {
            sm = sm.with_small_icaches();
        }
        if let Some(v) = req.get("mem") {
            sm.mem_backend = match v.as_str().ok_or("bad `mem`")? {
                "fixed" => MemBackendConfig::Fixed,
                "hier" => MemBackendConfig::Hierarchical(HierarchyConfig::turing_like()),
                other => return Err(format!("bad mem backend `{other}` (fixed|hier)")),
            };
        }

        let policy = match req.get("policy") {
            Some(v) => parse_policy(v.as_str().ok_or("bad `policy`")?)?,
            None => SelectPolicy::HalfStalled,
        };
        let si_kind = req.str_field("si").unwrap_or("off");
        let mut si = match si_kind {
            "off" => SiConfig::disabled(),
            "sos" => SiConfig::sos(policy),
            "both" => SiConfig::both(policy),
            "dws" => {
                let mut si = SiConfig::dws_like();
                si.policy = policy;
                si
            }
            other => return Err(format!("bad si mode `{other}` (off|sos|both|dws)")),
        };
        if let Some(v) = req.get("subwarps") {
            si = si.with_max_subwarps(v.as_u64().ok_or("bad `subwarps`")? as usize);
        }

        sm.validate()?;
        si.validate()?;

        // Canonical label: the workload key plus the SI label and any
        // non-default SM knobs, so journal lines and holes read like the
        // figures' cell names.
        let mut cfg = si.label();
        if sm.miss_latency != default_latency {
            cfg.push_str(&format!(",lat{}", sm.miss_latency));
        }
        let label = format!("{wl_key}/{cfg}");
        let fp = cell_fingerprint(&label, whash, &sm, &si);
        Ok(JobSpec {
            label,
            fp,
            wl,
            sm,
            si,
        })
    }
}

/// Translates a command line into the request object the wire carries:
/// each knob flag becomes the key of the same name, `--private-mem` is
/// `"shared_mem":false`, `--small-icache` is `"small_icache":true`,
/// `--trace FILE` is `"workload":"file:FILE"`, and the positional argument
/// is the `workload`. Every other argument goes to `own` with the
/// remaining arguments (to take a value from); `own` returns `false` for
/// one it does not know either.
pub fn request_from_argv<I: Iterator<Item = String>>(
    mut args: I,
    mut own: impl FnMut(&str, &mut I) -> bool,
) -> Result<Value, String> {
    let mut fields = Vec::new();
    let (mut workload, mut trace_file) = (None, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let (key, v) = match arg.as_str() {
            "--si" | "--policy" | "--mem" | "--order" => (&arg[2..], Value::Str(value()?)),
            "--latency" | "--slots" | "--sms" | "--subwarps" => {
                // A non-number stays a string, which `from_request`
                // rejects with the same message the daemon sends.
                let v = value()?;
                (&arg[2..], v.parse().map_or(Value::Str(v), Value::Int))
            }
            "--private-mem" => ("shared_mem", Value::Bool(false)),
            "--small-icache" => ("small_icache", Value::Bool(true)),
            "--trace" => {
                trace_file = Some(value()?);
                continue;
            }
            key if !key.starts_with('-') => {
                workload = Some(arg.clone());
                continue;
            }
            _ if own(&arg, &mut args) => continue,
            _ => return Err(format!("unknown option `{arg}`")),
        };
        fields.push((key.to_owned(), v));
    }
    if let Some(path) = trace_file {
        if workload.is_some() {
            return Err("--trace replaces the workload argument; give one or the other".into());
        }
        workload = Some(format!("file:{path}"));
    }
    if let Some(key) = workload {
        fields.push(("workload".to_owned(), Value::Str(key)));
    }
    Ok(Value::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_sweep::json::parse;

    fn spec(line: &str) -> Result<JobSpec, String> {
        JobSpec::from_request(&parse(line).unwrap())
    }

    #[test]
    fn chip_shape_changes_the_fingerprint() {
        // Memoization soundness: SM count and partition sharing are part
        // of the simulated machine, so they must key the memo store.
        let one = spec(r#"{"workload":"toy","mem":"hier"}"#).unwrap();
        let four = spec(r#"{"workload":"toy","mem":"hier","sms":4}"#).unwrap();
        let four_private =
            spec(r#"{"workload":"toy","mem":"hier","sms":4,"shared_mem":false}"#).unwrap();
        assert_ne!(one.fp, four.fp);
        assert_ne!(four.fp, four_private.fp);
        assert_ne!(one.fp, four_private.fp);
    }

    /// Resolves a command line through the argv translator.
    fn argv_spec(args: &[&str]) -> Result<JobSpec, String> {
        let req = request_from_argv(args.iter().map(|a| a.to_string()), |_, _| false)?;
        JobSpec::from_request(&req)
    }

    #[test]
    fn command_lines_and_requests_resolve_to_the_same_job() {
        let path = std::env::temp_dir().join("subwarp-serve-spec-argv.swt");
        std::fs::write(&path, subwarp_trace::encode_workload(&figure9_workload())).unwrap();
        let path = path.display().to_string();
        let file_json = format!(r#"{{"workload":"file:{path}","si":"both"}}"#);
        let table: Vec<(Vec<&str>, &str)> = vec![
            (vec!["toy"], r#"{"workload":"toy"}"#),
            (vec!["micro:8"], r#"{"workload":"micro:8"}"#),
            (
                vec!["--sms", "4", "--mem", "hier", "--private-mem", "toy"],
                r#"{"workload":"toy","sms":4,"mem":"hier","shared_mem":false}"#,
            ),
            (
                vec!["--small-icache", "toy"],
                r#"{"workload":"toy","small_icache":true}"#,
            ),
            (vec!["--si", "both", "--trace", &path], &file_json),
            (
                vec!["--order", "taken", "toy"],
                r#"{"workload":"toy","order":"taken"}"#,
            ),
            (
                vec!["--si", "both", "--subwarps", "4", "toy"],
                r#"{"workload":"toy","si":"both","subwarps":4}"#,
            ),
            (
                vec!["--si", "dws", "--policy", "all", "toy"],
                r#"{"workload":"toy","si":"dws","policy":"all"}"#,
            ),
            (
                vec!["--latency", "900", "--slots", "4", "micro:4@2"],
                r#"{"workload":"micro:4@2","latency":900,"slots":4}"#,
            ),
        ];
        for (args, json) in &table {
            let a = argv_spec(args).unwrap();
            let j = spec(json).unwrap();
            assert!(a.sm == j.sm, "{args:?}: sm");
            assert!(a.si == j.si, "{args:?}: si");
            assert_eq!(a.label, j.label, "{args:?}");
            assert_eq!(a.fp, j.fp, "{args:?}");
            assert!(Arc::ptr_eq(&a.wl, &j.wl), "{args:?}: workload");
        }
        std::fs::remove_file(&path).ok();

        let toy = argv_spec(&["toy"]).unwrap();
        assert!(!toy.si.enabled);
        assert_eq!(toy.sm.miss_latency, SmConfig::turing_like().miss_latency);
        assert_eq!(toy.label, "toy/baseline");
        // `micro:SIZE` is the Figure 11 / Table III kernel everywhere.
        let micro = spec(r#"{"workload":"micro:8"}"#).unwrap();
        assert!(*micro.wl == subwarp_workloads::microbenchmark(8, 16));
    }

    #[test]
    fn same_request_same_fingerprint_different_knob_different_fingerprint() {
        let a = spec(r#"{"workload":"toy","si":"both"}"#).unwrap();
        let b = spec(r#"{"workload":"toy","si":"both"}"#).unwrap();
        let c = spec(r#"{"workload":"toy","si":"both","latency":900}"#).unwrap();
        let d = spec(r#"{"workload":"toy","si":"sos"}"#).unwrap();
        assert_eq!(a.fp, b.fp);
        assert_ne!(a.fp, c.fp);
        assert_ne!(a.fp, d.fp);
    }

    #[test]
    fn workloads_are_cached_and_shared() {
        let a = spec(r#"{"workload":"micro:8"}"#).unwrap();
        let b = spec(r#"{"workload":"micro:8","si":"both"}"#).unwrap();
        assert!(Arc::ptr_eq(&a.wl, &b.wl), "cache must share the build");
        let c = spec(r#"{"workload":"micro:8@2"}"#).unwrap();
        assert!(
            !Arc::ptr_eq(&a.wl, &c.wl),
            "different iters, different build"
        );
    }

    #[test]
    fn file_keys_resolve_by_trace_content() {
        let wl = figure9_workload();
        let bytes = subwarp_trace::encode_workload(&wl);
        let path = std::env::temp_dir().join("subwarp-serve-spec-file-key.swt");
        std::fs::write(&path, &bytes).unwrap();
        let req = format!(r#"{{"workload":"file:{}"}}"#, path.display());
        let s = spec(&req).unwrap();
        assert_eq!(s.wl.name, wl.name);
        // The fingerprint is keyed by trace content, so an identical
        // in-memory workload served under the `toy` key shares no cell
        // fingerprint with the file-backed one (different identities)...
        let toy = spec(r#"{"workload":"toy"}"#).unwrap();
        assert_ne!(s.fp, toy.fp);
        // ...while re-requesting the same file shares the decoded build.
        let again = spec(&req).unwrap();
        assert!(Arc::ptr_eq(&s.wl, &again.wl));
        std::fs::remove_file(&path).ok();

        let missing = spec(r#"{"workload":"file:/nonexistent/nope.swt"}"#);
        let err = missing.err().expect("missing file must be rejected");
        assert!(err.contains("cannot read trace file"));
    }

    #[test]
    fn file_keys_follow_the_bytes_at_their_path() {
        let toy = subwarp_trace::encode_workload(&figure9_workload());
        let micro_wl = subwarp_workloads::microbenchmark(8, 16);
        let micro = subwarp_trace::encode_workload(&micro_wl);
        let path = std::env::temp_dir().join("subwarp-serve-spec-file-edit.swt");
        let key = format!("file:{}", path.display());
        std::fs::write(&path, &toy).unwrap();
        let (first, toy_hash) = resolve_workload(&key).unwrap();
        assert_eq!(toy_hash, subwarp_trace::trace_fingerprint(&toy));
        // Other bytes at the same path are another workload, even though
        // the key names the same file...
        std::fs::write(&path, &micro).unwrap();
        let (edited, micro_hash) = resolve_workload(&key).unwrap();
        assert!(*edited == micro_wl);
        assert_eq!(micro_hash, subwarp_trace::trace_fingerprint(&micro));
        // ...and the original bytes key as they did before the edit.
        std::fs::write(&path, &toy).unwrap();
        let (back, hash) = resolve_workload(&key).unwrap();
        assert!(back == first);
        assert_eq!(hash, toy_hash);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sms_beyond_a_full_chip_is_a_bad_request() {
        // Every SM stays live for a whole run, so an unbounded `sms` would
        // let one request allocate without limit.
        assert_eq!(spec(r#"{"workload":"toy","sms":72}"#).unwrap().sm.n_sms, 72);
        let err = spec(r#"{"workload":"toy","sms":73}"#).err();
        assert_eq!(err.as_deref(), Some("n_sms must be at most 72, got 73"));
        let server = crate::Server::start(
            crate::ServerConfig::default(),
            subwarp_sweep::Journal::in_memory(),
        );
        let req = parse(r#"{"workload":"toy","mem":"hier","sms":1000000}"#).unwrap();
        let (reply, _) = crate::wire::handle_request(&server, "test", &req);
        let reply = parse(&reply).unwrap();
        assert_eq!(reply.str_field("kind"), Some("bad-request"));
        server.drain();
    }

    #[test]
    fn rejects_bad_requests_cleanly() {
        for (bad, args) in [
            (r#"{"si":"both"}"#, &["--si", "both"][..]),
            (r#"{"workload":"nope"}"#, &["nope"]),
            (r#"{"workload":"trace:NOPE"}"#, &["trace:NOPE"]),
            (r#"{"workload":"micro:3"}"#, &["micro:3"]),
            (r#"{"workload":"micro:0"}"#, &["micro:0"]),
            (r#"{"workload":"micro:64"}"#, &["micro:64"]),
            (r#"{"workload":"micro:8@0"}"#, &["micro:8@0"]),
            (r#"{"workload":"micro:8@999"}"#, &["micro:8@999"]),
            (
                r#"{"workload":"toy","si":"warp"}"#,
                &["--si", "warp", "toy"],
            ),
            (
                r#"{"workload":"toy","order":"sideways"}"#,
                &["--order", "sideways", "toy"],
            ),
            (r#"{"workload":"toy","slots":0}"#, &["--slots", "0", "toy"]),
            (
                r#"{"workload":"toy","latency":"soon"}"#,
                &["--latency", "soon", "toy"],
            ),
        ] {
            let err = spec(bad)
                .err()
                .unwrap_or_else(|| panic!("{bad} must be rejected"));
            assert_eq!(argv_spec(args).err(), Some(err), "{args:?}");
        }
        let both = argv_spec(&["--trace", "a.swt", "toy"]).err();
        assert!(both.is_some_and(|e| e.contains("give one or the other")));
    }
}
