//! Round-trip property: every built-in workload survives
//! encode → decode → re-encode with byte- and bit-identical results.
//!
//! Field equality (`Workload: PartialEq`) already implies behavioural
//! equality, but the test also *runs* each replayed workload against the
//! direct build under the reference digest configurations — serially and
//! on the worker pool — so a serialization bug that somehow preserved
//! structural equality while breaking the simulator contract (or a
//! nondeterministic decode) would still be caught.

use std::sync::Arc;
use subwarp_core::{SimError, Simulator, Workload};
use subwarp_pool::{run_supervised, Supervisor};
use subwarp_trace::{decode_workload, digest_configs, encode_workload, trace_fingerprint};
use subwarp_workloads::{built_suite, figure9_workload, microbenchmark};

fn roundtrip(wl: &Workload) -> (Vec<u8>, Workload) {
    let bytes = encode_workload(wl);
    let decoded = decode_workload(&bytes).expect("decode of a fresh encode");
    assert_eq!(&decoded, wl, "decoded workload differs for `{}`", wl.name);
    assert_eq!(
        encode_workload(&decoded),
        bytes,
        "re-encode is not byte-identical for `{}`",
        wl.name
    );
    (bytes, decoded)
}

/// Runs direct and replayed workloads under every digest config with the
/// given worker count, asserting bit-identical stats and memory images.
fn assert_replay_parity(direct: &Arc<Workload>, replayed: &Arc<Workload>, workers: usize) {
    let configs = Arc::new(digest_configs());
    let labels: Vec<String> = configs.iter().map(|(l, _, _)| l.to_string()).collect();
    let sup = Supervisor {
        workers,
        ..Supervisor::default()
    };
    let (jobs, a, b) = (
        Arc::clone(&configs),
        Arc::clone(direct),
        Arc::clone(replayed),
    );
    let pairs = run_supervised(&sup, &labels, move |i, _| {
        let (_, sm, si) = &jobs[i];
        let a = Simulator::new(sm.clone(), *si).run_with_memory(&a)?;
        let b = Simulator::new(sm.clone(), *si).run_with_memory(&b)?;
        Ok::<_, SimError>((a, b))
    });
    for (label, pair) in labels.iter().zip(pairs) {
        let ((sa, ia), (sb, ib)) = pair.unwrap_or_else(|e| {
            panic!("`{}` under {label} failed: {e}", direct.name);
        });
        assert_eq!(sa, sb, "`{}` stats diverge under {label}", direct.name);
        assert_eq!(ia, ib, "`{}` image diverges under {label}", direct.name);
    }
}

#[test]
fn toy_and_micro_roundtrip_and_replay_identically() {
    for wl in [
        figure9_workload(),
        microbenchmark(8, 4),
        microbenchmark(4, 2),
    ] {
        let (_, decoded) = roundtrip(&wl);
        let (wl, decoded) = (Arc::new(wl), Arc::new(decoded));
        assert_replay_parity(&wl, &decoded, 1);
        assert_replay_parity(&wl, &decoded, 4);
    }
}

#[test]
fn full_suite_roundtrips_byte_identically() {
    let mut fingerprints = std::collections::HashSet::new();
    for (spec, wl) in built_suite() {
        let (bytes, _) = roundtrip(wl);
        assert!(
            fingerprints.insert(trace_fingerprint(&bytes)),
            "suite trace `{}` collides with another trace's fingerprint",
            spec.name
        );
    }
}

#[test]
fn suite_replays_bit_identically_serial_and_parallel() {
    // Replay parity over the whole Table II suite: the (workload, config)
    // cells fan out on the pool; each cell runs direct + replayed.
    let suite = built_suite();
    let replayed: Vec<(String, Arc<Workload>, Arc<Workload>)> = suite
        .iter()
        .map(|(spec, wl)| {
            let bytes = encode_workload(wl);
            let decoded = decode_workload(&bytes).expect("decode");
            (spec.name.to_owned(), Arc::clone(wl), Arc::new(decoded))
        })
        .collect();
    for workers in [1, subwarp_pool::default_jobs()] {
        for (_, direct, decoded) in &replayed {
            assert_replay_parity(direct, decoded, workers);
        }
    }
}
