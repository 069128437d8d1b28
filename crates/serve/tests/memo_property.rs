//! Property: the memo store is a perfect stand-in for the simulator.
//!
//! For every workload in the corpus, the `RunStats` served from a
//! journal-backed store — recorded, written to disk through the integer
//! codec, and read back by a *fresh* store instance — must equal a fresh
//! simulation field-for-field. `RunStats` is all-integer, so equality here
//! is byte-identity; any codec field drift or lossy round-trip fails loud.
//!
//! The always-on corpus is toy + micro + a 20-seed slice of the fuzzer's
//! random workload generator; the full built-in trace suite runs in
//! release builds only (suite simulations are minutes in debug — same
//! gating as the bench determinism suite).

use std::sync::Arc;

use subwarp_core::{SiConfig, SmConfig, Workload};
use subwarp_sweep::{cell_fingerprint, lock_path_for, workload_hash, Journal};

fn configs() -> Vec<(String, SmConfig, SiConfig)> {
    let sm = SmConfig::turing_like();
    vec![
        ("base".into(), sm.clone(), SiConfig::disabled()),
        ("si".into(), sm, SiConfig::best()),
    ]
}

/// Simulates every (workload × config) cell fresh, records it in a
/// journal-backed store, reopens the store cold, and demands byte-identical
/// lookups for every fingerprint.
fn assert_store_matches_fresh_sim(tag: &str, corpus: Vec<(String, Arc<Workload>)>) {
    let path = std::env::temp_dir().join(format!(
        "subwarp_memo_prop_{tag}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(lock_path_for(&path));

    let mut expected = Vec::new();
    {
        let store = Journal::open(&path).unwrap();
        for (wname, wl) in &corpus {
            let whash = workload_hash(wl);
            for (cname, sm, si) in configs() {
                let label = format!("{wname}/{cname}");
                let stats = match subwarp_core::Simulator::new(sm.clone(), si).run(wl) {
                    Ok(s) => s,
                    // A degenerate random workload that the simulator
                    // rejects outright has nothing to memoize.
                    Err(_) => continue,
                };
                let fp = cell_fingerprint(&label, whash, &sm, &si);
                store.record(fp, &label, &stats);
                expected.push((label, fp, stats));
            }
        }
        assert!(!expected.is_empty(), "corpus produced no cells");
    }

    let store = Journal::open(&path).unwrap();
    assert_eq!(store.restored(), expected.len());
    for (label, fp, stats) in &expected {
        let served = store
            .lookup(*fp)
            .unwrap_or_else(|| panic!("{label}: fingerprint lost on reopen"));
        assert_eq!(
            &served, stats,
            "{label}: store result differs from fresh sim"
        );
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(lock_path_for(&path));
}

#[test]
fn memo_store_matches_fresh_sim_for_toy_micro_and_fuzz_seeds() {
    let mut corpus: Vec<(String, Arc<Workload>)> = vec![
        (
            "toy".into(),
            Arc::new(subwarp_workloads::figure9_workload()),
        ),
        (
            "micro".into(),
            Arc::new(subwarp_workloads::microbenchmark(8, 2)),
        ),
    ];
    for seed in 0..20u64 {
        corpus.push((
            format!("fuzz-{seed}"),
            Arc::new(subwarp_fuzz::random_workload(seed)),
        ));
    }
    assert_store_matches_fresh_sim("fuzz", corpus);
}

#[cfg(not(debug_assertions))]
#[test]
fn memo_store_matches_fresh_sim_for_the_built_in_suite() {
    let corpus: Vec<(String, Arc<Workload>)> = subwarp_workloads::built_suite()
        .iter()
        .map(|(t, wl)| (t.name.to_owned(), Arc::clone(wl)))
        .collect();
    assert_store_matches_fresh_sim("suite", corpus);
}
