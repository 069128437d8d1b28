//! Frozen replay corpus: every `.swt` file under `tests/corpus/` must keep
//! decoding, re-encoding byte-identically, and replaying to the digest
//! frozen in its sibling `.expect` file. A drift here means the trace
//! format or the simulator changed observable behaviour — either fix the
//! regression or consciously re-freeze with
//! `trace validate tests/corpus/*.swt --write-expect` and bump
//! `FORMAT_VERSION` if the wire layout changed.
//!
//! The corpus also pins identities: a workload's sweep/service key is the
//! trace fingerprint of its canonical encoding, and a digest's `stats=`
//! value is the benchmark's golden per-cell digest of the same run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use subwarp_bench::{fig12a_sweep, si_configs};
use subwarp_core::{SiConfig, SmConfig};
use subwarp_sweep::{cell_fingerprint, workload_hash};
use subwarp_trace::{
    decode_workload, encode_workload, import_text, trace_fingerprint, workload_digest, ImportMode,
};
use subwarp_workloads::{built_suite, figure9_workload, microbenchmark_with, MicroConfig};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "swt"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty_and_has_expectations() {
    let files = corpus_files();
    assert!(
        files.len() >= 5,
        "frozen corpus shrank to {} file(s)",
        files.len()
    );
    for f in files {
        assert!(
            f.with_extension("expect").exists(),
            "{} has no frozen .expect digest",
            f.display()
        );
    }
}

#[test]
fn corpus_replays_byte_identically() {
    for f in corpus_files() {
        let bytes = std::fs::read(&f).expect("read corpus trace");
        let wl = decode_workload(&bytes)
            .unwrap_or_else(|e| panic!("{} no longer decodes: {e}", f.display()));
        assert_eq!(
            encode_workload(&wl),
            bytes,
            "{} does not re-encode byte-identically",
            f.display()
        );
        let digest = workload_digest(&bytes, &wl)
            .unwrap_or_else(|e| panic!("{} no longer replays: {e}", f.display()));
        let want = std::fs::read_to_string(f.with_extension("expect"))
            .unwrap_or_else(|e| panic!("{} expect file: {e}", f.display()));
        assert_eq!(
            digest,
            want,
            "{} drifted from its frozen digest",
            f.display()
        );
    }
}

#[test]
fn import_sample_parses_strict_and_replays() {
    let path = corpus_dir().join("import/demo.txt");
    let text = std::fs::read_to_string(&path).expect("read import sample");
    let imported = import_text(&text, ImportMode::Strict).expect("strict import");
    assert!(imported.report.is_exact(), "demo sample must be in-subset");
    assert_eq!(imported.report.warps, 2);
    assert!(imported.report.address_tables > 0);
    // The imported kernel must actually run (and deterministically so).
    let bytes = encode_workload(&imported.workload);
    let d1 = workload_digest(&bytes, &imported.workload).expect("replay");
    let d2 = workload_digest(&bytes, &imported.workload).expect("replay");
    assert_eq!(d1, d2);
}

#[test]
fn corpus_files_key_by_their_bytes() {
    for f in corpus_files() {
        let bytes = std::fs::read(&f).expect("read corpus trace");
        let wl = decode_workload(&bytes).expect("corpus decodes");
        assert_eq!(
            workload_hash(&wl),
            trace_fingerprint(&bytes),
            "{} keys differently from its bytes",
            f.display()
        );
    }
}

#[test]
fn built_workloads_survive_the_key_encoding() {
    // The key hashes the `.swt` encoding, so that encoding must hold every
    // field of every workload a key can name.
    let mut wls: Vec<Arc<_>> = built_suite().iter().map(|(_, wl)| Arc::clone(wl)).collect();
    assert_eq!(wls.len(), 10);
    wls.push(Arc::new(figure9_workload()));
    wls.push(Arc::new(microbenchmark_with(MicroConfig {
        subwarp_size: 8,
        iterations: 16,
        ..MicroConfig::default()
    })));
    for wl in wls {
        let back = decode_workload(&encode_workload(&wl)).expect("round trip decodes");
        assert!(back == *wl, "{} loses a field in the trace codec", wl.name);
    }
}

#[test]
fn av1_fig12a_keys_are_pinned() {
    // `trace:AV1` and the corpus file recorded from it are one identity.
    let av1 = &built_suite()[0].1;
    assert_eq!(av1.name, "AV1");
    let file = std::fs::read(corpus_dir().join("av1.swt")).expect("read av1.swt");
    assert_eq!(workload_hash(av1), 0xb2b3_1e36_4068_1490);
    assert_eq!(
        workload_hash(&decode_workload(&file).unwrap()),
        0xb2b3_1e36_4068_1490
    );
    // The Fig. 12a cells of the AV1 row, labelled as the sweep labels them.
    let mut cells = vec![("base".to_owned(), SiConfig::disabled())];
    cells.extend(si_configs());
    assert!(fig12a_sweep()
        .config_labels()
        .eq(cells.iter().map(|(l, _)| l.as_str())));
    let got: Vec<(String, u64)> = cells
        .iter()
        .map(|(label, si)| {
            let fp = cell_fingerprint(
                &format!("AV1/{label}"),
                workload_hash(av1),
                &SmConfig::turing_like(),
                si,
            );
            (label.clone(), fp)
        })
        .collect();
    let want: Vec<(String, u64)> = [
        ("base", 0xefcc_57c0_c839_b924),
        ("SOS,N=1", 0x53e7_2581_8917_1c8f),
        ("Both,N=1", 0x1d3f_f383_65f2_e900),
        ("SOS,N>=0.5", 0x8404_c286_f304_5825),
        ("Both,N>=0.5", 0x7322_05c4_44ef_419a),
        ("SOS,N>0", 0xfec7_5eb9_be55_42d4),
        ("Both,N>0", 0xcb8e_267e_d5a2_fa01),
    ]
    .into_iter()
    .map(|(l, fp)| (l.to_owned(), fp))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn av1_stats_digests_are_the_benchmark_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let goldens = std::fs::read_to_string(root.join("benchmark/golden/paper-grid.txt"))
        .expect("read paper-grid goldens");
    let golden = |label: &str| {
        goldens
            .lines()
            .find_map(|l| l.strip_suffix(label)?.strip_suffix(' '))
            .unwrap_or_else(|| panic!("no golden for {label}"))
            .to_owned()
    };
    let expect = std::fs::read_to_string(corpus_dir().join("av1.expect")).expect("av1.expect");
    let stats: Vec<&str> = expect
        .lines()
        .filter_map(|l| l.split_once(" stats=0x").map(|(_, h)| h))
        .collect();
    assert_eq!(
        stats,
        [
            golden("AV1/baseline@lat600"),
            golden("AV1/Both,N>=0.5@lat600")
        ]
    );
}
