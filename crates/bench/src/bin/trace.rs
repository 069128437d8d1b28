//! Trace tooling: record, replay, import, and validate serialized
//! workloads.
//!
//! ```text
//! trace record <workload> --out FILE
//! trace replay FILE [--verify-against <workload>]
//! trace import FILE [--out FILE] [--lossy]
//! trace validate FILE... [--write-expect]
//!
//! workloads (the simulate binary's keys, resolved by `subwarp_serve::spec`,
//! plus fuzz seeds, which only this tool knows):
//!   trace:<NAME>          a suite trace (AV1, BFV1, Coll1, ...)
//!   micro:<SIZE>[@ITERS]  the Figure 11 microbenchmark [default: 16 iterations]
//!   toy                   the Figure 9 two-subwarp toy
//!   file:<PATH>           a serialized subwarp-trace file
//!   fuzz:<SEED>           the differential fuzzer's generated kernel
//! ```
//!
//! A bad workload key is a usage error (exit 2) with the daemon's message.
//!
//! `record` serializes a built-in workload to the versioned binary trace
//! format. `replay` loads a trace and prints its replay digest (reference
//! configurations × cycles/instructions/image/stats hashes); with
//! `--verify-against` it additionally rebuilds the named workload in
//! process and asserts the replayed run is bit-identical. `import` parses
//! an Accel-Sim-subset text trace (strict by default, `--lossy` to
//! substitute NOPs for out-of-subset opcodes and report them). `validate`
//! replays each `.swt` file and diffs its digest against the sibling
//! `.expect` file — the frozen-corpus CI check; `--write-expect`
//! (re)generates the expectations instead.

use std::process::exit;
use std::sync::Arc;
use subwarp_core::{Simulator, Workload};
use subwarp_trace as t;

fn usage() -> ! {
    eprintln!(
        "usage: trace record <workload> --out FILE\n\
         \x20      trace replay FILE [--verify-against <workload>]\n\
         \x20      trace import FILE [--out FILE] [--lossy]\n\
         \x20      trace validate FILE... [--write-expect]\n\
         workloads: trace:NAME | micro:SIZE[@ITERS] | toy | file:PATH | fuzz:SEED"
    );
    exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// Builds `fuzz:SEED` itself and resolves every other key through the
/// daemon's resolver; a bad key exits 2 with its message.
fn build_workload(key: &str) -> Arc<Workload> {
    let built = match key.strip_prefix("fuzz:") {
        Some(seed) => seed
            .parse()
            .map(|seed| Arc::new(subwarp_fuzz::random_workload(seed)))
            .map_err(|_| format!("bad fuzz seed `{seed}`")),
        None => subwarp_serve::spec::resolve_workload(key).map(|(wl, _)| wl),
    };
    built.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    })
}

fn read_file(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "record" => record(&args[1..]),
        "replay" => replay(&args[1..]),
        "import" => import(&args[1..]),
        "validate" => validate(&args[1..]),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown subcommand `{other}`");
            usage()
        }
    }
}

fn record(args: &[String]) {
    let mut key = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            other if !other.starts_with('-') && key.is_none() => key = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let (Some(key), Some(out)) = (key, out) else {
        usage()
    };
    let wl = build_workload(&key);
    let bytes = t::encode_workload(&wl);
    if let Err(e) = std::fs::write(&out, &bytes) {
        fail(format!("cannot write `{out}`: {e}"));
    }
    println!(
        "recorded `{}` -> {out}: {} bytes, format v{}, fingerprint {:#018x}",
        wl.name,
        bytes.len(),
        t::FORMAT_VERSION,
        t::trace_fingerprint(&bytes)
    );
}

fn replay(args: &[String]) {
    let mut file = None;
    let mut verify = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verify-against" => verify = it.next().cloned(),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let bytes = read_file(&file);
    let wl = match t::decode_workload(&bytes) {
        Ok(wl) => wl,
        Err(e) => fail(e),
    };
    match t::workload_digest(&bytes, &wl) {
        Ok(digest) => print!("{digest}"),
        Err(e) => fail(e),
    }

    if let Some(key) = verify {
        let direct = build_workload(&key);
        if *direct != wl {
            fail(format!(
                "replayed workload differs structurally from `{key}`"
            ));
        }
        for (label, sm, si) in t::digest_configs() {
            let sim = Simulator::new(sm, si);
            let a = sim.run_with_memory(&direct);
            let b = sim.run_with_memory(&wl);
            match (a, b) {
                (Ok((sa, ia)), Ok((sb, ib))) => {
                    if sa != sb || ia != ib {
                        fail(format!(
                            "config {label}: replayed run diverges from `{key}`"
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        println!("verified: replay is bit-identical to `{key}` under every digest config");
    }
}

fn import(args: &[String]) {
    let mut file = None;
    let mut out = None;
    let mut mode = t::ImportMode::Strict;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--lossy" => mode = t::ImportMode::Lossy,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let text = String::from_utf8(read_file(&file))
        .unwrap_or_else(|_| fail(format!("`{file}` is not UTF-8 text")));
    let imported = match t::import_text(&text, mode) {
        Ok(i) => i,
        Err(e) => fail(e),
    };
    let r = &imported.report;
    println!(
        "imported kernel `{}`: {} instruction(s), {} warp(s), \
         {} synthesized scoreboard(s), {} address table(s)",
        r.kernel, r.insts, r.warps, r.synthesized_wr_sb, r.address_tables
    );
    for note in &r.notes {
        println!("  note: {note}");
    }
    for (line, what) in &r.skipped {
        println!("  dropped (line {line}): {what}");
    }
    if !r.is_exact() {
        println!(
            "  lossy import: {} construct(s) outside the subset were dropped",
            r.skipped.len()
        );
    }
    if let Some(out) = out {
        let bytes = t::encode_workload(&imported.workload);
        if let Err(e) = std::fs::write(&out, &bytes) {
            fail(format!("cannot write `{out}`: {e}"));
        }
        println!(
            "wrote {out}: {} bytes, fingerprint {:#018x}",
            bytes.len(),
            t::trace_fingerprint(&bytes)
        );
    }
}

fn expect_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(file).with_extension("expect")
}

fn validate(args: &[String]) {
    let mut files = Vec::new();
    let mut write = false;
    for a in args {
        match a.as_str() {
            "--write-expect" => write = true,
            other if !other.starts_with('-') => files.push(other.to_owned()),
            _ => usage(),
        }
    }
    if files.is_empty() {
        usage()
    }
    let mut failures = 0usize;
    for file in &files {
        let bytes = read_file(file);
        let digest = match t::replay_digest(&bytes) {
            Ok(d) => d,
            Err(e) => {
                println!("FAIL {file}: {e}");
                failures += 1;
                continue;
            }
        };
        // Byte-identity: decoding and re-encoding must reproduce the file.
        let decoded = t::decode_workload(&bytes).expect("digest already decoded this");
        if t::encode_workload(&decoded) != bytes {
            println!("FAIL {file}: decode -> re-encode is not byte-identical");
            failures += 1;
            continue;
        }
        let expect = expect_path(file);
        if write {
            if let Err(e) = std::fs::write(&expect, &digest) {
                fail(format!("cannot write `{}`: {e}", expect.display()));
            }
            println!("wrote {}", expect.display());
            continue;
        }
        match std::fs::read_to_string(&expect) {
            Ok(want) if want == digest => println!("ok   {file}"),
            Ok(want) => {
                println!("FAIL {file}: digest drifted from {}", expect.display());
                for (g, w) in digest.lines().zip(want.lines()) {
                    if g != w {
                        println!("  got:  {g}");
                        println!("  want: {w}");
                    }
                }
                failures += 1;
            }
            Err(e) => {
                println!("FAIL {file}: cannot read {}: {e}", expect.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} trace(s) failed validation", files.len());
        exit(1);
    }
}
