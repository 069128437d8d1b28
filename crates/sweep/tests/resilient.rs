//! Integration tests for the fault-tolerant sweep layer: journal exactness,
//! the exclusive journal lock, resume equivalence, deterministic fault
//! patterns, and deadline holes.
//!
//! None of these tests install the process-global policy — that is reserved
//! for the `figures` binary — so they cannot interfere with each other or
//! with other test binaries.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use subwarp_core::{
    DivergeOrder, FaultKind, FaultPlan, HierarchyConfig, InvariantLevel, MemBackendConfig,
    MemFaultConfig, SchedulerPolicy, SelectPolicy, SiConfig, SimError, SmConfig,
};
use subwarp_sweep::{
    cell_fingerprint, job_error_to_sim, lock_path_for, run_resilient, stats_to_units,
    units_to_stats, workload_hash, CompactPolicy, CompactStats, Journal, Sweep, SweepPolicy,
};
use subwarp_workloads::{figure9_workload, microbenchmark};

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("subwarp_sweep_{tag}_{}.jsonl", std::process::id()))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(lock_path_for(path));
}

/// A fast 2×2 grid (two small workloads, baseline + best-SI).
fn tiny_sweep() -> Sweep {
    let sm = SmConfig::turing_like();
    Sweep::new()
        .workload("toy", Arc::new(figure9_workload()))
        .workload("micro", Arc::new(microbenchmark(8, 4)))
        .config("base", sm.clone(), SiConfig::disabled())
        .config("si", sm, SiConfig::best())
}

#[test]
fn sweep_grid_shape_and_order() {
    let wl = Arc::new(figure9_workload());
    let sweep = Sweep::new()
        .workload("a", Arc::clone(&wl))
        .workload("b", wl)
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config("si", SmConfig::turing_like(), SiConfig::best());
    assert_eq!(sweep.len(), 4);
    let grid = sweep.run().unwrap();
    assert_eq!(grid.len(), 2);
    assert_eq!(grid[0].len(), 2);
    // Identical workload rows must produce identical cells.
    assert_eq!(grid[0], grid[1]);
}

#[test]
fn sweep_parallel_matches_serial() {
    let sweep = Sweep::new()
        .workload("toy", Arc::new(figure9_workload()))
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config("si", SmConfig::turing_like(), SiConfig::best());
    let serial = sweep.run_with_jobs(1).unwrap();
    let parallel = sweep.run_with_jobs(4).unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn policy_less_grid_fails_with_the_first_error_in_grid_order() {
    let sm = SmConfig::turing_like();
    let no_pbs = SmConfig {
        n_pbs: 0,
        ..sm.clone()
    };
    let no_slots = SmConfig {
        warp_slots_per_pb: 0,
        ..sm.clone()
    };
    let sweep = tiny_sweep()
        .config("no-pbs", no_pbs, SiConfig::disabled())
        .config("no-slots", no_slots, SiConfig::disabled());
    let first = SimError::InvalidConfig {
        what: "n_pbs must be at least 1".into(),
    };
    for workers in [1, 4] {
        assert_eq!(
            sweep.run_with_jobs(workers),
            Err(first.clone()),
            "{workers} workers"
        );
    }
}

#[test]
fn journal_roundtrip_restores_stats_exactly() {
    let path = temp_journal("roundtrip");
    cleanup(&path);

    // Real stats from a real run, so every counter field is exercised.
    let grid = run_resilient(&tiny_sweep(), &SweepPolicy::default());
    assert_eq!(grid.holes().len(), 0);
    let stats = grid.cell(0, 1).as_ref().unwrap().clone();

    {
        let j = Journal::open(&path).unwrap();
        j.record(0xDEAD_BEEF, "toy/si", &stats);
    }
    let j = Journal::open(&path).unwrap();
    assert_eq!(j.restored(), 1);
    // All-integer stats ⇒ the journaled copy is bit-for-bit the original.
    assert_eq!(j.lookup(0xDEAD_BEEF).unwrap(), stats);
    assert!(j.lookup(1).is_none());
    assert_eq!(j.len(), 1);
    drop(j);
    cleanup(&path);

    // The in-memory journal answers the same lookups, creates no file and
    // reports nothing on disk. (Other tests here only create
    // `subwarp_sweep_*` files, so those are left out of the comparison.)
    let files = || -> Vec<PathBuf> {
        [std::env::temp_dir(), PathBuf::from(".")]
            .iter()
            .flat_map(|dir| std::fs::read_dir(dir).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| !p.to_string_lossy().contains("subwarp_sweep_"))
            .collect()
    };
    let before = files();
    let mem = Journal::in_memory();
    assert!(mem.is_empty());
    mem.record(0xDEAD_BEEF, "toy/si", &stats);
    assert_eq!(mem.lookup(0xDEAD_BEEF).unwrap(), stats);
    assert!(mem.lookup(1).is_none());
    assert_eq!(mem.len(), 1);
    assert_eq!((mem.restored(), mem.disk_bytes()), (0, 0));
    // Compaction in memory runs the same selection with no file: keeping
    // all drops nothing, and a zero byte budget evicts the entry. Neither
    // pass has a file step, and both count.
    let kept = mem.compact(&CompactPolicy::keep_all()).unwrap();
    assert_eq!((kept.kept, kept.evicted), (1, 0));
    assert!(kept.before_bytes > 0 && kept.after_bytes == kept.before_bytes);
    let mut steps = 0;
    let tight = CompactPolicy { max_bytes: Some(0) };
    let cs = mem.compact_with_hook(&tight, &mut |_| steps += 1).unwrap();
    assert_eq!(
        cs,
        CompactStats {
            before_bytes: kept.before_bytes,
            after_bytes: 0,
            kept: 0,
            evicted: 1,
        }
    );
    assert_eq!((steps, mem.compactions(), mem.disk_bytes()), (0, 2, 0));
    assert!(mem.lookup(0xDEAD_BEEF).is_none(), "the entry was evicted");
    assert!(mem.is_empty());
    let created: Vec<PathBuf> = files()
        .into_iter()
        .filter(|p| !before.contains(p))
        .collect();
    assert!(created.is_empty(), "in-memory journal created {created:?}");

    // The codec takes back only what it writes: a stored exposed-stall
    // field that disagrees with its cycle cause is rejected.
    let (u, ch) = stats_to_units(&stats);
    assert_eq!(units_to_stats(&u, &ch), Some(stats));
    for field in [9, 11, 12] {
        let mut bad = u.clone();
        bad[field] += 1;
        assert_eq!(units_to_stats(&bad, &ch), None, "field {field}");
    }
}

#[test]
fn journal_lock_rejects_second_writer_naming_holder() {
    let path = temp_journal("lock");
    cleanup(&path);

    let first = Journal::open(&path).unwrap();
    let err = Journal::open(&path).expect_err("second open must fail while locked");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    let msg = err.to_string();
    // The error names the holder (this process) and the lock file.
    assert!(
        msg.contains(&std::process::id().to_string()),
        "error must name the holder pid: {msg}"
    );
    assert!(
        msg.contains(".lock"),
        "error must name the lock file: {msg}"
    );

    // Releasing the first journal releases the lock.
    drop(first);
    assert!(
        !lock_path_for(&path).exists(),
        "lock sentinel must be removed on drop"
    );
    let reopened = Journal::open(&path).unwrap();
    drop(reopened);
    cleanup(&path);
}

#[test]
fn journal_lock_steals_stale_lock_from_dead_pid() {
    let path = temp_journal("stale");
    cleanup(&path);

    // A lock left behind by a SIGKILLed writer: a PID that cannot exist.
    std::fs::write(lock_path_for(&path), "999999999\n").unwrap();
    let j = Journal::open(&path).expect("stale lock must be stolen");
    drop(j);
    cleanup(&path);
}

#[test]
fn resumed_sweep_equals_uninterrupted_sweep() {
    let path = temp_journal("resume");
    cleanup(&path);
    let sweep = tiny_sweep();

    let reference = run_resilient(&sweep, &SweepPolicy::default())
        .into_result()
        .unwrap();

    // "Interrupted" first leg: journal only part of the grid by running a
    // one-workload slice of the same sweep (fingerprints are content-based,
    // so they match the full sweep's first row). Scoped so the journal —
    // and with it the exclusive lock — is released before the resume leg.
    {
        let slice = {
            let sm = SmConfig::turing_like();
            Sweep::new()
                .workload("toy", Arc::new(figure9_workload()))
                .config("base", sm.clone(), SiConfig::disabled())
                .config("si", sm, SiConfig::best())
        };
        let journal = Arc::new(Journal::open(&path).unwrap());
        run_resilient(
            &slice,
            &SweepPolicy {
                journal: Some(Arc::clone(&journal)),
                ..SweepPolicy::default()
            },
        );
    }

    // Resume: reopen the journal and run the full sweep.
    let journal = Arc::new(Journal::open(&path).unwrap());
    assert_eq!(journal.restored(), 2);
    let resumed = run_resilient(
        &sweep,
        &SweepPolicy {
            journal: Some(journal),
            ..SweepPolicy::default()
        },
    )
    .into_result()
    .unwrap();

    assert_eq!(resumed, reference);
    // Restored cells are not journaled again: only the second row's two
    // cells were appended by the resume leg.
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, 4, "the resume re-recorded restored cells");
    cleanup(&path);
}

#[test]
fn journal_skips_corrupt_tail_and_stale_fingerprints() {
    let path = temp_journal("corrupt");
    let grid = run_resilient(&tiny_sweep(), &SweepPolicy::default());
    let stats = grid.cell(0, 0).as_ref().unwrap().clone();
    let mut later = grid.cell(0, 1).as_ref().unwrap().clone();
    later.cycles = 900;
    let complete = {
        let mut line = String::from("{\"v\":2,\"fp\":\"00000000000000ee\",\"label\":\"y\",");
        subwarp_sweep::push_stats_json(&mut line, &stats);
        line + "}"
    };
    // Torn tails from a killed run: truncated inside an array, torn right
    // after the label, and a complete record that lost only its newline.
    let tails = [
        ("{\"v\":2,\"fp\":\"00000000000000ff\",\"u\":[1,2", false),
        (
            "{\"v\":2,\"fp\":\"00000000000000ff\",\"label\":\"x\",",
            false,
        ),
        (complete.as_str(), true),
    ];
    for (tail, tail_is_complete) in tails {
        cleanup(&path);
        Journal::open(&path).unwrap().record(7, "toy/base", &stats);
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(tail.as_bytes()).unwrap();
        }
        // The torn tail must be skipped, not corrupt the load...
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.restored(), 1 + tail_is_complete as usize);
        assert!(j.lookup(7).is_some());
        assert!(j.lookup(0xff).is_none());
        // ...nor swallow the next record appended after it.
        j.record(9, "toy/later", &later);
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup(9), Some(later.clone()), "tail {tail:?}");
        assert!(j.lookup(0xff).is_none(), "tail {tail:?}");
        assert_eq!(j.lookup(0xee).is_some(), tail_is_complete, "tail {tail:?}");
        drop(j);
    }
    cleanup(&path);
}

#[test]
fn fingerprints_change_with_label_workload_and_config() {
    let wl = figure9_workload();
    let wh = workload_hash(&wl);
    let sm = SmConfig::turing_like();
    let base = cell_fingerprint("toy/base", wh, &sm, &SiConfig::disabled());
    assert_ne!(
        base,
        cell_fingerprint("toy/si", wh, &sm, &SiConfig::disabled())
    );
    assert_ne!(
        base,
        cell_fingerprint("toy/base", wh, &sm, &SiConfig::best())
    );
    assert_ne!(
        base,
        cell_fingerprint("toy/base", wh.wrapping_add(1), &sm, &SiConfig::disabled())
    );
    // Run knobs that cannot change a result do not reach the key...
    for same in [
        sm.clone().with_invariants(InvariantLevel::Full),
        sm.clone().with_invariants(InvariantLevel::Off),
        sm.clone().with_fast_forward(false),
        sm.clone().with_profile_phases(true),
    ] {
        assert_eq!(
            base,
            cell_fingerprint("toy/base", wh, &same, &SiConfig::disabled()),
            "{same:?}"
        );
    }
    // ...while every simulated field does, and every variant of every
    // enum: each config below differs from the base in one place, and all
    // of them key apart.
    type Edit<T> = (&'static str, fn(&mut T));
    let sm_edits: [Edit<SmConfig>; 29] = [
        ("n_sms", |c| c.n_sms += 1),
        ("shared_partitions", |c| c.shared_partitions ^= true),
        ("n_pbs", |c| c.n_pbs += 1),
        ("warp_slots_per_pb", |c| c.warp_slots_per_pb += 1),
        ("miss_latency", |c| c.miss_latency += 1),
        ("lsu_hit_latency", |c| c.lsu_hit_latency += 1),
        ("tex_hit_latency", |c| c.tex_hit_latency += 1),
        ("lds_latency", |c| c.lds_latency += 1),
        ("alu_latency", |c| c.alu_latency += 1),
        ("mufu_latency", |c| c.mufu_latency += 1),
        ("ifetch_l1_latency", |c| c.ifetch_l1_latency += 1),
        ("ifetch_miss_latency", |c| c.ifetch_miss_latency += 1),
        ("l0i.size_bytes", |c| c.l0i.size_bytes *= 2),
        ("l0i.line_bytes", |c| c.l0i.line_bytes *= 2),
        ("l0i.ways", |c| c.l0i.ways += 1),
        ("l1i.size_bytes", |c| c.l1i.size_bytes *= 2),
        ("l1i.line_bytes", |c| c.l1i.line_bytes *= 2),
        ("l1i.ways", |c| c.l1i.ways += 1),
        ("l1d.size_bytes", |c| c.l1d.size_bytes *= 2),
        ("l1d.line_bytes", |c| c.l1d.line_bytes *= 2),
        ("l1d.ways", |c| c.l1d.ways += 1),
        ("rt.base_cycles", |c| c.rt.base_cycles += 1),
        ("rt.cycles_per_node", |c| c.rt.cycles_per_node += 1),
        ("baseline_select_latency", |c| {
            c.baseline_select_latency += 1
        }),
        ("scheduler", |c| c.scheduler = SchedulerPolicy::Lrr),
        ("order=taken", |c| {
            c.diverge_order = DivergeOrder::TakenFirst
        }),
        ("order=random", |c| c.diverge_order = DivergeOrder::Random),
        ("order=hinted", |c| c.diverge_order = DivergeOrder::Hinted),
        ("max_cycles", |c| c.max_cycles += 1),
    ];
    let hier_edits: [Edit<HierarchyConfig>; 12] = [
        ("l2.size_bytes", |h| h.l2.size_bytes *= 2),
        ("l2.line_bytes", |h| h.l2.line_bytes *= 2),
        ("l2.ways", |h| h.l2.ways += 1),
        ("l2_banks", |h| h.l2_banks += 1),
        ("l2_hit_latency", |h| h.l2_hit_latency += 1),
        ("l2_bank_occupancy", |h| h.l2_bank_occupancy += 1),
        ("mshrs", |h| h.mshrs += 1),
        ("dram.channels", |h| h.dram.channels += 1),
        ("dram.row_bytes", |h| h.dram.row_bytes *= 2),
        ("dram.row_hit_latency", |h| h.dram.row_hit_latency += 1),
        ("dram.row_miss_latency", |h| h.dram.row_miss_latency += 1),
        ("dram.burst_cycles", |h| h.dram.burst_cycles += 1),
    ];
    let fault_edits: [Edit<MemFaultConfig>; 4] = [
        ("seed", |f| f.seed += 1),
        ("drop_per_mille", |f| f.drop_per_mille += 1),
        ("delay_per_mille", |f| f.delay_per_mille += 1),
        ("delay_cycles", |f| f.delay_cycles += 1),
    ];
    let si_edits: [Edit<SiConfig>; 8] = [
        ("enabled", |s| s.enabled ^= true),
        ("policy=any", |s| s.policy = SelectPolicy::AnyStalled),
        ("policy=all", |s| s.policy = SelectPolicy::AllStalled),
        ("yield_enabled", |s| s.yield_enabled ^= true),
        ("yield_threshold", |s| s.yield_threshold += 1),
        ("max_subwarps", |s| s.max_subwarps -= 1),
        ("switch_latency", |s| s.switch_latency += 1),
        ("slot_limited", |s| s.slot_limited ^= true),
    ];
    let hier = HierarchyConfig::turing_like();
    let faulty = |fault: MemFaultConfig, inner: MemBackendConfig| MemBackendConfig::Faulty {
        fault,
        inner: Box::new(inner),
    };
    let mut backends = vec![
        (
            "hier".to_owned(),
            MemBackendConfig::Hierarchical(hier.clone()),
        ),
        (
            "faulty(fixed)".to_owned(),
            faulty(MemFaultConfig::default(), MemBackendConfig::Fixed),
        ),
        (
            "faulty(hier)".to_owned(),
            faulty(
                MemFaultConfig::default(),
                MemBackendConfig::Hierarchical(hier.clone()),
            ),
        ),
        (
            "faulty(faulty(fixed))".to_owned(),
            faulty(
                MemFaultConfig::default(),
                faulty(MemFaultConfig::default(), MemBackendConfig::Fixed),
            ),
        ),
    ];
    for (name, edit) in hier_edits {
        let mut h = hier.clone();
        edit(&mut h);
        backends.push((format!("hier.{name}"), MemBackendConfig::Hierarchical(h)));
    }
    for (name, edit) in fault_edits {
        let mut f = MemFaultConfig::default();
        edit(&mut f);
        backends.push((format!("fault.{name}"), faulty(f, MemBackendConfig::Fixed)));
    }

    let si = SiConfig::disabled();
    let mut cases = vec![("base".to_owned(), sm.clone(), si)];
    for (name, edit) in sm_edits {
        let mut c = sm.clone();
        edit(&mut c);
        cases.push((name.to_owned(), c, si));
    }
    for (name, backend) in backends {
        cases.push((name, sm.clone().with_mem_backend(backend), si));
    }
    for (name, edit) in si_edits {
        let mut s = si;
        edit(&mut s);
        cases.push((format!("si.{name}"), sm.clone(), s));
    }
    let mut seen = std::collections::HashMap::new();
    for (name, sm, si) in &cases {
        let fp = cell_fingerprint("toy/base", wh, sm, si);
        if let Some(other) = seen.insert(fp, name) {
            panic!("`{name}` keys like `{other}`");
        }
    }
    assert_eq!(seen.len(), 1 + 29 + 4 + 12 + 4 + 8);
}

#[test]
fn fault_plan_holes_are_identical_serial_and_parallel() {
    let sweep = tiny_sweep();
    let faults = FaultPlan::none(42)
        .with_target("toy/si", FaultKind::Panic)
        .with_target("micro/base", FaultKind::Error);
    let run = |workers: usize| {
        run_resilient(
            &sweep,
            &SweepPolicy {
                workers: Some(workers),
                faults: Some(faults.clone()),
                ..SweepPolicy::default()
            },
        )
    };
    let serial = run(1);
    let parallel = run(4);

    let pattern = |g: &subwarp_sweep::PartialGrid| {
        g.rows()
            .iter()
            .flat_map(|row| row.iter().map(|c| c.is_ok()))
            .collect::<Vec<_>>()
    };
    assert_eq!(pattern(&serial), pattern(&parallel));
    assert_eq!(serial.holes().len(), 2);
    assert_eq!(serial.completed(), 2);

    // The Ok payloads agree exactly.
    for (s, p) in serial
        .rows()
        .into_iter()
        .flatten()
        .zip(parallel.rows().into_iter().flatten())
    {
        if let (Ok(a), Ok(b)) = (s, p) {
            assert_eq!(a, b);
        }
    }

    // Holes carry their labels through to the SimError vocabulary.
    let hole_labels: Vec<String> = parallel.holes().iter().map(|h| h.label.clone()).collect();
    assert!(hole_labels.contains(&"toy/si".to_string()));
    assert!(hole_labels.contains(&"micro/base".to_string()));
}

#[test]
fn transient_faults_clear_under_retry() {
    let sweep = tiny_sweep();
    // Rate-based (targeted overrides never clear): every cell's first
    // attempt fails, every second attempt succeeds.
    let faults = FaultPlan {
        error_per_mille: 1000,
        clears_after: Some(1),
        ..FaultPlan::none(42)
    };
    let grid = run_resilient(
        &sweep,
        &SweepPolicy {
            workers: Some(2),
            max_attempts: 3,
            faults: Some(faults),
            ..SweepPolicy::default()
        },
    );
    assert_eq!(
        grid.holes().len(),
        0,
        "retry must clear the transient fault"
    );
}

#[test]
fn deadline_turns_hung_cells_into_timeout_holes() {
    let sweep = tiny_sweep();
    let faults = FaultPlan::none(42).with_target("micro/si", FaultKind::Delay { ms: 30_000 });
    let grid = run_resilient(
        &sweep,
        &SweepPolicy {
            workers: Some(2),
            deadline: Some(Duration::from_millis(400)),
            faults: Some(faults),
            ..SweepPolicy::default()
        },
    );
    let holes = grid.holes();
    assert_eq!(holes.len(), 1);
    assert_eq!(holes[0].label, "micro/si");
    let e = job_error_to_sim(grid.cell(1, 1).as_ref().unwrap_err().clone());
    match e {
        SimError::Timeout {
            workload,
            deadline_ms,
        } => {
            assert_eq!(workload, "micro/si");
            assert_eq!(deadline_ms, 400);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}
