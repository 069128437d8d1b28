//! Crash-consistency tests for journal compaction: a crash at *every*
//! injected [`CompactStep`] must leave the on-disk journal either the old
//! bytes or the new bytes — never a torn hybrid — and a reopened journal
//! must re-serve the completed prefix byte-identically.
//!
//! The crash is injected by a hook that unwinds out of the pass (caught
//! here), which leaves the disk exactly as a `kill -9` at that instant
//! would, modulo the page cache; the process-level `kill -9` variant runs
//! in the CI `cluster-smoke` job via `SUBWARP_COMPACT_CRASH`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use subwarp_core::RunStats;
use subwarp_sweep::{lock_path_for, CompactPolicy, CompactStep, Journal};

struct TempJournal {
    path: PathBuf,
}

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        let path = std::env::temp_dir().join(format!(
            "subwarp_compact_{tag}_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(lock_path_for(&path));
        TempJournal { path }
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(lock_path_for(&self.path));
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".compact");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
    }
}

fn stats_for(i: u64) -> RunStats {
    RunStats {
        cycles: 1000 + i,
        instructions: 10 * i,
        idle_cycles: i % 7,
        ..RunStats::default()
    }
}

/// Seeds a journal with `n` records (fingerprints `1..=n`), re-recording
/// the first few so the file contains superseded duplicate lines.
fn seed_journal(path: &PathBuf, n: u64) -> HashMap<u64, RunStats> {
    let j = Journal::open(path).unwrap();
    let mut expect = HashMap::new();
    for fp in 1..=n {
        j.record(fp, &format!("cell-{fp}"), &stats_for(fp));
        expect.insert(fp, stats_for(fp));
    }
    // Supersede a prefix with updated stats: compaction must keep only the
    // last write for each fingerprint.
    for fp in 1..=n.min(3) {
        let s = stats_for(fp + 500);
        j.record(fp, &format!("cell-{fp}"), &s);
        expect.insert(fp, s);
    }
    expect
}

#[test]
fn compaction_drops_superseded_lines_and_preserves_every_record() {
    let t = TempJournal::new("basic");
    let expect = seed_journal(&t.path, 8);
    let before = std::fs::read_to_string(&t.path).unwrap();
    assert_eq!(before.lines().count(), 8 + 3, "3 superseded duplicates");

    let j = Journal::open(&t.path).unwrap();
    let stats = j.compact(&CompactPolicy::keep_all()).unwrap();
    assert_eq!(stats.kept, 8);
    assert_eq!(stats.evicted, 0);
    assert!(stats.after_bytes < stats.before_bytes);

    let after = std::fs::read_to_string(&t.path).unwrap();
    assert_eq!(after.lines().count(), 8, "one line per live record");
    // Every surviving line is byte-identical to a line the original writer
    // produced (compaction never rewrites record bytes).
    for line in after.lines() {
        assert!(before.contains(line), "compaction must not rewrite lines");
    }
    // The journal still serves every record exactly, through the same
    // handle and through a fresh reopen.
    for (fp, s) in &expect {
        assert_eq!(j.lookup(*fp).as_ref(), Some(s));
    }
    drop(j);
    let j = Journal::open(&t.path).unwrap();
    assert_eq!(j.restored(), 8);
    for (fp, s) in &expect {
        assert_eq!(j.lookup(*fp).as_ref(), Some(s));
    }
}

#[test]
fn crash_at_every_step_leaves_old_or_new_journal_never_torn() {
    for step in CompactStep::ALL {
        let t = TempJournal::new(&format!("crash_{}", step.name()));
        let expect = seed_journal(&t.path, 6);
        let old_bytes = std::fs::read(&t.path).unwrap();

        // Compute the expected post-compaction bytes from an identical
        // twin journal (same seed sequence → same content).
        let twin = TempJournal::new(&format!("crash_twin_{}", step.name()));
        seed_journal(&twin.path, 6);
        {
            let j = Journal::open(&twin.path).unwrap();
            j.compact(&CompactPolicy::keep_all()).unwrap();
        }
        let new_bytes = std::fs::read(&twin.path).unwrap();
        assert_ne!(old_bytes, new_bytes);

        // Crash (unwind) at the injected step.
        {
            let j = Journal::open(&t.path).unwrap();
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                j.compact_with_hook(&CompactPolicy::keep_all(), &mut |s| {
                    if s == step {
                        panic!("injected crash at {}", s.name());
                    }
                })
            }));
            assert!(crashed.is_err(), "hook must fire at {}", step.name());
            // The crashed instance is dead; drop it without further use.
        }

        // The on-disk journal is exactly the old or the new bytes.
        let disk = std::fs::read(&t.path).unwrap();
        assert!(
            disk == old_bytes || disk == new_bytes,
            "torn journal after crash at {}: {} bytes (old {} / new {})",
            step.name(),
            disk.len(),
            old_bytes.len(),
            new_bytes.len()
        );

        // Restart: every completed record re-serves byte-identically.
        let j = Journal::open(&t.path).unwrap();
        assert_eq!(j.restored(), 6, "crash at {} lost records", step.name());
        for (fp, s) in &expect {
            assert_eq!(
                j.lookup(*fp).as_ref(),
                Some(s),
                "record {fp} differs after crash at {}",
                step.name()
            );
        }
        // And the journal still accepts appends + a clean compaction.
        j.record(999, "post-crash", &stats_for(999));
        let cs = j.compact(&CompactPolicy::keep_all()).unwrap();
        assert_eq!(cs.kept, 7);
        drop(j);
        let j = Journal::open(&t.path).unwrap();
        assert_eq!(j.restored(), 7);
    }
}

/// The summed length of the last line each of `fps` has in the journal
/// file, newlines included: the bytes those records occupy once compacted.
fn line_bytes(path: &PathBuf, fps: &[u64]) -> u64 {
    let text = std::fs::read_to_string(path).unwrap();
    fps.iter()
        .map(|fp| {
            let key = format!("\"fp\":\"{fp:016x}\"");
            let line = text.lines().rfind(|l| l.contains(&key)).unwrap();
            line.len() as u64 + 1
        })
        .sum()
}

#[test]
fn lru_eviction_bounds_bytes_and_prefers_recently_used() {
    let t = TempJournal::new("lru");
    seed_journal(&t.path, 10);
    let j = Journal::open(&t.path).unwrap();
    // Touch 2, 4, 6, 8, 10 so the odd fingerprints are the LRU victims.
    for fp in [2u64, 4, 6, 8, 10] {
        assert!(j.lookup(fp).is_some());
    }
    let cap = line_bytes(&t.path, &[2, 4, 6, 8, 10]);
    let stats = j
        .compact(&CompactPolicy {
            max_bytes: Some(cap),
        })
        .unwrap();
    assert_eq!(stats.kept, 5);
    assert_eq!(stats.evicted, 5);
    assert_eq!(stats.after_bytes, cap);
    for fp in [2u64, 4, 6, 8, 10] {
        assert!(j.lookup(fp).is_some(), "recently-used {fp} must survive");
    }
    for fp in [1u64, 3, 5, 7, 9] {
        assert!(j.lookup(fp).is_none(), "LRU victim {fp} must be evicted");
    }
    // Recency order survives the rewrite: reopen and evict down to 2 —
    // the two entries touched last (8 and 10 in the loop above... after
    // the surviving lookups above bumped 2,4,6,8,10 again in that order,
    // the most recent two are 8 and 10).
    drop(j);
    let j = Journal::open(&t.path).unwrap();
    assert_eq!(j.restored(), 5);
    let cap = line_bytes(&t.path, &[8, 10]);
    let stats = j
        .compact(&CompactPolicy {
            max_bytes: Some(cap),
        })
        .unwrap();
    assert_eq!((stats.kept, stats.evicted), (2, 3));
    assert!(j.lookup(8).is_some());
    assert!(j.lookup(10).is_some());
}

/// The bytes one `stats_for(fp)` record occupies in a journal file.
fn one_line_bytes(fp: u64) -> u64 {
    let t = TempJournal::new(&format!("one_line_{fp}"));
    let j = Journal::open(&t.path).unwrap();
    j.record(fp, &format!("cell-{fp}"), &stats_for(fp));
    j.disk_bytes()
}

#[test]
fn bounded_journals_evict_least_recently_used_on_record() {
    let line = one_line_bytes(100);
    let bound = 10 * line;
    let t = TempJournal::new("bounded");
    let disk = Journal::open(&t.path).unwrap().with_max_bytes(bound);
    let mem = Journal::in_memory().with_max_bytes(bound);
    // Fingerprint 1 is looked up after every record, so it is never the
    // least recently used entry and must outlive all its contemporaries.
    let mut passes = 0;
    for fp in 1..=60u64 {
        for j in [&disk, &mem] {
            let before = j.len();
            j.record(fp, &format!("cell-{fp}"), &stats_for(fp));
            if j.len() <= before {
                passes += 1;
            }
            assert!(j.lookup(fp).is_some(), "the newest entry {fp} survives");
            assert!(j.lookup(1).is_some(), "the hot entry survives record {fp}");
        }
        assert!(
            disk.disk_bytes() <= bound,
            "record {fp}: {} bytes on disk over the bound {bound}",
            disk.disk_bytes()
        );
        // Same entries, same measure: the in-memory store holds what the
        // file does.
        assert_eq!(mem.len(), disk.len(), "record {fp}");
        assert!(mem.len() as u64 * (line - 8) <= bound, "record {fp}");
        // A pass counts exactly when a record evicted something.
        assert_eq!(disk.compactions() + mem.compactions(), passes);
    }
    assert!(disk.compactions() >= 4, "passes: {}", disk.compactions());
    assert_eq!(disk.compactions(), mem.compactions());
    // Evicting to half the bound amortizes: far fewer passes than records.
    assert!(disk.compactions() < 60 / 3);
    for j in [&disk, &mem] {
        let held: Vec<u64> = (1..=60).filter(|&fp| j.lookup(fp).is_some()).collect();
        // The survivors are the hot entry and the newest records.
        let newest = &held[1..];
        assert_eq!(held[0], 1);
        assert_eq!(
            newest,
            &((61 - newest.len() as u64)..=60).collect::<Vec<_>>()[..]
        );
    }
}

#[test]
fn a_reopened_bounded_journal_restores_exactly_the_survivors() {
    let line = one_line_bytes(100);
    let t = TempJournal::new("bounded_reopen");
    let survivors: Vec<u64> = {
        let j = Journal::open(&t.path).unwrap().with_max_bytes(8 * line);
        for fp in 1..=30u64 {
            j.record(fp, &format!("cell-{fp}"), &stats_for(fp));
        }
        assert!(j.compactions() > 0);
        (1..=30).filter(|&fp| j.lookup(fp).is_some()).collect()
    };
    assert!(!survivors.is_empty() && survivors.len() < 30);
    let j = Journal::open(&t.path).unwrap();
    assert_eq!(j.restored(), survivors.len());
    for fp in 1..=30u64 {
        let want = survivors.contains(&fp).then(|| stats_for(fp));
        assert_eq!(j.lookup(fp), want, "fingerprint {fp}");
    }
    drop(j);
    // A bound the reopened store is already over evicts at once, keeping
    // the most recently used entries.
    let j = Journal::open(&t.path).unwrap().with_max_bytes(2 * line);
    assert_eq!(j.compactions(), 1);
    assert!(j.disk_bytes() <= line, "{} bytes left", j.disk_bytes());
    assert_eq!(j.len(), 1);
    assert!(j.lookup(*survivors.last().unwrap()).is_some());
    // A bound it is under evicts nothing.
    drop(j);
    let j = Journal::open(&t.path).unwrap().with_max_bytes(2 * line);
    assert_eq!((j.compactions(), j.len()), (0, 1));
}

#[test]
fn byte_budget_eviction_shrinks_under_the_cap() {
    let t = TempJournal::new("bytes");
    seed_journal(&t.path, 12);
    let j = Journal::open(&t.path).unwrap();
    let full = j.disk_bytes();
    let cap = full / 3;
    let stats = j
        .compact(&CompactPolicy {
            max_bytes: Some(cap),
        })
        .unwrap();
    assert!(
        stats.after_bytes <= cap,
        "after {} > cap {cap}",
        stats.after_bytes
    );
    assert_eq!(j.disk_bytes(), stats.after_bytes);
    assert!(stats.evicted > 0);
    assert!(stats.kept > 0, "a third of the journal still fits records");
}

#[test]
fn appends_after_compaction_land_in_the_new_file() {
    let t = TempJournal::new("append_after");
    seed_journal(&t.path, 4);
    let j = Journal::open(&t.path).unwrap();
    j.compact(&CompactPolicy::keep_all()).unwrap();
    // The append handle was re-pointed at the new inode: this record must
    // be durable in the renamed file, not lost in the unlinked original.
    j.record(77, "after-compact", &stats_for(77));
    drop(j);
    let j = Journal::open(&t.path).unwrap();
    assert_eq!(j.restored(), 5);
    assert_eq!(j.lookup(77), Some(stats_for(77)));
    assert_eq!(j.compactions(), 0, "fresh handle counts its own passes");
}

#[test]
fn compaction_is_idempotent_when_nothing_is_superseded() {
    let t = TempJournal::new("idempotent");
    seed_journal(&t.path, 5);
    let j = Journal::open(&t.path).unwrap();
    j.compact(&CompactPolicy::keep_all()).unwrap();
    let once = std::fs::read(&t.path).unwrap();
    let stats = j.compact(&CompactPolicy::keep_all()).unwrap();
    assert_eq!(stats.before_bytes, stats.after_bytes);
    assert_eq!(std::fs::read(&t.path).unwrap(), once);
    assert_eq!(j.compactions(), 2);
}
