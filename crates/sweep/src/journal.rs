//! The JSONL checkpoint journal and its exclusive lock, over the exact
//! all-integer `RunStats` codec of `subwarp-core`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use subwarp_core::{stats_to_units, units_to_stats, RunStats};

use crate::fingerprint::JOURNAL_VERSION;
use crate::json::{append_line, create_parent_dir, json_escape, open_jsonl, Value};

/// Appends `"u":[..],"ch":[..]`, the exact integer encoding of `stats`
/// ([`stats_to_units`]), to `out`. Journal lines and wire replies both
/// carry a result through this one writer, so a result re-served from the
/// journal is byte-identical to the reply its simulation produced.
pub fn push_stats_json(out: &mut String, stats: &RunStats) {
    let (u, ch) = stats_to_units(stats);
    for (key, ints) in [("\"u\":[", &u), (",\"ch\":[", &ch)] {
        out.push_str(key);
        for (i, x) in ints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{x}");
        }
        out.push(']');
    }
}

/// Reads back what [`push_stats_json`] wrote, from a parsed journal line.
/// `None` when either array is missing, holds a non-integer, or
/// does not decode ([`units_to_stats`]).
fn stats_from_json(v: &Value) -> Option<RunStats> {
    let ints = |key: &str| -> Option<Vec<u64>> {
        v.get(key)?.as_arr()?.iter().map(Value::as_u64).collect()
    };
    units_to_stats(&ints("u")?, &ints("ch")?)
}

// ------------------------------------------------------------------- lock

/// Exclusive journal lock: a `create_new` sentinel beside the journal
/// holding the writer's PID. Removed on drop; survives `kill -9` as a
/// *stale* lock, which the next opener detects (the recorded PID no longer
/// exists) and steals.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether a PID currently names a live process. Uses `kill(pid, 0)`:
/// success or `EPERM` means alive; `ESRCH` means gone. On non-unix targets
/// liveness cannot be probed, so locks are conservatively treated as held.
fn pid_alive(pid: u32) -> bool {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        if unsafe { kill(pid as i32, 0) } == 0 {
            return true;
        }
        // ESRCH (3) = no such process; anything else (EPERM, ...) means the
        // process exists but is not ours.
        std::io::Error::last_os_error().raw_os_error() != Some(3)
    }
    #[cfg(not(unix))]
    {
        let _ = pid;
        true
    }
}

/// The sentinel path guarding `journal_path`.
pub fn lock_path_for(journal_path: &Path) -> PathBuf {
    let mut p = journal_path.as_os_str().to_owned();
    p.push(".lock");
    PathBuf::from(p)
}

fn acquire_lock(journal_path: &Path) -> std::io::Result<LockGuard> {
    let lock_path = lock_path_for(journal_path);
    // Two iterations: one to detect a stale lock, one to (re)claim it. A
    // second AlreadyExists after a steal means we lost the race to another
    // live process — fail fast like any other contention.
    for stole in [false, true] {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                let _ = f.flush();
                return Ok(LockGuard { path: lock_path });
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&lock_path).unwrap_or_default();
                let holder_pid: Option<u32> = holder.trim().parse().ok();
                let stale = matches!(holder_pid, Some(p) if !pid_alive(p));
                if stale && !stole {
                    // Left behind by a SIGKILLed writer: steal and retry.
                    let _ = std::fs::remove_file(&lock_path);
                    continue;
                }
                let holder = if holder.trim().is_empty() {
                    "<unknown>".to_owned()
                } else {
                    format!("process {}", holder.trim())
                };
                return Err(std::io::Error::new(
                    ErrorKind::WouldBlock,
                    format!(
                        "journal {} is locked by {holder} (lock file {}); two writers \
                         appending the same journal would interleave — wait for the \
                         holder or remove the lock file if it is truly gone",
                        journal_path.display(),
                        lock_path.display()
                    ),
                ));
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("lock loop always returns")
}

// ---------------------------------------------------------------- journal

/// An append-only JSONL checkpoint journal of completed simulation results,
/// keyed by content fingerprint.
///
/// One line per completed cell:
///
/// ```json
/// {"v":2,"fp":"0123456789abcdef","label":"AV1/Both,N>=0.5","u":[..44 ints..],"ch":[..]}
/// ```
///
/// `v` is [`JOURNAL_VERSION`], `fp` the
/// [`cell_fingerprint`](crate::cell_fingerprint) in hex, `u` the 44
/// fixed-order integer fields of `RunStats`, `ch` the per-channel DRAM
/// busy-cycle vector. Opening a journal loads every well-formed line of the
/// current version (last write wins) and positions the file for appending.
/// Lines of another version are keyed by fingerprints no current key can
/// equal: they are skipped, and when there were any, `open` rewrites the
/// file without them through a [`CompactPolicy::keep_all`] compaction
/// before returning, so they are parsed once, not on every restart. That
/// rewrite is a pass on the new handle and counts as one of its
/// [`compactions`](Journal::compactions). Each [`record`](Journal::record)
/// is flushed immediately so a killed writer loses only in-flight cells.
///
/// Opening takes an **exclusive lock** (a `<path>.lock` sentinel recording
/// the holder's PID): a second simultaneous writer fails fast with an error
/// naming the holder instead of silently interleaving appends. A lock left
/// behind by a `kill -9` is detected as stale (its PID is gone) and stolen.
///
/// [`Journal::in_memory`] keeps the same entries and recency clock with no
/// file and no lock: the `subwarp-serve` daemon's store when it runs
/// without `--store`. Either backing can be bounded
/// ([`with_max_bytes`](Journal::with_max_bytes)): `record` then evicts
/// least-recently-used entries itself, through a compaction pass on disk
/// and by dropping them in memory.
#[derive(Debug)]
pub struct Journal {
    restored: usize,
    state: Mutex<JournalState>,
    compactions: AtomicU64,
    /// Live bytes past which `record` evicts; `None` keeps every entry.
    max_bytes: Option<u64>,
    /// The backing file; `None` for an in-memory journal.
    disk: Option<Disk>,
}

/// The file half of an opened [`Journal`].
#[derive(Debug)]
struct Disk {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    // Held for the journal's lifetime; releases (removes) the sentinel on
    // drop.
    _lock: LockGuard,
}

/// One journaled result.
#[derive(Debug)]
struct Entry {
    stats: RunStats,
    label: String,
    /// Length of its journal line, newline included.
    bytes: u64,
    /// Recency clock value at its last lookup or record (higher = more
    /// recent): the LRU eviction order.
    touch: u64,
}

/// In-memory journal state, guarded by one mutex so a compaction snapshot
/// is always a superset of every record whose disk append has completed
/// ([`Journal::record`] inserts here *before* appending).
#[derive(Debug, Default)]
struct JournalState {
    /// The live entry per fingerprint (last write wins).
    entries: HashMap<u64, Entry>,
    /// Monotonic recency clock.
    clock: u64,
    /// Sum of the entries' `bytes`: the size a bound holds down, and the
    /// size of the file a compaction writes.
    bytes: u64,
}

impl JournalState {
    fn insert(&mut self, fp: u64, label: &str, stats: RunStats, bytes: u64) {
        self.clock += 1;
        let entry = Entry {
            stats,
            label: label.to_owned(),
            bytes,
            touch: self.clock,
        };
        self.bytes += bytes;
        if let Some(old) = self.entries.insert(fp, entry) {
            self.bytes -= old.bytes;
        }
    }

    /// The eviction choice both backings share: the live fingerprints,
    /// oldest-touched first, split into the least-recently-used victims
    /// that must go for the rest to fit in `max_bytes`, and the survivors.
    fn select(&self, max_bytes: Option<u64>) -> (Vec<u64>, Vec<u64>) {
        let mut by_touch: Vec<(u64, u64)> =
            self.entries.iter().map(|(&fp, e)| (e.touch, fp)).collect();
        by_touch.sort_unstable();
        let mut victims: Vec<u64> = by_touch.into_iter().map(|(_, fp)| fp).collect();
        let mut bytes = self.bytes;
        let mut first_kept = 0;
        while max_bytes.is_some_and(|cap| bytes > cap) {
            bytes -= self.entries[&victims[first_kept]].bytes;
            first_kept += 1;
        }
        let kept = victims.split_off(first_kept);
        (victims, kept)
    }
}

/// Renders one journal line (no trailing newline). Records and compaction
/// both write through it, so an entry's size has one measure, and a
/// survivor that compaction re-renders is byte-identical to the line its
/// record appended (the units codec is exact).
fn render_line(fp: u64, label: &str, stats: &RunStats) -> String {
    let mut line = format!(
        "{{\"v\":{JOURNAL_VERSION},\"fp\":\"{fp:016x}\",\"label\":\"{}\",",
        json_escape(label)
    );
    push_stats_json(&mut line, stats);
    line.push('}');
    line
}

// ------------------------------------------------------------- compaction

/// What survives a [`Journal::compact`] pass: all live records (superseded
/// duplicate lines and torn tails are always dropped), optionally bounded
/// by least-recently-used eviction.
#[derive(Debug, Clone, Default)]
pub struct CompactPolicy {
    /// Evict least-recently-used records until the live records' lines
    /// total at most this many bytes. `None` keeps every live record.
    pub max_bytes: Option<u64>,
}

impl CompactPolicy {
    /// Keep every live record; drop only superseded lines and torn tails.
    pub fn keep_all() -> CompactPolicy {
        CompactPolicy::default()
    }
}

/// The observable instants of a compaction pass on disk, in execution
/// order. The crash-consistency tests (and the `SUBWARP_COMPACT_CRASH`
/// hook in `subwarp-serve compact`) kill the process at each one and
/// assert the on-disk journal is *either* the old bytes or the new bytes,
/// never a torn hybrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactStep {
    /// Before the replacement file is written (a stale `.compact` tmp from
    /// an earlier crash may exist; it is ignored by [`Journal::open`]).
    Begin,
    /// Replacement bytes written to the tmp file, not yet synced.
    TmpWritten,
    /// Tmp file fsynced; the rename has not happened.
    TmpSynced,
    /// Tmp atomically renamed over the journal; directory not yet synced.
    Renamed,
    /// Directory entry durable; the in-memory swap has not happened.
    DirSynced,
}

impl CompactStep {
    /// All steps in execution order.
    pub const ALL: [CompactStep; 5] = [
        CompactStep::Begin,
        CompactStep::TmpWritten,
        CompactStep::TmpSynced,
        CompactStep::Renamed,
        CompactStep::DirSynced,
    ];

    /// Stable name (the `SUBWARP_COMPACT_CRASH` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            CompactStep::Begin => "begin",
            CompactStep::TmpWritten => "tmp-written",
            CompactStep::TmpSynced => "tmp-synced",
            CompactStep::Renamed => "renamed",
            CompactStep::DirSynced => "dir-synced",
        }
    }

    /// Parses a [`name`](CompactStep::name).
    pub fn from_name(s: &str) -> Option<CompactStep> {
        CompactStep::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Journal size before, in bytes: the file on disk, the live entries'
    /// lines in memory.
    pub before_bytes: u64,
    /// Journal size after, in bytes.
    pub after_bytes: u64,
    /// Live records kept.
    pub kept: usize,
    /// Live records evicted by the LRU policy.
    pub evicted: usize,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, taking the
    /// exclusive lock and loading previously completed cells. Malformed
    /// lines — e.g. the torn tail of a killed run — and lines of another
    /// [`JOURNAL_VERSION`] are skipped, and a last line without its newline
    /// is ended so the next record starts a line of its own
    /// ([`open_jsonl`]). When any line of another version was skipped, the
    /// file is compacted before `open` returns (see the type docs). Fails
    /// with [`ErrorKind::WouldBlock`] naming the holder when another live
    /// process holds the lock.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        create_parent_dir(&path)?;
        let lock = acquire_lock(&path)?;
        let mut state = JournalState::default();
        let mut other_versions = false;
        let file = open_jsonl(&path, |_, v| {
            if v.get("v").and_then(Value::as_u64) != Some(JOURNAL_VERSION) {
                other_versions = true;
                return;
            }
            let fp = v
                .str_field("fp")
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if let Some((fp, stats)) = fp.zip(stats_from_json(&v)) {
                let label = v.str_field("label").unwrap_or_default();
                let bytes = render_line(fp, label, &stats).len() as u64 + 1;
                // Initial recency = line order: a compacted journal (written
                // oldest-touched first) reloads with its LRU order intact.
                state.insert(fp, label, stats, bytes);
            }
        })?;
        let journal = Journal {
            restored: state.entries.len(),
            state: Mutex::new(state),
            compactions: AtomicU64::new(0),
            max_bytes: None,
            disk: Some(Disk {
                path,
                file: Mutex::new(file),
                _lock: lock,
            }),
        };
        if other_versions {
            journal.compact(&CompactPolicy::keep_all())?;
        }
        Ok(journal)
    }

    /// A journal with no file and no lock: lookups, records, the recency
    /// clock and eviction behave as on disk, and results die with the
    /// process. Unbounded unless [`with_max_bytes`](Journal::with_max_bytes)
    /// is set.
    pub fn in_memory() -> Journal {
        Journal {
            restored: 0,
            state: Mutex::default(),
            compactions: AtomicU64::new(0),
            max_bytes: None,
            disk: None,
        }
    }

    /// Bounds the journal to `bytes` of live entries, measured as the
    /// length of their journal lines on either backing. When a
    /// [`record`](Journal::record) takes the store past the bound, it
    /// evicts least-recently-used entries until the store is at most half
    /// of it, so passes amortize instead of firing on every record. On disk
    /// the pass is the crash-consistent [`compact`](Journal::compact)
    /// rewrite; in memory the same victims are dropped. A journal already
    /// over the bound evicts at once. A failed pass leaves the store as it
    /// was, and the next record that finds it over the bound retries.
    pub fn with_max_bytes(mut self, bytes: u64) -> Journal {
        self.max_bytes = Some(bytes);
        let _ = self.pass(Some(bytes), Some(bytes / 2), &mut |_| {});
        self
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cells restored from disk when the journal was opened (0 in memory).
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// Entries currently held (restored plus recorded, minus evicted).
    pub fn len(&self) -> usize {
        self.lock_state().entries.len()
    }

    /// True when the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the journal file currently occupies on disk (0 in memory or
    /// if the file does not exist yet).
    pub fn disk_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| {
            std::fs::metadata(&d.path).map(|m| m.len()).unwrap_or(0)
        })
    }

    /// Compaction and eviction passes completed on this handle, on either
    /// backing.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// The journaled result for a fingerprint, if that cell completed in an
    /// earlier (or concurrent) run. Counts as a *use* for the LRU eviction
    /// order.
    pub fn lookup(&self, fp: u64) -> Option<RunStats> {
        let mut st = self.lock_state();
        let JournalState { entries, clock, .. } = &mut *st;
        let entry = entries.get_mut(&fp)?;
        *clock += 1;
        entry.touch = *clock;
        Some(entry.stats.clone())
    }

    /// Records a completed cell: appends one line and flushes so the result
    /// survives a SIGKILL arriving right after (in memory only the entries
    /// change), then keeps the journal under its bound, if it has one.
    ///
    /// Ordering matters for compaction soundness: the in-memory state is
    /// updated *before* the disk append, so any record whose bytes made it
    /// to the file is already visible to a concurrent compaction snapshot
    /// (compaction takes the file lock first, then the state lock) and can
    /// never be dropped from the rewritten journal. No lock is held across
    /// the eviction pass.
    pub fn record(&self, fp: u64, label: &str, stats: &RunStats) {
        let line = render_line(fp, label, stats);
        let over = {
            let mut st = self.lock_state();
            st.insert(fp, label, stats.clone(), line.len() as u64 + 1);
            self.max_bytes.filter(|&cap| st.bytes > cap)
        };
        if let Some(disk) = &self.disk {
            let mut f = disk.file.lock().unwrap_or_else(|e| e.into_inner());
            // A failed append degrades resume granularity, never the sweep.
            let _ = append_line(&mut f, &line);
        }
        if let Some(cap) = over {
            let _ = self.pass(Some(cap), Some(cap / 2), &mut |_| {});
        }
    }

    /// Rewrites the journal keeping only live records (superseded duplicate
    /// lines and torn tails are dropped), evicting least-recently-used
    /// records per `policy`, via write-new → fsync → atomic-rename: a
    /// `kill -9` at *any* instant leaves either the old or the new journal
    /// fully intact on disk, never a torn hybrid.
    ///
    /// The exclusive lock file is untouched — the same sentinel simply
    /// hands off from the old inode to the new one, and the append handle
    /// is reopened on the new file under the held file mutex so no
    /// concurrent [`record`](Journal::record) can write to the unlinked
    /// original. An in-memory journal drops the same victims and writes
    /// nothing.
    pub fn compact(&self, policy: &CompactPolicy) -> std::io::Result<CompactStats> {
        self.compact_with_hook(policy, &mut |_| {})
    }

    /// [`compact`](Journal::compact) with an observation hook invoked at
    /// each [`CompactStep`] of a pass on disk. The crash-consistency tests
    /// pass hooks that abort or unwind mid-pass; a hook that unwinds leaves
    /// the *in-memory* journal unspecified (drop it and reopen from disk —
    /// exactly what a restart does), while the on-disk journal is intact at
    /// every step. An in-memory pass has no steps.
    pub fn compact_with_hook(
        &self,
        policy: &CompactPolicy,
        hook: &mut dyn FnMut(CompactStep),
    ) -> std::io::Result<CompactStats> {
        self.pass(None, policy.max_bytes, hook)
    }

    /// A compaction pass down to `max_bytes` of live entries. With `over`,
    /// a pass that finds them at most `over` — a concurrent record's pass
    /// got there first — does nothing.
    fn pass(
        &self,
        over: Option<u64>,
        max_bytes: Option<u64>,
        hook: &mut dyn FnMut(CompactStep),
    ) -> std::io::Result<CompactStats> {
        // File lock first, then state: appends are paused, and every
        // record whose bytes reached the file is in the state snapshot.
        let mut file = self
            .disk
            .as_ref()
            .map(|d| d.file.lock().unwrap_or_else(|e| e.into_inner()));
        let mut st = self.lock_state();
        if over.is_some_and(|cap| st.bytes <= cap) {
            return Ok(CompactStats::default());
        }
        let before_bytes = if self.disk.is_some() {
            self.disk_bytes()
        } else {
            st.bytes
        };
        // Survivors are written oldest-touched first, so the rewritten file
        // reloads with its recency order intact.
        let (evicted, kept) = st.select(max_bytes);
        if let (Some(disk), Some(file)) = (&self.disk, file.as_mut()) {
            let mut content = String::with_capacity(st.bytes as usize);
            for fp in &kept {
                let e = &st.entries[fp];
                content.push_str(&render_line(*fp, &e.label, &e.stats));
                content.push('\n');
            }
            hook(CompactStep::Begin);
            let mut tmp = disk.path.as_os_str().to_owned();
            tmp.push(".compact");
            {
                let mut t = std::fs::File::create(&tmp)?;
                t.write_all(content.as_bytes())?;
                t.flush()?;
                hook(CompactStep::TmpWritten);
                t.sync_all()?;
            }
            hook(CompactStep::TmpSynced);
            std::fs::rename(&tmp, &disk.path)?;
            hook(CompactStep::Renamed);
            sync_parent_dir(&disk.path);
            hook(CompactStep::DirSynced);
            // Swap the append handle onto the new inode before releasing
            // the file lock; a pending record then appends to the live
            // journal.
            **file = std::fs::OpenOptions::new().append(true).open(&disk.path)?;
        }
        for fp in &evicted {
            if let Some(e) = st.entries.remove(fp) {
                st.bytes -= e.bytes;
            }
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(CompactStats {
            before_bytes,
            after_bytes: st.bytes,
            kept: kept.len(),
            evicted: evicted.len(),
        })
    }
}

/// Fsyncs the directory holding `path` so an atomic rename is durable. On
/// platforms where directories cannot be opened for sync this is a no-op —
/// the rename itself is still atomic, only its durability window widens.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => PathBuf::from("."),
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_of_another_version_are_skipped_and_dropped_on_open() {
        let path = std::env::temp_dir().join(format!(
            "subwarp_sweep_journal_version_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let stats = RunStats {
            cycles: 7,
            ..RunStats::default()
        };
        let line = |v: u64, fp: u64| {
            let mut l = format!("{{\"v\":{v},\"fp\":\"{fp:016x}\",\"label\":\"c\",");
            push_stats_json(&mut l, &stats);
            l.push_str("}\n");
            l
        };
        let current = [line(JOURNAL_VERSION, 0xbb), line(JOURNAL_VERSION, 0xcc)].concat();
        let mixed = [line(1, 0xaa), line(JOURNAL_VERSION, 0xbb), line(1, 0xdd)].concat()
            + &line(JOURNAL_VERSION, 0xcc);
        std::fs::write(&path, mixed).unwrap();

        // Opening loads the current lines and rewrites the file without the
        // others, so no later open parses them again.
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.restored(), j.len(), j.compactions()), (2, 2, 1));
        assert!(j.lookup(0xaa).is_none() && j.lookup(0xdd).is_none());
        assert_eq!(j.lookup(0xbb), Some(stats.clone()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), current);
        drop(j);

        // A file of current lines only is left as it is.
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.restored(), j.compactions()), (2, 0));
        assert_eq!(j.lookup(0xcc), Some(stats));
        drop(j);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), current);
        let _ = std::fs::remove_file(&path);
    }
}
