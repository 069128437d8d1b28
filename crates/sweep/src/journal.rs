//! The JSONL checkpoint journal and its exclusive lock, over the exact
//! all-integer `RunStats` codec of `subwarp-core`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use subwarp_core::{stats_to_units, units_to_stats, RunStats};

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
/// {"v":1,"fp":"0123456789abcdef","label":"AV1/Both,N>=0.5","u":[..44 ints..],"ch":[..]}
/// ```
///
/// `fp` is the [`cell_fingerprint`](crate::cell_fingerprint) in hex, `u`
/// the 44 fixed-order integer fields of `RunStats`, `ch` the per-channel
/// DRAM busy-cycle vector. Opening a journal loads every well-formed line
/// (last write wins) and positions the file for appending; each
/// [`record`](Journal::record) is flushed immediately so a killed writer
/// loses only in-flight cells.
///
/// Opening takes an **exclusive lock** (a `<path>.lock` sentinel recording
/// the holder's PID): a second simultaneous writer fails fast with an error
/// naming the holder instead of silently interleaving appends. A lock left
/// behind by a `kill -9` is detected as stale (its PID is gone) and stolen.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    restored: usize,
    state: Mutex<JournalState>,
    file: Mutex<std::fs::File>,
    compactions: std::sync::atomic::AtomicU64,
    // Held for the journal's lifetime; releases (removes) the sentinel on
    // drop.
    _lock: LockGuard,
}

/// In-memory journal state, guarded by one mutex so a compaction snapshot
/// is always a superset of every record whose disk append has completed
/// ([`Journal::record`] inserts here *before* appending).
#[derive(Debug, Default)]
struct JournalState {
    /// Decoded results per fingerprint (last write wins).
    completed: HashMap<u64, RunStats>,
    /// The exact journal line (no trailing newline) per fingerprint, so a
    /// compacted journal is literally the surviving original lines —
    /// byte-identical re-serves survive any number of compactions.
    lines: HashMap<u64, String>,
    /// Recency clock value per fingerprint (higher = more recent). Bumped
    /// by [`Journal::lookup`] and [`Journal::record`]; the LRU eviction
    /// order compaction uses.
    touch: HashMap<u64, u64>,
    /// Monotonic recency clock.
    clock: u64,
}

impl JournalState {
    fn bump(&mut self, fp: u64) {
        self.clock += 1;
        let clock = self.clock;
        self.touch.insert(fp, clock);
    }
}

// ------------------------------------------------------------- compaction

/// What survives a [`Journal::compact`] pass: all live records (superseded
/// duplicate lines and torn tails are always dropped), optionally bounded
/// by an LRU eviction policy.
#[derive(Debug, Clone, Default)]
pub struct CompactPolicy {
    /// Evict least-recently-used records until the rewritten journal is at
    /// most this many bytes. `None` keeps every live record.
    pub max_bytes: Option<u64>,
    /// Evict least-recently-used records until at most this many remain.
    /// `None` keeps every live record.
    pub max_entries: Option<usize>,
}

impl CompactPolicy {
    /// Keep every live record; drop only superseded lines and torn tails.
    pub fn keep_all() -> CompactPolicy {
        CompactPolicy::default()
    }
}

/// The observable instants of a compaction pass, in execution order. The
/// crash-consistency tests (and the `SUBWARP_COMPACT_CRASH` hook in
/// `subwarp-serve compact`) kill the process at each one and assert the
/// on-disk journal is *either* the old bytes or the new bytes, never a torn
/// hybrid.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Journal size before, in bytes.
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
    /// lines — e.g. the torn tail of a killed run — are skipped, and a last
    /// line without its newline is ended so the next record starts a line
    /// of its own ([`open_jsonl`]). Fails with
    /// [`ErrorKind::WouldBlock`] naming the holder when another live
    /// process holds the lock.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        create_parent_dir(&path)?;
        let lock = acquire_lock(&path)?;
        let mut state = JournalState::default();
        let file = open_jsonl(&path, |line, v| {
            let fp = v
                .str_field("fp")
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if let Some((fp, stats)) = fp.zip(stats_from_json(&v)) {
                state.completed.insert(fp, stats);
                state.lines.insert(fp, line.to_owned());
                // Initial recency = line order: a compacted journal (written
                // oldest-touched first) reloads with its LRU order intact.
                state.bump(fp);
            }
        })?;
        Ok(Journal {
            path,
            restored: state.completed.len(),
            state: Mutex::new(state),
            file: Mutex::new(file),
            compactions: std::sync::atomic::AtomicU64::new(0),
            _lock: lock,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cells restored from disk when the journal was opened.
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// Entries currently held (restored plus recorded this run).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .completed
            .len()
    }

    /// True when the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the journal file currently occupies on disk (0 if it does not
    /// exist yet). The `--compact-at` trigger polls this.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Compaction passes completed on this handle.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The journaled result for a fingerprint, if that cell completed in an
    /// earlier (or concurrent) run. Counts as a *use* for the LRU eviction
    /// order.
    pub fn lookup(&self, fp: u64) -> Option<RunStats> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let found = st.completed.get(&fp).cloned();
        if found.is_some() {
            st.bump(fp);
        }
        found
    }

    /// Records a completed cell: appends one line and flushes so the result
    /// survives a SIGKILL arriving right after.
    ///
    /// Ordering matters for compaction soundness: the in-memory state is
    /// updated *before* the disk append, so any record whose bytes made it
    /// to the file is already visible to a concurrent compaction snapshot
    /// (compaction takes the file lock first, then the state lock) and can
    /// never be dropped from the rewritten journal.
    pub fn record(&self, fp: u64, label: &str, stats: &RunStats) {
        let mut line = format!(
            "{{\"v\":1,\"fp\":\"{fp:016x}\",\"label\":\"{}\",",
            json_escape(label)
        );
        push_stats_json(&mut line, stats);
        line.push('}');
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.completed.insert(fp, stats.clone());
            st.lines.insert(fp, line.clone());
            st.bump(fp);
        }
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // A failed append degrades resume granularity, never the sweep.
        let _ = append_line(&mut f, &line);
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
    /// original.
    pub fn compact(&self, policy: &CompactPolicy) -> std::io::Result<CompactStats> {
        self.compact_with_hook(policy, &mut |_| {})
    }

    /// [`compact`](Journal::compact) with an observation hook invoked at
    /// each [`CompactStep`]. The crash-consistency tests pass hooks that
    /// abort or unwind mid-pass; a hook that unwinds leaves the *in-memory*
    /// journal unspecified (drop it and reopen from disk — exactly what a
    /// restart does), while the on-disk journal is intact at every step.
    pub fn compact_with_hook(
        &self,
        policy: &CompactPolicy,
        hook: &mut dyn FnMut(CompactStep),
    ) -> std::io::Result<CompactStats> {
        // File lock first, then state: appends are paused, and every
        // record whose bytes reached the file is in the state snapshot.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let before_bytes = self.disk_bytes();

        // Survivors: live fps ordered oldest-touched first, so the
        // rewritten file reloads with its recency order intact.
        let mut by_touch: Vec<(u64, u64)> = st
            .touch
            .iter()
            .filter(|(fp, _)| st.lines.contains_key(fp))
            .map(|(&fp, &t)| (t, fp))
            .collect();
        by_touch.sort_unstable();
        let line_bytes =
            |st: &JournalState, fp: u64| st.lines.get(&fp).map_or(0, |l| l.len() as u64 + 1);
        let mut total_bytes: u64 = by_touch.iter().map(|&(_, fp)| line_bytes(&st, fp)).sum();
        let mut first_kept = 0usize;
        while first_kept < by_touch.len() {
            let count = by_touch.len() - first_kept;
            let over_bytes = policy.max_bytes.is_some_and(|cap| total_bytes > cap);
            let over_entries = policy.max_entries.is_some_and(|cap| count > cap);
            if !over_bytes && !over_entries {
                break;
            }
            total_bytes -= line_bytes(&st, by_touch[first_kept].1);
            first_kept += 1;
        }
        let evicted: Vec<u64> = by_touch[..first_kept].iter().map(|&(_, fp)| fp).collect();
        let kept: Vec<u64> = by_touch[first_kept..].iter().map(|&(_, fp)| fp).collect();

        let mut content = String::with_capacity(total_bytes as usize);
        for fp in &kept {
            content.push_str(&st.lines[fp]);
            content.push('\n');
        }

        hook(CompactStep::Begin);
        let tmp = {
            let mut p = self.path.as_os_str().to_owned();
            p.push(".compact");
            PathBuf::from(p)
        };
        {
            let mut t = std::fs::File::create(&tmp)?;
            t.write_all(content.as_bytes())?;
            t.flush()?;
            hook(CompactStep::TmpWritten);
            t.sync_all()?;
        }
        hook(CompactStep::TmpSynced);
        std::fs::rename(&tmp, &self.path)?;
        hook(CompactStep::Renamed);
        sync_parent_dir(&self.path);
        hook(CompactStep::DirSynced);

        // Swap the append handle onto the new inode before releasing the
        // file lock; a pending record then appends to the live journal.
        *file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        for fp in &evicted {
            st.completed.remove(fp);
            st.lines.remove(fp);
            st.touch.remove(fp);
        }
        self.compactions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(CompactStats {
            before_bytes,
            after_bytes: content.len() as u64,
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
