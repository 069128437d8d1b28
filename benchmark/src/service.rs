//! Building, spawning, probing and stopping the real `subwarp-serve` and
//! `subwarp-router` binaries.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use subwarp_serve::Client;

/// Builds the service binaries of the repository at `root` in release mode
/// and returns the directory holding them. The target directory follows
/// Cargo's own rule: `CARGO_TARGET_DIR` (relative to `root`) or
/// `root/target`.
pub fn build_bins(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "subwarp-serve",
            "--bins",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the service binaries failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release"))
}

/// One running service process.
pub struct Proc {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Proc {
    /// Spawns `bin` with `args` plus `--listen 127.0.0.1:0` and waits for its
    /// readiness line, which names the bound address.
    pub fn spawn(bin: &Path, args: &[String], cwd: &Path) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split(" listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{} did not report a listen address: {line:?}",
                    bin.display()
                ))
            }
        }
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid())).unwrap_or(0.0)
    }
}

/// Dropping a process stops it and waits for it to exit, so neither an
/// early return nor a panic mid-run leaves daemons behind.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Connects to `addr` with generous deadlines.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with_deadlines(addr, Duration::from_secs(5), Some(Duration::from_secs(60)))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Pings `addr` until it answers `ok`, within `within`.
pub fn wait_ping(addr: &str, within: Duration) -> Result<(), String> {
    let until = Instant::now() + within;
    loop {
        let ok = connect(addr)
            .and_then(|mut c| c.request("{\"cmd\":\"ping\"}").map_err(|e| e.to_string()))
            .map(|v| v.bool_field("ok") == Some(true));
        match ok {
            Ok(true) => return Ok(()),
            _ if Instant::now() > until => return Err(format!("{addr} never answered ping")),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One `stats` reply, parsed.
pub fn stats(addr: &str) -> Result<subwarp_serve::json::Value, String> {
    connect(addr)?
        .request("{\"cmd\":\"stats\"}")
        .map_err(|e| format!("stats from {addr}: {e}"))
}

/// A fleet: shards, and optionally a router in front of them.
pub struct Fleet {
    /// Shard daemons.
    pub shards: Vec<Proc>,
    /// Router, when the fleet has one.
    pub router: Option<Proc>,
}

impl Fleet {
    /// Starts `n_shards` daemons (`--workers 1`, each with a fresh store in
    /// `dir`) and, when `router`, a `--replicas 1` router in front of
    /// them; returns once every process answers `ping`.
    pub fn start(
        bins: &Path,
        root: &Path,
        dir: &Path,
        n_shards: usize,
        router: bool,
    ) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut shards = Vec::new();
        for k in 0..n_shards {
            let store = dir.join(format!("shard{k}.jsonl"));
            let _ = std::fs::remove_file(&store);
            let args = vec![
                "--workers".to_owned(),
                "1".to_owned(),
                "--store".to_owned(),
                store.display().to_string(),
            ];
            shards.push(Proc::spawn(&bins.join("subwarp-serve"), &args, root)?);
        }
        let router = if router {
            let mut args = vec!["--replicas".to_owned(), "1".to_owned()];
            for s in &shards {
                args.push("--shard".to_owned());
                args.push(s.addr.clone());
            }
            Some(Proc::spawn(&bins.join("subwarp-router"), &args, root)?)
        } else {
            None
        };
        let fleet = Fleet { shards, router };
        for p in fleet.procs() {
            wait_ping(&p.addr, Duration::from_secs(20))?;
        }
        Ok(fleet)
    }

    /// Every process, shards first.
    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.shards.iter().chain(self.router.iter())
    }

    /// The address clients should send to: the router, else shard 0.
    pub fn front(&self) -> &str {
        self.router
            .as_ref()
            .map_or(&self.shards[0].addr, |r| &r.addr)
    }

    /// Summed peak RSS of every process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs().map(Proc::peak_rss_mb).sum()
    }
}
