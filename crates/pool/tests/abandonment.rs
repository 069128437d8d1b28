//! Thread accounting for abandoned jobs. It counts the live threads of the
//! whole process, so it lives in a test binary of its own: a sibling test
//! spawning workers at the same time would be counted as a leak.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use subwarp_pool::{run_supervised, JobCause, Supervisor};

fn labels(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("job{i}")).collect()
}

/// Live threads of this process, from `/proc/self/status`.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .expect("/proc/self/status has a Threads: line")
}

#[test]
fn supervised_abandonment_does_not_leak_worker_threads() {
    let baseline = live_threads();
    let deadline = Duration::from_millis(100);
    let sup = Supervisor {
        workers: 2,
        deadline: Some(deadline),
        ..Supervisor::default()
    };
    let out = run_supervised::<usize, (), _>(&sup, &labels(6), |i, _| {
        if i == 1 {
            // Hung job: outlives the sweep, finishes during the test.
            std::thread::sleep(Duration::from_millis(1500));
        }
        Ok(i)
    });
    assert!(
        matches!(out[1].as_ref().unwrap_err().cause, JobCause::Timeout { .. }),
        "job 1 must be abandoned"
    );
    // At return, every joinable worker — the idle originals and the
    // replacement spawned on abandonment — has been reaped. Only the
    // genuinely stuck thread may still be alive.
    let after = live_threads();
    assert!(
        after <= baseline + 1,
        "joinable worker threads leaked past run_supervised: \
         {baseline} threads before, {after} after"
    );
    // Once the stuck job's sleep elapses its thread exits too: nothing
    // from the sweep survives for the process lifetime.
    let t0 = Instant::now();
    let mut settled = live_threads();
    while settled > baseline && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(25));
        settled = live_threads();
    }
    assert!(
        settled <= baseline,
        "stuck worker never exited: {baseline} threads before, {settled} after"
    );
}
