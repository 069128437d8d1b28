//! Deterministic fault injection for sweep jobs.
//!
//! A [`FaultPlan`] decides — purely from its seed and a job's label — whether
//! a sweep cell should panic, fail with a [`SimError`], or be delayed before
//! running. The decision is a pure function of `(seed, label, attempt)`, so
//! a faulty sweep is exactly as reproducible as a healthy one: serial and
//! parallel runs (and reruns) inject the same faults into the same cells.
//!
//! This exists to *test the supervision layer*, not the simulator: chaos
//! smoke runs (`figures chaos`, the CI `chaos-smoke` job) use it to prove
//! that panics become labeled holes, hung cells trip the deadline watchdog,
//! and resumed sweeps reproduce the uninterrupted result byte-for-byte.

use crate::error::SimError;
use crate::hash::fnv1a;
use subwarp_prng::{splitmix64, SmallRng};

/// What a [`FaultPlan`] does to one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a message naming the cell (exercises `catch_unwind`
    /// isolation and payload preservation).
    Panic,
    /// Fail with [`SimError::InvariantViolation`]-shaped injected error
    /// (exercises error holes and retry policy).
    Error,
    /// Sleep for the given number of milliseconds before running
    /// (exercises the soft-deadline watchdog when it exceeds the deadline).
    Delay {
        /// Injected sleep, in milliseconds.
        ms: u64,
    },
}

/// A deterministic, seeded fault-injection plan for sweep jobs.
///
/// Rates are per-mille (0–1000) so the plan stays `Eq`/hashable; they are
/// evaluated in the order panic → error → delay against independent draws
/// from a [`SmallRng`] seeded by `splitmix64(seed ^ fnv(label)) ^ attempt`.
/// Exact-label overrides take precedence over rates, which makes targeted
/// chaos scenarios ("panic exactly in `toy/si`") reproducible by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every per-cell decision.
    pub seed: u64,
    /// Per-mille probability of an injected panic.
    pub panic_per_mille: u16,
    /// Per-mille probability of an injected [`SimError`].
    pub error_per_mille: u16,
    /// Per-mille probability of an injected delay.
    pub delay_per_mille: u16,
    /// Injected delay length, in milliseconds.
    pub delay_ms: u64,
    /// When set, rate-based faults only fire on attempts `<= clears_after`,
    /// modeling *transient* failures a retry policy can ride out. Targeted
    /// overrides always fire regardless.
    pub clears_after: Option<u32>,
    /// Exact-label overrides, consulted before the rates.
    pub targeted: Vec<(String, FaultKind)>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds an exact-label override.
    pub fn with_target(mut self, label: &str, kind: FaultKind) -> FaultPlan {
        self.targeted.push((label.to_owned(), kind));
        self
    }

    /// The fault (if any) this plan injects into the cell `label` on the
    /// given 1-based `attempt`. Pure: same inputs, same answer, forever.
    pub fn decide(&self, label: &str, attempt: u32) -> Option<FaultKind> {
        if let Some((_, kind)) = self.targeted.iter().find(|(l, _)| l == label) {
            return Some(kind.clone());
        }
        if let Some(clears) = self.clears_after {
            if attempt > clears {
                return None;
            }
        }
        let mut state = self.seed ^ fnv1a(0, label.as_bytes());
        let mut rng = SmallRng::seed_from_u64(splitmix64(&mut state) ^ attempt as u64);
        let draw = |rng: &mut SmallRng| (rng.next_u64() % 1000) as u16;
        if self.panic_per_mille > 0 && draw(&mut rng) < self.panic_per_mille {
            return Some(FaultKind::Panic);
        }
        if self.error_per_mille > 0 && draw(&mut rng) < self.error_per_mille {
            return Some(FaultKind::Error);
        }
        if self.delay_per_mille > 0 && draw(&mut rng) < self.delay_per_mille {
            return Some(FaultKind::Delay { ms: self.delay_ms });
        }
        None
    }

    /// Evaluates the plan for a cell and *executes* the injected fault:
    /// panics, returns an injected error, or sleeps, respectively. Returns
    /// `Ok(())` when the cell is healthy and should run normally.
    pub fn sabotage(&self, label: &str, attempt: u32) -> Result<(), SimError> {
        match self.decide(label, attempt) {
            None => Ok(()),
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic in `{label}` (attempt {attempt})")
            }
            Some(FaultKind::Error) => Err(SimError::InvalidWorkload {
                workload: label.to_owned(),
                what: format!("injected fault (attempt {attempt})"),
            }),
            Some(FaultKind::Delay { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_label_dependent() {
        let plan = FaultPlan {
            seed: 42,
            panic_per_mille: 500,
            error_per_mille: 500,
            ..FaultPlan::default()
        };
        let labels: Vec<String> = (0..64).map(|i| format!("wl{i}/cfg{}", i % 7)).collect();
        let a: Vec<_> = labels.iter().map(|l| plan.decide(l, 1)).collect();
        let b: Vec<_> = labels.iter().map(|l| plan.decide(l, 1)).collect();
        assert_eq!(a, b, "same plan, same labels, same decisions");
        assert!(
            a.iter().any(|d| d.is_some()) && a.iter().any(|d| d.is_none()),
            "a 50% plan over 64 labels must hit some and miss some: {a:?}"
        );
        let other = FaultPlan { seed: 43, ..plan };
        let c: Vec<_> = labels.iter().map(|l| other.decide(l, 1)).collect();
        assert_ne!(a, c, "different seeds must disagree somewhere");
    }

    #[test]
    fn targeted_overrides_beat_rates() {
        let plan = FaultPlan::none(7).with_target("toy/si", FaultKind::Panic);
        assert_eq!(plan.decide("toy/si", 1), Some(FaultKind::Panic));
        assert_eq!(plan.decide("toy/si", 9), Some(FaultKind::Panic));
        assert_eq!(plan.decide("toy/base", 1), None);
    }

    #[test]
    fn transient_faults_clear_after_configured_attempts() {
        let plan = FaultPlan {
            seed: 1,
            error_per_mille: 1000,
            clears_after: Some(2),
            ..FaultPlan::default()
        };
        assert_eq!(plan.decide("x", 1), Some(FaultKind::Error));
        assert_eq!(plan.decide("x", 2), Some(FaultKind::Error));
        assert_eq!(plan.decide("x", 3), None, "third attempt succeeds");
    }

    #[test]
    fn sabotage_maps_kinds_to_behaviors() {
        let plan = FaultPlan::none(0)
            .with_target("err", FaultKind::Error)
            .with_target("boom", FaultKind::Panic);
        assert!(plan.sabotage("clean", 1).is_ok());
        match plan.sabotage("err", 1) {
            Err(SimError::InvalidWorkload { workload, what }) => {
                assert_eq!(workload, "err");
                assert!(what.contains("injected fault"));
            }
            other => panic!("expected injected InvalidWorkload, got {other:?}"),
        }
        let p = std::panic::catch_unwind(|| plan.sabotage("boom", 1));
        let msg = match p.expect_err("must panic").downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => String::new(),
        };
        assert!(msg.contains("injected fault: panic in `boom`"), "{msg}");
    }
}
