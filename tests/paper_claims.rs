//! Qualitative paper-claim tests: every headline statement of *GPU Subwarp
//! Interleaving* that our reproduction is expected to exhibit, asserted as
//! an executable check. These run the real experiment pipelines (reduced
//! sizes where noted), so they are the living version of EXPERIMENTS.md.

use subwarp_bench::{fig12b, fig3, gain_pct, table3};
use subwarp_core::{SelectPolicy, SiConfig, Simulator, SmConfig};
use subwarp_stats::mean;
use subwarp_workloads::{suite, trace_by_name};

/// §I / Figure 3: raytracing kernels are "often stalled waiting for memory,
/// and a significant percentage of those stalls are in divergent code
/// regions".
#[test]
fn fig3_stall_characterization_shape() {
    let rows = fig3().unwrap();
    let total_mean = mean(&rows.iter().map(|r| r.total).collect::<Vec<_>>());
    let div_mean = mean(&rows.iter().map(|r| r.divergent).collect::<Vec<_>>());
    // Paper's suite spans ~15–70% total exposure; mean in the tens of %.
    assert!(
        (0.15..0.60).contains(&total_mean),
        "total mean {total_mean}"
    );
    // Divergent stalls are a large minority share of exposure.
    assert!(
        div_mean > 0.3 * total_mean,
        "divergent share too small: {div_mean}"
    );
    assert!(div_mean < total_mean + 1e-9);
    // BFV traces are divergence-dominated; Coll traces are not.
    let get = |n: &str| rows.iter().find(|r| r.name == n).expect("trace present");
    let bfv1 = get("BFV1");
    let coll1 = get("Coll1");
    assert!(
        bfv1.divergent / bfv1.total > 0.9,
        "BFV1 stalls should be divergent"
    );
    assert!(
        coll1.divergent / coll1.total < 0.6,
        "Coll1 stalls should be mostly convergent"
    );
}

/// §V-A / Table III: "SI delivers almost linear speedups until about 16-way
/// divergence before tapering off" and "with 32-way divergence, we see
/// load-to-use stalls decrease [dramatically] ... but instruction fetch
/// stalls rise sharply".
#[test]
fn table3_scaling_and_taper() {
    let rows = table3(8).unwrap(); // reduced iterations for test runtime
    let speedup = |d: usize| {
        rows.iter()
            .find(|r| r.divergence_factor == d)
            .unwrap()
            .speedup
    };
    // Near-linear low end (≥85% efficiency at 2- and 4-way).
    assert!(speedup(2) > 1.7, "2-way: {}", speedup(2));
    assert!(speedup(4) > 3.4, "4-way: {}", speedup(4));
    assert!(speedup(8) > 6.0, "8-way: {}", speedup(8));
    // Strong but sub-linear at 16; taper (no gain, or inversion) at 32.
    assert!(speedup(16) > 10.0, "16-way: {}", speedup(16));
    assert!(
        speedup(32) < speedup(16) * 1.15,
        "32-way should taper: {} vs {}",
        speedup(32),
        speedup(16)
    );
    // The taper's mechanism: fetch stalls rise sharply with divergence.
    let fetch = |d: usize| {
        rows.iter()
            .find(|r| r.divergence_factor == d)
            .unwrap()
            .si_fetch_ratio
    };
    assert!(
        fetch(32) > 4.0 * fetch(4),
        "fetch stalls must spike at 32-way"
    );
}

/// §V-B: SI speeds up the suite; reflections (BFV) benefit most, demos with
/// convergent stalls (Coll) least — "For applications with significant
/// load-to-use stalls where most of the stalls are in divergent code
/// blocks, SI is likely to help (BFV1, BFV2) ... (Coll1, Coll2)" not.
#[test]
fn fig12a_winners_and_losers() {
    let base_sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let si_sim = Simulator::new(SmConfig::turing_like(), SiConfig::best());
    let gain = |name: &str| {
        let wl = trace_by_name(name).expect("suite trace").build();
        gain_pct(&si_sim.run(&wl).unwrap(), &base_sim.run(&wl).unwrap())
    };
    let bfv1 = gain("BFV1");
    let coll1 = gain("Coll1");
    let coll2 = gain("Coll2");
    assert!(bfv1 > 10.0, "BFV1 should gain big: {bfv1:.1}%");
    assert!(coll1 < 4.0, "Coll1 should gain little: {coll1:.1}%");
    assert!(coll2 < 5.0, "Coll2 should gain little: {coll2:.1}%");
    assert!(bfv1 > 4.0 * coll1.max(0.1));
}

/// §V-B / Figure 12b: "Divergent stalls dropped by 26.5% on average" —
/// large divergent-stall reductions, and (the paper's subtle point) stall
/// reductions that do NOT translate proportionally into speedup for
/// convergent-stall traces.
#[test]
fn fig12b_stall_reductions() {
    let rows = fig12b().unwrap();
    let div_mean = mean(
        &rows
            .iter()
            .map(|r| r.divergent_reduction)
            .collect::<Vec<_>>(),
    );
    assert!(div_mean > 0.15, "mean divergent reduction {div_mean}");
    // Coll2 shows visible divergent-stall reduction yet (checked above)
    // negligible speedup — the paper's "loose approximation" caveat.
    let coll2 = rows
        .iter()
        .find(|r| r.name == "Coll2")
        .expect("trace present");
    assert!(coll2.divergent_reduction > 0.1);
}

/// §V-C-1 / Figure 13: "Subwarp Interleaving performs better with
/// increasing L1 miss latencies."
#[test]
fn fig13_latency_monotonicity() {
    // Reduced: one config (best), whole suite, three latencies.
    let mut means = Vec::new();
    for lat in [300u64, 600, 900] {
        let sm = SmConfig::turing_like().with_miss_latency(lat);
        let base_sim = Simulator::new(sm.clone(), SiConfig::disabled());
        let si_sim = Simulator::new(sm, SiConfig::best());
        let gains: Vec<f64> = suite()
            .iter()
            .map(|t| {
                let wl = t.build();
                gain_pct(&si_sim.run(&wl).unwrap(), &base_sim.run(&wl).unwrap())
            })
            .collect();
        means.push(mean(&gains));
    }
    assert!(
        means[0] < means[1] && means[1] < means[2],
        "gains should grow with latency: {means:?}"
    );
}

/// §V-C-3 / Figure 15: "Even with support for as little as 2 subwarps per
/// warp, Subwarp Interleaving is able to achieve [most of the] speedup,
/// with speedups increasing sub-linearly with more subwarps per warp."
#[test]
fn fig15_small_tst_captures_most_upside() {
    let base_sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let mean_gain = |n: usize| {
        let si_sim = Simulator::new(
            SmConfig::turing_like(),
            SiConfig::best().with_max_subwarps(n),
        );
        let gains: Vec<f64> = suite()
            .iter()
            .map(|t| {
                let wl = t.build();
                gain_pct(&si_sim.run(&wl).unwrap(), &base_sim.run(&wl).unwrap())
            })
            .collect();
        mean(&gains)
    };
    let two = mean_gain(2);
    let four = mean_gain(4);
    let unlimited = mean_gain(32);
    assert!(
        two > 0.6 * unlimited,
        "2 subwarps: {two:.1}% vs unlimited {unlimited:.1}%"
    );
    assert!(four >= two - 0.3, "4 subwarps should not lose to 2");
    assert!(
        four > 0.8 * unlimited,
        "4 subwarps capture ≥80% (paper: 82%)"
    );
}

/// §V-C-4: with 4× smaller instruction caches, most of the upside remains
/// (paper: ~70%).
#[test]
fn icache_sizing_keeps_most_upside() {
    let mean_gain = |sm: SmConfig| {
        let base_sim = Simulator::new(sm.clone(), SiConfig::disabled());
        let si_sim = Simulator::new(sm, SiConfig::best());
        let gains: Vec<f64> = suite()
            .iter()
            .map(|t| {
                let wl = t.build();
                gain_pct(&si_sim.run(&wl).unwrap(), &base_sim.run(&wl).unwrap())
            })
            .collect();
        mean(&gains)
    };
    let big = mean_gain(SmConfig::turing_like());
    let small = mean_gain(SmConfig::turing_like().with_small_icaches());
    // The paper retains ~70% of the upside with 4x smaller caches; our
    // model retains at least that (and sometimes more, because SI also
    // hides the *fetch* latency that small caches expose in the baseline —
    // see EXPERIMENTS.md).
    assert!(
        small > 0.5 * big,
        "small caches keep most upside: {small:.1} vs {big:.1}"
    );
    assert!(
        small < big * 2.0,
        "small-cache gains should stay comparable"
    );
}

/// §III-C-3: the trigger-policy knob orders aggressiveness — N=1 is the
/// most conservative (fewest demotions), N>0 the most aggressive.
#[test]
fn policy_knob_orders_demotions() {
    let wl = trace_by_name("MC").expect("suite trace").build();
    let demotions = |p| {
        Simulator::new(SmConfig::turing_like(), SiConfig::sos(p))
            .run(&wl)
            .unwrap()
            .subwarp_stalls
    };
    let all = demotions(SelectPolicy::AllStalled);
    let half = demotions(SelectPolicy::HalfStalled);
    let any = demotions(SelectPolicy::AnyStalled);
    assert!(
        all <= half && half <= any,
        "demotions: N=1 {all}, N>=0.5 {half}, N>0 {any}"
    );
}

/// §VI limiter #2: traversal latency is an Amdahl component SI cannot
/// attack — traversal-heavy DDGI gains less than shading-heavy BFV1.
#[test]
fn traversal_amdahl_limits_ddgi() {
    let base_sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let si_sim = Simulator::new(SmConfig::turing_like(), SiConfig::best());
    let run = |name: &str| {
        let wl = trace_by_name(name).expect("suite trace").build();
        let b = base_sim.run(&wl).unwrap();
        let s = si_sim.run(&wl).unwrap();
        (
            gain_pct(&s, &b),
            b.exposed_traversal_stalls() as f64 / b.cycles as f64,
        )
    };
    let (ddgi_gain, ddgi_trav) = run("DDGI");
    let (bfv_gain, _) = run("BFV1");
    assert!(
        ddgi_trav > 0.03,
        "DDGI should be traversal-heavy: {ddgi_trav}"
    );
    assert!(
        ddgi_gain < bfv_gain / 2.0,
        "DDGI {ddgi_gain:.1}% vs BFV1 {bfv_gain:.1}%"
    );
}

/// §VI future work: software stall hints — "prefer the higher load stall
/// probability path first and use the other path for latency tolerance" —
/// should beat order-oblivious policies.
#[test]
fn stall_hints_beat_oblivious_orders() {
    use subwarp_core::DivergeOrder;
    let mean_gain = |order: DivergeOrder| {
        let mut sm = SmConfig::turing_like();
        sm.diverge_order = order;
        let base_sim = Simulator::new(sm.clone(), SiConfig::disabled());
        let si_sim = Simulator::new(sm, SiConfig::best());
        let gains: Vec<f64> = suite()
            .iter()
            .map(|t| {
                let wl = t.build();
                gain_pct(&si_sim.run(&wl).unwrap(), &base_sim.run(&wl).unwrap())
            })
            .collect();
        mean(&gains)
    };
    let hinted = mean_gain(DivergeOrder::Hinted);
    let fallthrough = mean_gain(DivergeOrder::FallthroughFirst);
    let random = mean_gain(DivergeOrder::Random);
    assert!(
        hinted > fallthrough && hinted > random,
        "hinted {hinted:.1}% vs fallthrough {fallthrough:.1}% / random {random:.1}%"
    );
}

/// §VI: "We profiled a broad suite of more than 400 non-raytracing CUDA and
/// Direct3D compute kernels ... none benefited beyond the margin of noise
/// from SI." SI must be inert on ordinary compute.
#[test]
fn compute_kernels_do_not_benefit() {
    for row in subwarp_bench::compute_negative_result().unwrap() {
        assert!(
            row.gain.abs() < 3.0,
            "{} gained {:.1}% — beyond the margin of noise",
            row.name,
            row.gain
        );
        // And the reason: no (or negligible) stalls in divergent code.
        assert!(
            row.divergent < 0.05 || row.gain.abs() < 3.0,
            "{}: divergent exposure {:.1}% should not translate to gains",
            row.name,
            row.divergent * 100.0
        );
    }
}
