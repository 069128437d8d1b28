//! Calibration utility: prints each suite trace's Figure-3 position and
//! best-config speedup — the table used to place the ten traces against
//! the paper (see DESIGN.md / EXPERIMENTS.md).
use subwarp_core::{SelectPolicy, SiConfig, Simulator, SmConfig};
use subwarp_workloads::suite;

fn main() {
    println!(
        "{:6} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8}",
        "trace", "cycles", "l2u%", "div%", "trav%", "fetch%", "spd%", "stalls", "switches"
    );
    let base_sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let si_sim = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::both(SelectPolicy::HalfStalled),
    );
    let mut mean = 0.0;
    for t in suite() {
        let wl = t.build();
        let b = base_sim.run(&wl).unwrap();
        let s = si_sim.run(&wl).unwrap();
        let spd = (b.cycles as f64 / s.cycles as f64 - 1.0) * 100.0;
        mean += spd;
        println!(
            "{:6} {:>9} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>8} {:>8}",
            t.name,
            b.cycles,
            b.exposed_ratio() * 100.0,
            b.exposed_divergent_ratio() * 100.0,
            b.exposed_traversal_stalls() as f64 / b.cycles as f64 * 100.0,
            b.exposed_fetch_stalls() as f64 / b.cycles as f64 * 100.0,
            spd,
            s.subwarp_stalls,
            s.subwarp_switches
        );
    }
    println!("mean speedup: {:.1}%", mean / 10.0);
}
