//! The paper's Figure 11 CUDA microbenchmark: sweep the divergence factor
//! from 2 to 32 and reproduce the Table III scaling curve, including the
//! instruction-fetch taper at 32-way.
//!
//! ```sh
//! cargo run --release --example microbenchmark
//! ```

use subwarp_interleaving::core::{SelectPolicy, SiConfig, Simulator, SmConfig};
use subwarp_interleaving::workloads::microbenchmark;

fn main() {
    let base_sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let si_sim = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled),
    );

    println!(
        "{:>12} {:>11} {:>10} {:>14} {:>14}",
        "SUBWARP_SIZE", "divergence", "speedup", "SI l2u-stall%", "SI fetch-stall%"
    );
    for subwarp_size in [16usize, 8, 4, 2, 1] {
        let wl = microbenchmark(subwarp_size, 16);
        let base = base_sim.run(&wl).unwrap();
        let si = si_sim.run(&wl).unwrap();
        println!(
            "{:>12} {:>11} {:>9.2}x {:>13.1}% {:>14.1}%",
            subwarp_size,
            32 / subwarp_size,
            si.speedup_vs(&base),
            si.exposed_ratio() * 100.0,
            si.exposed_fetch_stalls() as f64 / si.cycles as f64 * 100.0,
        );
    }
    println!("\npaper Table III: 1.98 / 3.95 / 7.84 / 15.22 / 12.66");
    println!("note how load-to-use stalls fall toward zero while fetch stalls rise");
    println!("sharply at 32-way divergence (paper §V-A).");
}
