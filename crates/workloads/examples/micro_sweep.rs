//! Calibration utility: sweeps the Figure-11 microbenchmark's body size,
//! iteration count, load count, warp count, and fetch latency to place the
//! Table III curve (args: pad iters loads warps ifetch).
use subwarp_core::{SelectPolicy, SiConfig, Simulator, SmConfig};
use subwarp_workloads::{microbenchmark_with, MicroConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pad: usize = args.first().map(|s| s.parse().unwrap()).unwrap_or(24);
    let iters: u32 = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(16);
    let loads: usize = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(4);
    let warps: usize = args.get(3).map(|s| s.parse().unwrap()).unwrap_or(4);
    let ifetch: u64 = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(20);
    let mut sm = SmConfig::turing_like();
    sm.ifetch_l1_latency = ifetch;
    let base_sim = Simulator::new(sm.clone(), SiConfig::disabled());
    let si_sim = Simulator::new(sm, SiConfig::sos(SelectPolicy::AnyStalled));
    println!("pad={pad} iters={iters} loads={loads} warps={warps}");
    for ss in [16usize, 8, 4, 2, 1] {
        let wl = microbenchmark_with(MicroConfig {
            subwarp_size: ss,
            iterations: iters,
            loads_per_iter: loads,
            body_pad: pad,
            n_warps: warps,
        });
        let b = base_sim.run(&wl).unwrap();
        let s = si_sim.run(&wl).unwrap();
        println!(
            "  div {:2}: speedup {:5.2}  (base {:8} si {:8})  si-fetch {:4.1}%  si-l2u {:4.1}%",
            32 / ss,
            b.cycles as f64 / s.cycles as f64,
            b.cycles,
            s.cycles,
            s.exposed_fetch_stalls() as f64 / s.cycles as f64 * 100.0,
            s.exposed_load_stalls() as f64 / s.cycles as f64 * 100.0
        );
    }
}
