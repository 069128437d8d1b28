//! Build a raytracing megakernel over a custom procedural scene, trace its
//! rays through a real BVH, and measure how Subwarp Interleaving exploits
//! the resulting divergence — the paper's Figure 1/5 workflow end to end.
//!
//! ```sh
//! cargo run --release --example raytrace_megakernel
//! ```

use subwarp_interleaving::core::{SiConfig, Simulator, SmConfig};
use subwarp_interleaving::rt::{Bvh, Scene};
use subwarp_interleaving::workloads::{MegakernelConfig, SceneKind, ShaderProfile};

fn main() {
    // A high-entropy scene: random triangles with 8 materials. Neighbouring
    // camera rays strike different materials, so warps splinter at the
    // shader switch.
    let scene_kind = SceneKind::Soup {
        triangles: 4000,
        materials: 8,
    };

    // Inspect the scene/BVH the generator will trace through.
    let bvh = Bvh::build(Scene::soup_with_materials(4000, 8, 7));
    let scene = bvh.scene();
    println!(
        "scene: {} triangles, {} materials, BVH of {} nodes",
        scene.triangles().len(),
        scene.material_count(),
        bvh.node_count()
    );

    // Eight hit shaders plus a miss shader: half the shaders stream cold
    // (always-miss) texture/global data — their subwarps stall; the other
    // half read hot L1D-resident data — their subwarps barely stall. The
    // mix is what makes subwarp *order* matter (paper §VI, limiter #3).
    let profiles: Vec<ShaderProfile> = (0..8)
        .map(|s| ShaderProfile {
            tex_ops: 1 + s % 2,
            ldg_ops: 1,
            hot_loads: if s % 2 == 0 { 0 } else { 3 },
            math_ops: 8,
            trips: 1,
            code_pad: 24,
        })
        .chain([ShaderProfile::miss()])
        .collect();

    let wl = MegakernelConfig {
        name: "custom-megakernel".into(),
        scene: scene_kind,
        bounces: 2,
        n_warps: 12,
        seed: 7,
        profiles,
        common_ldg: 1,
        common_math: 8,
    }
    .build();
    println!(
        "megakernel: {} instructions, {} warps, {} pre-traced rays\n",
        wl.program.len(),
        wl.n_warps,
        wl.rt_trace.len()
    );

    let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&wl)
        .unwrap();
    let si = Simulator::new(SmConfig::turing_like(), SiConfig::best())
        .run(&wl)
        .unwrap();

    println!("{:<26} {:>12} {:>12}", "", "baseline", "SI (Both,N>=0.5)");
    let row = |k: &str, a: u64, b: u64| println!("{k:<26} {a:>12} {b:>12}");
    row("cycles", base.cycles, si.cycles);
    row("instructions", base.instructions, si.instructions);
    row(
        "exposed load-to-use",
        base.exposed_load_stalls(),
        si.exposed_load_stalls(),
    );
    row(
        "  ...in divergent code",
        base.exposed_load_stalls_divergent,
        si.exposed_load_stalls_divergent,
    );
    row(
        "exposed RT-traversal",
        base.exposed_traversal_stalls(),
        si.exposed_traversal_stalls(),
    );
    row("divergences", base.divergences, si.divergences);
    row(
        "subwarp-stall demotions",
        base.subwarp_stalls,
        si.subwarp_stalls,
    );
    row(
        "subwarp switches",
        base.subwarp_switches,
        si.subwarp_switches,
    );
    println!("\nspeedup: {:.1}%", (si.speedup_vs(&base) - 1.0) * 100.0);
}
