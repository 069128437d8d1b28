//! Raytracing megakernel generation.
//!
//! This reproduces the paper's workload structure end to end (Figures 1 and
//! 5): a warp of initially convergent threads casts rays (`TraceRay` → RT
//! core), splinters into subwarps at a switch over the hit shader, runs
//! divergent shader bodies full of texture/global loads with load-to-use
//! stalls, reconverges at a `BSYNC`, and loops for secondary bounces.
//!
//! Divergence is *earned*, not synthesized: at build time every thread's
//! rays are actually traced through a BVH over a procedural scene, and the
//! material of the struck triangle selects the shader. Scene choice
//! therefore controls the warp's hit entropy — the knob behind the
//! per-trace differences in the paper's Figure 3.

use subwarp_core::{InitValue, RayResult, RtTrace, Workload, WARP_SIZE};
use subwarp_isa::{Barrier, CmpOp, Operand, Pred, ProgramBuilder, Reg, Scoreboard, StallHint};
use subwarp_prng::SmallRng;
use subwarp_rt::{Bvh, Ray, Scene, Vec3};

/// Which procedural scene the megakernel's rays fly through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneKind {
    /// Random triangle soup: uniform material assignment → high hit entropy
    /// → warps splinter into many subwarps (BFV-like traces).
    Soup {
        /// Triangle count (BVH depth scales with it).
        triangles: usize,
        /// Distinct materials (= hit shaders).
        materials: u32,
    },
    /// Structured grid city: materials assigned by column → coherent camera
    /// rays mostly agree → low hit entropy (Coll-like traces).
    City {
        /// Grid width (buildings).
        width: usize,
        /// Grid depth (rows).
        depth: usize,
        /// Distinct materials.
        materials: u32,
    },
    /// A Cornell-box-like enclosure (7 materials): wall-dominated hits with
    /// moderate entropy from two inner blocks.
    Cornell,
}

impl SceneKind {
    fn build(&self, seed: u64) -> Scene {
        match *self {
            SceneKind::Soup {
                triangles,
                materials,
            } => Scene::soup_with_materials(triangles, materials, seed),
            SceneKind::City {
                width,
                depth,
                materials,
            } => Scene::grid_city(width, depth, materials, seed),
            SceneKind::Cornell => Scene::cornell_like(),
        }
    }

    fn materials(&self) -> u32 {
        match *self {
            SceneKind::Soup { materials, .. } | SceneKind::City { materials, .. } => materials,
            SceneKind::Cornell => 7,
        }
    }
}

/// Instruction mix of one shader body (one switch case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaderProfile {
    /// Texture fetches per inner-loop trip (TEX writeback path).
    pub tex_ops: usize,
    /// Global loads per inner-loop trip (LSU writeback path).
    pub ldg_ops: usize,
    /// Of all memory ops per trip, how many target a small hot region that
    /// stays L1D-resident (cache hits — stalls they cause are short).
    pub hot_loads: usize,
    /// Dependent FMA chain length between memory ops (latency slack).
    pub math_ops: usize,
    /// Inner-loop trip count (uniform per subwarp — non-divergent).
    pub trips: u32,
    /// Unique trailing filler instructions (instruction-footprint knob).
    pub code_pad: usize,
}

impl ShaderProfile {
    /// A minimal miss-shader profile: a couple of math ops, no memory.
    pub fn miss() -> ShaderProfile {
        ShaderProfile {
            tex_ops: 0,
            ldg_ops: 0,
            hot_loads: 0,
            math_ops: 4,
            trips: 1,
            code_pad: 8,
        }
    }
}

/// Full megakernel specification; [`MegakernelConfig::build`] produces the
/// simulator [`Workload`].
#[derive(Debug, Clone, PartialEq)]
pub struct MegakernelConfig {
    /// Trace name (reports).
    pub name: String,
    /// Scene the rays traverse.
    pub scene: SceneKind,
    /// Raytracing rounds (primary + `bounces - 1` secondary casts).
    pub bounces: u32,
    /// Warps launched (occupancy knob; raytracing kernels run warp-starved).
    pub n_warps: usize,
    /// Scene/scatter seed.
    pub seed: u64,
    /// Shader bodies: index `s` handles material `s`; index `materials()`
    /// handles misses. Length must be `materials() + 1`.
    pub profiles: Vec<ShaderProfile>,
    /// Convergent (pre-switch) global loads per bounce — stalls these cause
    /// are *not* in divergent code (the Coll1/Coll2 signature in Figure 3).
    pub common_ldg: usize,
    /// Convergent math per bounce.
    pub common_math: usize,
}

impl MegakernelConfig {
    /// Builds the workload: traces every thread's rays through the BVH,
    /// records the RT trace, and emits the megakernel program.
    ///
    /// # Panics
    /// Panics if `profiles.len() != materials + 1`.
    pub fn build(&self) -> Workload {
        let n_materials = self.scene.materials();
        let n_shaders = n_materials + 1; // + miss shader
        assert_eq!(
            self.profiles.len(),
            n_shaders as usize,
            "need one profile per material plus one for the miss shader"
        );
        let rt_trace = self.trace_rays();
        let program = self.emit(n_shaders);
        Workload::new(self.name.clone(), program, self.n_warps)
            .with_init(Reg(0), InitValue::GlobalTid)
            .with_rt_trace(rt_trace)
            .with_data_seed(self.seed)
    }

    /// Casts and traces every thread's rays, producing the RT-core trace
    /// (ray id `gtid + bounce * total_threads`).
    fn trace_rays(&self) -> RtTrace {
        let bvh = Bvh::build(self.scene.build(self.seed));
        let n_materials = self.scene.materials();
        let miss_shader = n_materials;
        let total = self.n_warps * WARP_SIZE;
        let vp_w = 64u32;
        let vp_h = (total as u32).div_ceil(vp_w);

        let mut results = vec![
            RayResult {
                shader: miss_shader,
                nodes: 2
            };
            total * self.bounces as usize
        ];
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xABCD);
        for gtid in 0..total {
            let mut ray = Scene::camera_ray(gtid as u32 % vp_w, gtid as u32 / vp_w, vp_w, vp_h);
            let mut alive = true;
            for bounce in 0..self.bounces as usize {
                let idx = gtid + bounce * total;
                if !alive {
                    // Escaped rays keep invoking the miss shader cheaply.
                    results[idx] = RayResult {
                        shader: miss_shader,
                        nodes: 2,
                    };
                    continue;
                }
                let t = bvh.traverse(&ray);
                match t.hit {
                    Some(hit) => {
                        results[idx] = RayResult {
                            shader: hit.material,
                            nodes: t.nodes_visited,
                        };
                        // Scatter a secondary ray from the hit point.
                        let p = ray.at(hit.t);
                        let dir = Vec3::new(
                            rng.gen_range(-1.0..1.0f32),
                            rng.gen_range(-1.0..1.0f32),
                            rng.gen_range(-1.0..1.0f32),
                        );
                        let dir = if dir.length() < 1e-3 {
                            Vec3::new(0.0, 1.0, 0.0)
                        } else {
                            dir
                        };
                        ray = Ray::new(p + dir.normalized() * 1e-3, dir);
                    }
                    None => {
                        results[idx] = RayResult {
                            shader: miss_shader,
                            nodes: t.nodes_visited,
                        };
                        alive = false;
                    }
                }
            }
        }
        RtTrace::from_results(
            results,
            RayResult {
                shader: miss_shader,
                nodes: 2,
            },
        )
    }

    /// Emits the megakernel program.
    ///
    /// Register map: `R0` gtid (init) · `R60` ray id · `R61` bounce counter
    /// · `R62` traversal result · `R40..` shader scratch · `R30..` common
    /// section scratch.
    fn emit(&self, n_shaders: u32) -> subwarp_isa::Program {
        const LINE: i64 = 128;
        const STREAM_BASE: i64 = 1 << 33;
        const HOT_BASE: i64 = 1 << 30;
        const HOT_REGION: i64 = 4096;
        const COMMON_BASE: i64 = 1 << 35;
        let total = (self.n_warps * WARP_SIZE) as i64;

        let mut b = ProgramBuilder::new();
        let mk_loop = b.label("megakernel_loop");
        let post = b.label("post_switch");
        let shader_labels: Vec<_> = (0..n_shaders.saturating_sub(1))
            .map(|s| b.label(&format!("shader{s}")))
            .collect();

        b.iadd(Reg(60), Reg(0), Operand::imm(0)); // ray id = gtid
        b.mov(Reg(61), Operand::imm(self.bounces as i64));
        b.mov(Reg(44), Operand::imm(0)); // radiance accumulator
        b.place(mk_loop);
        // Cast the ray; the RT core traverses asynchronously (§II-B).
        b.trace_ray(Reg(62), Reg(60)).wr_sb(Scoreboard(7));
        // Convergent work overlaps the traversal.
        if self.common_ldg > 0 {
            // Per-thread streaming region keyed by ray id: compulsory misses
            // in *convergent* code.
            b.imad(
                Reg(30),
                Reg(60),
                Operand::imm(1024),
                Operand::imm(COMMON_BASE),
            );
            for j in 0..self.common_ldg {
                b.ldg(Reg(31), Reg(30), j as i64 * LINE)
                    .wr_sb(Scoreboard(6));
                b.fadd(Reg(32), Reg(31), Operand::reg(32))
                    .req_sb(Scoreboard(6));
            }
        }
        for _ in 0..self.common_math {
            b.ffma(Reg(33), Reg(32), Operand::fimm(0.5), Operand::fimm(0.25));
        }
        // Dispatch on the hit shader — the divergence point of Figure 5.
        // Each dispatch branch carries a stall-probability hint (§VI future
        // work): the side estimated to expose more load-to-use latency
        // should run *first* so its stalls overlap the other side's
        // execution. The estimate scores each profile by the latency its
        // math slack cannot cover (latencies mirror the Turing-like
        // defaults — the hint models a profiling compiler's guess, not the
        // exact machine). Hints are free metadata; only
        // `DivergeOrder::Hinted` consumes them.
        let stall_score = |p: &ShaderProfile| -> u64 {
            let total = p.tex_ops + p.ldg_ops;
            let hot = p.hot_loads.min(total);
            let (cold, hot_tex) = (total - hot, p.tex_ops.min(hot));
            let hot_ldg = hot - hot_tex;
            let exposed = |n: usize, lat: u64| n as u64 * lat.saturating_sub(p.math_ops as u64);
            p.trips as u64 * (exposed(cold, 600) + exposed(hot_tex, 50) + exposed(hot_ldg, 30))
        };
        b.bssy(Barrier(0), post);
        for (s, label) in shader_labels.iter().enumerate() {
            let cmp = b.isetp(Pred(0), Reg(62), Operand::imm(s as i64), CmpOp::Eq);
            if s == 0 {
                // First use of the traversal result waits on its scoreboard.
                cmp.req_sb(Scoreboard(7));
            }
            let here = stall_score(&self.profiles[s]);
            let later_best = self.profiles[s + 1..]
                .iter()
                .map(stall_score)
                .max()
                .unwrap_or(0);
            // Hint only when one side clearly dominates (≥1.25×) AND the
            // dominant side's exposure is miss-sized (≥100 cycles): a
            // profiling compiler cannot distinguish near-tied paths, and
            // hit-latency differences are within profiling noise. An
            // over-confident hint is worse than admitting ignorance —
            // unhinted branches randomize per warp, recovering order
            // diversity.
            let hint = if here >= 100 && 4 * here >= 5 * later_best {
                Some(StallHint::TakenStalls)
            } else if later_best >= 100 && 4 * later_best >= 5 * here {
                Some(StallHint::FallthroughStalls)
            } else {
                None
            };
            let br = b.bra(*label).pred(Pred(0), false);
            if let Some(h) = hint {
                br.hint(h);
            }
        }
        // Fall-through: the last shader (the miss shader).
        self.emit_shader(
            &mut b,
            (n_shaders - 1) as usize,
            post,
            STREAM_BASE,
            HOT_BASE,
            HOT_REGION,
        );
        for (s, label) in shader_labels.iter().enumerate() {
            b.place(*label);
            self.emit_shader(&mut b, s, post, STREAM_BASE, HOT_BASE, HOT_REGION);
        }
        b.place(post);
        b.bsync(Barrier(0));
        // Next bounce: ray ids advance by the grid size.
        b.iadd(Reg(60), Reg(60), Operand::imm(total));
        b.iadd(Reg(61), Reg(61), Operand::imm(-1));
        b.isetp(Pred(1), Reg(61), Operand::imm(0), CmpOp::Gt);
        b.bra(mk_loop).pred(Pred(1), false);
        // Write the result out and retire.
        b.imad(Reg(34), Reg(0), Operand::imm(8), Operand::imm(1 << 28));
        b.stg(Reg(44), Reg(34), 0);
        b.exit();
        b.build().expect("megakernel program is valid")
    }

    /// Emits one shader body (one switch case) from its profile.
    fn emit_shader(
        &self,
        b: &mut ProgramBuilder,
        s: usize,
        post: subwarp_isa::Label,
        stream_base: i64,
        hot_base: i64,
        hot_region: i64,
    ) {
        const LINE: i64 = 128;
        let p = &self.profiles[s];
        let region = 1i64 << 22;
        // Streaming cursor: per-thread, per-shader, per-bounce fresh lines.
        b.imad(
            Reg(50),
            Reg(60),
            Operand::imm(2048),
            Operand::imm(stream_base + s as i64 * region),
        );
        // Hot base: shared by all lanes → L1D-resident after warm-up.
        b.mov(Reg(51), Operand::imm(hot_base + s as i64 * hot_region));
        if p.trips > 1 {
            b.mov(Reg(48), Operand::imm(p.trips as i64));
        }
        let loop_top = b.label(&format!("shader{s}_loop"));
        b.place(loop_top);
        let mut op_idx = 0usize;
        let total_mem = p.tex_ops + p.ldg_ops;
        let mut emit_mem = |b: &mut ProgramBuilder, tex: bool, j: usize| {
            let sb = Scoreboard((op_idx % 6) as u8);
            let hot = op_idx < p.hot_loads;
            let (base, off) = if hot {
                (Reg(51), (op_idx as i64 * LINE) % hot_region)
            } else {
                (Reg(50), j as i64 * LINE)
            };
            if tex {
                // TLD takes the address directly; fold the offset in.
                b.iadd(Reg(52), base, Operand::imm(off));
                b.tld(Reg(40), Reg(52)).wr_sb(sb);
            } else {
                b.ldg(Reg(40), base, off).wr_sb(sb);
            }
            for m in 0..p.math_ops {
                b.ffma(
                    Reg(45),
                    Reg(45),
                    Operand::fimm(1.0 + m as f32 * 1e-6),
                    Operand::fimm(0.5),
                );
            }
            // The load-to-use point.
            b.fadd(Reg(44), Reg(40), Operand::reg(44)).req_sb(sb);
            op_idx += 1;
        };
        for j in 0..p.tex_ops {
            emit_mem(b, true, j);
        }
        for j in 0..p.ldg_ops {
            emit_mem(b, false, p.tex_ops + j);
        }

        if p.trips > 1 {
            // Advance streaming past this trip's lines and loop back
            // (trip count is uniform per subwarp: no divergence, no barrier
            // needed).
            b.iadd(
                Reg(50),
                Reg(50),
                Operand::imm((total_mem as i64 + 1) * LINE),
            );
            b.iadd(Reg(48), Reg(48), Operand::imm(-1));
            b.isetp(Pred(2), Reg(48), Operand::imm(0), CmpOp::Gt);
            b.bra(loop_top).pred(Pred(2), false);
        }
        for k in 0..p.code_pad {
            b.fmul(Reg(46), Reg(45), Operand::fimm(1.0 + k as f32 * 1e-7));
        }
        b.bra(post);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subwarp_core::{SiConfig, Simulator, SmConfig};

    fn small_config() -> MegakernelConfig {
        let scene = SceneKind::Soup {
            triangles: 512,
            materials: 4,
        };
        MegakernelConfig {
            name: "test-mk".into(),
            scene,
            bounces: 2,
            n_warps: 4,
            seed: 42,
            profiles: (0..4)
                .map(|i| ShaderProfile {
                    tex_ops: 1 + i % 2,
                    ldg_ops: 1,
                    hot_loads: 0,
                    math_ops: 2,
                    trips: 1,
                    code_pad: 8,
                })
                .chain([ShaderProfile::miss()])
                .collect(),
            common_ldg: 1,
            common_math: 4,
        }
    }

    #[test]
    fn build_produces_runnable_workload() {
        let wl = small_config().build();
        assert_eq!(wl.rt_trace.len(), 4 * 32 * 2);
        let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
            .run(&wl)
            .unwrap();
        assert!(stats.instructions > 0);
        assert!(stats.rt_traversals > 0);
        assert!(stats.divergences > 0, "soup scene must splinter warps");
        assert!(stats.reconvergences > 0);
    }

    #[test]
    fn si_helps_the_divergent_megakernel() {
        let wl = small_config().build();
        let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
            .run(&wl)
            .unwrap();
        let si = Simulator::new(SmConfig::turing_like(), SiConfig::best())
            .run(&wl)
            .unwrap();
        assert!(
            si.cycles <= base.cycles,
            "SI should not slow the megakernel: {} vs {}",
            si.cycles,
            base.cycles
        );
        assert!(
            si.subwarp_stalls > 0,
            "divergent stalls should trigger demotions"
        );
    }

    #[test]
    #[should_panic(expected = "one profile per material")]
    fn wrong_profile_count_panics() {
        let mut c = small_config();
        c.profiles.pop();
        c.build();
    }

    #[test]
    fn deterministic_build() {
        let a = small_config().build();
        let b = small_config().build();
        assert_eq!(a, b);
    }
}
