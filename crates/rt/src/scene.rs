//! Procedural triangle scenes.
//!
//! The *material entropy* of a scene — how many distinct materials a warp's
//! rays are likely to strike — controls how many subwarps the megakernel
//! splinters into, which is the primary knob behind the paper's per-trace
//! divergence differences (Figure 3).

use crate::geom::{Ray, Triangle};
use crate::vec3::Vec3;
use subwarp_prng::SmallRng;

/// A bag of triangles with material ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    triangles: Vec<Triangle>,
    n_materials: u32,
}

impl Scene {
    /// An empty scene.
    pub fn empty() -> Scene {
        Scene::default()
    }

    /// The triangles in the scene.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Number of distinct materials used (shader-table size).
    pub fn material_count(&self) -> u32 {
        self.n_materials
    }

    /// Adds a triangle.
    pub fn push(&mut self, t: Triangle) {
        self.n_materials = self.n_materials.max(t.material + 1);
        self.triangles.push(t);
    }

    /// The two-triangle pedagogical scene of the paper's Figures 1 and 5:
    /// triangle "A" (material 0) on the left, "B" (material 1) on the right.
    pub fn two_triangles() -> Scene {
        let mut s = Scene::empty();
        s.push(Triangle {
            a: Vec3::new(-3.0, -1.5, 0.0),
            b: Vec3::new(-1.0, -1.5, 0.0),
            c: Vec3::new(-2.0, 1.5, 0.0),
            material: 0,
        });
        s.push(Triangle {
            a: Vec3::new(1.0, -1.5, 0.0),
            b: Vec3::new(3.0, -1.5, 0.0),
            c: Vec3::new(2.0, 1.5, 0.0),
            material: 1,
        });
        s
    }

    /// A random triangle soup with 8 materials in the unit region
    /// `[-4, 4]^2 × [0, 8]`.
    pub fn random_soup(n: usize, seed: u64) -> Scene {
        Scene::soup_with_materials(n, 8, seed)
    }

    /// A random triangle soup with `n_materials` distinct materials.
    /// Material assignment is uniform, giving maximum hit entropy — rays in
    /// a warp scatter across many shaders (high divergence degree).
    pub fn soup_with_materials(n: usize, n_materials: u32, seed: u64) -> Scene {
        assert!(n_materials >= 1, "need at least one material");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = Scene::empty();
        s.n_materials = n_materials;
        for _ in 0..n {
            let center = Vec3::new(
                rng.gen_range(-4.0..4.0),
                rng.gen_range(-4.0..4.0),
                rng.gen_range(0.0..8.0),
            );
            let jitter = |rng: &mut SmallRng| {
                Vec3::new(
                    rng.gen_range(-0.6..0.6),
                    rng.gen_range(-0.6..0.6),
                    rng.gen_range(-0.2..0.2),
                )
            };
            let (a, b, c) = (
                center + jitter(&mut rng),
                center + jitter(&mut rng),
                center + jitter(&mut rng),
            );
            // Skip degenerate slivers that normalize() would reject later.
            if (b - a).cross(c - a).length() < 1e-4 {
                continue;
            }
            s.triangles.push(Triangle {
                a,
                b,
                c,
                material: rng.gen_range(0..n_materials),
            });
        }
        // Ensure non-empty even if every sample degenerated (vanishingly
        // unlikely, but keeps Bvh::build's precondition honest).
        if s.triangles.is_empty() {
            s.push(Triangle {
                a: Vec3::new(-1.0, -1.0, 4.0),
                b: Vec3::new(1.0, -1.0, 4.0),
                c: Vec3::new(0.0, 1.0, 4.0),
                material: 0,
            });
        }
        s
    }

    /// A structured "city" of axis-aligned quads (two triangles each) on a
    /// `w × d` grid, with material assigned by grid column. Rays from a
    /// coherent camera mostly strike the *same* material as their neighbours
    /// — low hit entropy, low divergence degree (the Coll1/Coll2-like end of
    /// the paper's suite).
    pub fn grid_city(w: usize, d: usize, n_materials: u32, seed: u64) -> Scene {
        assert!(w >= 1 && d >= 1 && n_materials >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = Scene::empty();
        s.n_materials = n_materials;
        for i in 0..w {
            for j in 0..d {
                let x = (i as f32 - w as f32 / 2.0) * 2.0;
                let z = 2.0 + j as f32 * 2.0;
                let h: f32 = rng.gen_range(0.5..3.0);
                let material = (i as u32 * n_materials / w as u32).min(n_materials - 1);
                // Front face of a "building": a quad as two triangles.
                let (x0, x1, y0, y1) = (x - 0.9, x + 0.9, -1.5, -1.5 + h);
                s.triangles.push(Triangle {
                    a: Vec3::new(x0, y0, z),
                    b: Vec3::new(x1, y0, z),
                    c: Vec3::new(x1, y1, z),
                    material,
                });
                s.triangles.push(Triangle {
                    a: Vec3::new(x0, y0, z),
                    b: Vec3::new(x1, y1, z),
                    c: Vec3::new(x0, y1, z),
                    material,
                });
            }
        }
        s
    }

    /// A Cornell-box-like enclosure: five large walls with per-wall
    /// materials plus two boxes of blocks inside. Rays mostly strike walls
    /// (coherent), with block hits mixing in moderate entropy — between
    /// [`Scene::grid_city`] and [`Scene::random_soup`].
    pub fn cornell_like() -> Scene {
        let mut s = Scene::empty();
        let mut quad = |a: Vec3, b: Vec3, c: Vec3, d: Vec3, material: u32| {
            s.triangles.push(Triangle { a, b, c, material });
            s.triangles.push(Triangle {
                a,
                b: c,
                c: d,
                material,
            });
            s.n_materials = s.n_materials.max(material + 1);
        };
        let (lo, hi, back) = (-4.0, 4.0, 8.0);
        // Back wall (0), floor (1), ceiling (2), left (3), right (4).
        quad(
            Vec3::new(lo, lo, back),
            Vec3::new(hi, lo, back),
            Vec3::new(hi, hi, back),
            Vec3::new(lo, hi, back),
            0,
        );
        quad(
            Vec3::new(lo, lo, 0.0),
            Vec3::new(hi, lo, 0.0),
            Vec3::new(hi, lo, back),
            Vec3::new(lo, lo, back),
            1,
        );
        quad(
            Vec3::new(lo, hi, 0.0),
            Vec3::new(hi, hi, 0.0),
            Vec3::new(hi, hi, back),
            Vec3::new(lo, hi, back),
            2,
        );
        quad(
            Vec3::new(lo, lo, 0.0),
            Vec3::new(lo, hi, 0.0),
            Vec3::new(lo, hi, back),
            Vec3::new(lo, lo, back),
            3,
        );
        quad(
            Vec3::new(hi, lo, 0.0),
            Vec3::new(hi, hi, 0.0),
            Vec3::new(hi, hi, back),
            Vec3::new(hi, lo, back),
            4,
        );
        // Two inner blocks (materials 5 and 6): front faces only.
        quad(
            Vec3::new(-2.5, -4.0, 4.0),
            Vec3::new(-0.5, -4.0, 4.0),
            Vec3::new(-0.5, -1.0, 4.0),
            Vec3::new(-2.5, -1.0, 4.0),
            5,
        );
        quad(
            Vec3::new(0.8, -4.0, 5.5),
            Vec3::new(2.8, -4.0, 5.5),
            Vec3::new(2.8, 0.5, 5.5),
            Vec3::new(0.8, 0.5, 5.5),
            6,
        );
        s
    }

    /// Generates the primary camera ray for pixel `(px, py)` of a `w × h`
    /// viewport: a pinhole camera at `(0, 0, -10)` looking down +z with a
    /// small deterministic jitter derived from the pixel index.
    pub fn camera_ray(px: u32, py: u32, w: u32, h: u32) -> Ray {
        let u = (px as f32 + 0.5) / w as f32 * 2.0 - 1.0;
        let v = (py as f32 + 0.5) / h as f32 * 2.0 - 1.0;
        let dir = Vec3::new(u * 4.0, v * 4.0, 10.0);
        Ray::new(Vec3::new(0.0, 0.0, -10.0), dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::Bvh;

    #[test]
    fn two_triangle_scene_has_two_materials() {
        let s = Scene::two_triangles();
        assert_eq!(s.triangles().len(), 2);
        assert_eq!(s.material_count(), 2);
    }

    #[test]
    fn soup_is_deterministic_per_seed() {
        let a = Scene::random_soup(100, 5);
        let b = Scene::random_soup(100, 5);
        let c = Scene::random_soup(100, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn soup_materials_in_range() {
        let s = Scene::soup_with_materials(500, 4, 9);
        assert!(s.triangles().iter().all(|t| t.material < 4));
        assert_eq!(s.material_count(), 4);
    }

    #[test]
    fn grid_city_material_locality() {
        // Adjacent columns share materials — coherent camera rays striking
        // neighbouring buildings mostly see the same shader.
        let s = Scene::grid_city(16, 4, 4, 1);
        assert_eq!(s.triangles().len(), 16 * 4 * 2);
        let first_col: Vec<u32> = s.triangles()[0..8].iter().map(|t| t.material).collect();
        assert!(first_col.iter().all(|&m| m == first_col[0]));
    }

    #[test]
    fn cornell_scene_encloses_the_camera_frustum() {
        let s = Scene::cornell_like();
        assert_eq!(s.material_count(), 7);
        let bvh = Bvh::build(s);
        // Every camera ray hits something (the box encloses the view).
        for i in 0..64u32 {
            let ray = Scene::camera_ray(i % 8, i / 8, 8, 8);
            assert!(bvh.traverse(&ray).hit.is_some(), "ray {i} escaped the box");
        }
    }

    #[test]
    fn camera_rays_cover_the_scene() {
        // A dense soup should be hit by a decent fraction of camera rays.
        let bvh = Bvh::build(Scene::random_soup(2000, 2));
        let (w, h) = (16, 16);
        let hits = (0..w * h)
            .filter(|&i| {
                let ray = Scene::camera_ray(i % w, i / w, w, h);
                bvh.traverse(&ray).hit.is_some()
            })
            .count();
        assert!(hits > (w * h / 4) as usize, "only {hits} camera rays hit");
    }

    #[test]
    fn hit_entropy_orders_soup_above_city() {
        // The soup scene should scatter a warp's 32 rays across more
        // materials than the structured city — this is the divergence knob.
        let count_materials = |scene: Scene| {
            let bvh = Bvh::build(scene);
            let mut mats = std::collections::HashSet::new();
            for i in 0..32 {
                let ray = Scene::camera_ray(i % 8, i / 8, 8, 4);
                if let Some(hit) = bvh.traverse(&ray).hit {
                    mats.insert(hit.material);
                }
            }
            mats.len()
        };
        let soup = Scene::soup_with_materials(3000, 8, 3);
        let city = Scene::grid_city(8, 4, 8, 3);
        assert!(
            count_materials(soup) > count_materials(city),
            "soup should have higher hit entropy"
        );
    }
}
