//! Bounding Volume Hierarchy construction and traversal.

use crate::geom::{Aabb, Hit, Ray};
use crate::scene::Scene;

/// The result of tracing one ray: the closest hit (if any) and the number
/// of BVH nodes visited, which drives the RT-core latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// Closest hit, or `None` for a miss (→ the megakernel's miss shader).
    pub hit: Option<Hit>,
    /// Nodes visited during traversal (interior + leaf).
    pub nodes_visited: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Interior { aabb: Aabb, left: u32, right: u32 },
    Leaf { aabb: Aabb, first: u32, count: u32 },
}

impl Node {
    fn aabb(&self) -> &Aabb {
        match self {
            Node::Interior { aabb, .. } | Node::Leaf { aabb, .. } => aabb,
        }
    }
}

/// A median-split BVH over a [`Scene`]'s triangles.
#[derive(Debug, Clone, PartialEq)]
pub struct Bvh {
    nodes: Vec<Node>,
    /// Triangle indices into the scene, reordered by construction.
    order: Vec<u32>,
    scene: Scene,
}

/// Maximum triangles per leaf.
const LEAF_SIZE: usize = 4;

impl Bvh {
    /// Builds a BVH by recursive median split on the longest centroid axis,
    /// taking ownership of the scene (read it back with [`Bvh::scene`]).
    ///
    /// # Panics
    /// Panics if the scene has no triangles.
    pub fn build(scene: Scene) -> Bvh {
        assert!(
            !scene.triangles().is_empty(),
            "cannot build a BVH over an empty scene"
        );
        let mut order: Vec<u32> = (0..scene.triangles().len() as u32).collect();
        let mut nodes = Vec::new();
        let n = order.len();
        build_node(&scene, &mut order, 0, n, &mut nodes);
        Bvh {
            nodes,
            order,
            scene,
        }
    }

    /// Number of nodes in the hierarchy.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The scene this BVH was built over.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Traces `ray` to its closest hit, counting visited nodes.
    pub fn traverse(&self, ray: &Ray) -> Traversal {
        let mut stack: Vec<u32> = vec![0];
        let mut visited = 0u32;
        let mut best: Option<Hit> = None;
        let mut t_max = f32::MAX;

        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if !node.aabb().intersects(ray, 0.0, t_max) {
                continue;
            }
            visited += 1;
            match node {
                Node::Interior { left, right, .. } => {
                    stack.push(*right);
                    stack.push(*left);
                }
                Node::Leaf { first, count, .. } => {
                    for i in *first..*first + *count {
                        let tri_idx = self.order[i as usize];
                        let tri = &self.scene.triangles()[tri_idx as usize];
                        if let Some(t) = tri.intersect(ray) {
                            if t < t_max {
                                t_max = t;
                                best = Some(Hit {
                                    triangle: tri_idx,
                                    material: tri.material,
                                    t,
                                });
                            }
                        }
                    }
                }
            }
        }
        Traversal {
            hit: best,
            nodes_visited: visited.max(1),
        }
    }
}

fn build_node(
    scene: &Scene,
    order: &mut [u32],
    first: usize,
    count: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let slice = &order[first..first + count];
    let mut aabb = Aabb::EMPTY;
    let mut centroid_bounds = Aabb::EMPTY;
    for &i in slice.iter() {
        let t = &scene.triangles()[i as usize];
        let b = t.aabb();
        aabb = aabb.union(b);
        centroid_bounds = centroid_bounds.grow(b.centroid());
    }

    let my_index = nodes.len() as u32;
    if count <= LEAF_SIZE {
        nodes.push(Node::Leaf {
            aabb,
            first: first as u32,
            count: count as u32,
        });
        return my_index;
    }

    let axis = centroid_bounds.longest_axis();
    let mid = first + count / 2;
    // Median split on centroid coordinate; fall back to a leaf if all
    // centroids coincide (select_nth still succeeds, so just split evenly).
    order[first..first + count].select_nth_unstable_by(count / 2, |&a, &b| {
        let ca = scene.triangles()[a as usize].aabb().centroid().axis(axis);
        let cb = scene.triangles()[b as usize].aabb().centroid().axis(axis);
        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
    });

    nodes.push(Node::Interior {
        aabb,
        left: 0,
        right: 0,
    });
    let left = build_node(scene, order, first, mid - first, nodes);
    let right = build_node(scene, order, mid, first + count - mid, nodes);
    match &mut nodes[my_index as usize] {
        Node::Interior {
            left: l, right: r, ..
        } => {
            *l = left;
            *r = right;
        }
        Node::Leaf { .. } => unreachable!("interior node replaced by leaf"),
    }
    my_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    #[test]
    fn single_triangle_hit_and_miss() {
        let bvh = Bvh::build(Scene::two_triangles());
        // Ray at left triangle (material 0, centered x = -2).
        let hit = bvh.traverse(&Ray::new(
            Vec3::new(-2.0, 0.0, -5.0),
            Vec3::new(0.0, 0.0, 1.0),
        ));
        let h = hit.hit.expect("left triangle hit");
        assert_eq!(h.material, 0);
        // Ray at right triangle (material 1, centered x = +2).
        let hit = bvh.traverse(&Ray::new(
            Vec3::new(2.0, 0.0, -5.0),
            Vec3::new(0.0, 0.0, 1.0),
        ));
        assert_eq!(hit.hit.expect("right triangle hit").material, 1);
        // Ray between them misses.
        let miss = bvh.traverse(&Ray::new(
            Vec3::new(0.0, 10.0, -5.0),
            Vec3::new(0.0, 0.0, 1.0),
        ));
        assert!(miss.hit.is_none());
        assert!(miss.nodes_visited >= 1);
    }

    #[test]
    fn closest_hit_wins() {
        // Two parallel triangles stacked in z; ray must report the nearer.
        let mut scene = Scene::empty();
        scene.push(crate::geom::Triangle {
            a: Vec3::new(-1.0, -1.0, 2.0),
            b: Vec3::new(1.0, -1.0, 2.0),
            c: Vec3::new(0.0, 1.0, 2.0),
            material: 7,
        });
        scene.push(crate::geom::Triangle {
            a: Vec3::new(-1.0, -1.0, 5.0),
            b: Vec3::new(1.0, -1.0, 5.0),
            c: Vec3::new(0.0, 1.0, 5.0),
            material: 9,
        });
        let bvh = Bvh::build(scene);
        let t = bvh.traverse(&Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0)));
        let h = t.hit.expect("hit");
        assert_eq!(h.material, 7);
        assert!((h.t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn bvh_matches_brute_force_on_random_scene() {
        let scene = Scene::random_soup(200, 11);
        let bvh = Bvh::build(scene.clone());
        let origins = [
            Vec3::new(0.0, 0.0, -10.0),
            Vec3::new(2.0, 1.0, -10.0),
            Vec3::new(-3.0, -2.0, -10.0),
        ];
        for (i, &o) in origins.iter().enumerate() {
            for j in 0..50 {
                let dir = Vec3::new(
                    (i as f32 - 1.0) * 0.1 + (j as f32) * 0.005,
                    (j as f32) * 0.01 - 0.25,
                    1.0,
                );
                let ray = Ray::new(o, dir);
                let bvh_hit = bvh.traverse(&ray).hit;
                // Brute force reference.
                let mut best: Option<(u32, f32)> = None;
                for (k, tri) in scene.triangles().iter().enumerate() {
                    if let Some(t) = tri.intersect(&ray) {
                        if best.is_none_or(|(_, bt)| t < bt) {
                            best = Some((k as u32, t));
                        }
                    }
                }
                match (bvh_hit, best) {
                    (None, None) => {}
                    (Some(h), Some((k, t))) => {
                        assert_eq!(h.triangle, k);
                        assert!((h.t - t).abs() < 1e-5);
                    }
                    (a, b) => panic!("bvh {a:?} vs brute {b:?}"),
                }
            }
        }
    }

    #[test]
    fn deeper_scenes_visit_more_nodes() {
        let small = Bvh::build(Scene::random_soup(8, 3));
        let large = Bvh::build(Scene::random_soup(4096, 3));
        let ray = Ray::new(Vec3::new(0.0, 0.0, -10.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(large.traverse(&ray).nodes_visited > small.traverse(&ray).nodes_visited);
        assert!(large.node_count() > small.node_count());
    }

    #[test]
    #[should_panic(expected = "empty scene")]
    fn empty_scene_panics() {
        Bvh::build(Scene::empty());
    }
}
