#![warn(missing_docs)]

//! # subwarp-rt — BVH traversal and the RT-core model
//!
//! Raytracing megakernels owe their divergence to *which* triangle each
//! ray hits and their Amdahl-limited runtime to *how long* each BVH
//! traversal takes (paper §II-B, §VI). Rather than synthesizing divergence
//! patterns, this crate actually builds a Bounding Volume Hierarchy over a
//! triangle scene and traces rays through it:
//!
//! - [`Vec3`], [`Ray`], [`Aabb`], [`Triangle`] — minimal geometry with
//!   slab-method ray/box and Möller–Trumbore ray/triangle intersection.
//! - [`Bvh`] — median-split construction, iterative stack traversal that
//!   reports both the closest hit and the number of nodes visited.
//! - [`Scene`] — procedural scene generators whose material assignment
//!   controls how many distinct shaders (and therefore subwarps) a warp
//!   splinters into.
//! - [`RtCoreModel`] — the latency model of the RT core: a traversal
//!   completes `base + per_node * nodes_visited` cycles after issue,
//!   asynchronously to the SM (paper §II-B: "The SM can independently
//!   perform other compute or graphics work during a BVH traversal").
//!
//! ```
//! use subwarp_rt::{Scene, Bvh, Ray, Vec3};
//!
//! let bvh = Bvh::build(Scene::random_soup(64, 7));
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
//! let t = bvh.traverse(&ray);
//! assert!(t.nodes_visited > 0);
//! ```

mod bvh;
mod geom;
mod rtcore;
mod scene;
mod vec3;

pub use bvh::{Bvh, Traversal};
pub use geom::{Aabb, Hit, Ray, Triangle};
pub use rtcore::RtCoreModel;
pub use scene::Scene;
pub use vec3::Vec3;
