//! Stages and iterators: the computational-DAG building blocks.
//!
//! A [`Subgraph`] is a small DAG of [`Stage`]s in topological order. One
//! stage is the *anchor*: the compute-intensive stage (GEMM, convolution,
//! …) that receives multi-level tiling. Elementwise stages around it are
//! candidates for inlining or compute-at fusion, exactly the structures the
//! sketch-generation rules of the paper (Table 2, adopted from Ansor)
//! operate on.

use serde::{Deserialize, Serialize};

/// Loop iterator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IterKind {
    /// Indexes the output tensor (parallelizable).
    Spatial,
    /// Reduced over (parallelizable only through `rfactor`).
    Reduction,
}

/// A loop iterator of a stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterVar {
    /// Human-readable loop variable name (`m`, `co`, `ky`, …).
    pub name: String,
    /// Trip count of the loop.
    pub extent: u32,
    /// Spatial or reduction.
    pub kind: IterKind,
}

impl IterVar {
    /// A spatial (output-indexing) iterator.
    pub fn spatial(name: impl Into<String>, extent: u32) -> Self {
        Self {
            name: name.into(),
            extent,
            kind: IterKind::Spatial,
        }
    }

    /// A reduction (accumulated-over) iterator.
    pub fn reduction(name: impl Into<String>, extent: u32) -> Self {
        Self {
            name: name.into(),
            extent,
            kind: IterKind::Reduction,
        }
    }
}

/// One dimension of an input-tensor access.
///
/// The dimension extent is (approximately) the product of the extents of
/// the contributing iterators plus a window term: a convolution input
/// spatial dimension indexed as `y*stride + ky` contributes
/// `tile(y)*stride + (k-1)` elements for a tile of `y`. This is all the
/// cache model needs to compute tile working sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessDim {
    /// Indices into the stage's iterator list.
    pub iters: Vec<usize>,
    /// Additive halo (kernel-1 for convolutions; 0 for direct accesses).
    pub window: u32,
    /// Multiplicative stride applied to the first iterator.
    pub stride: u32,
}

impl AccessDim {
    /// Dimension indexed directly by one iterator.
    pub fn direct(iter: usize) -> Self {
        Self {
            iters: vec![iter],
            window: 0,
            stride: 1,
        }
    }

    /// Dimension indexed as `iter·stride + k` for a kernel window of
    /// `window + 1` taps (convolution input pattern).
    pub fn windowed(iter: usize, window: u32, stride: u32) -> Self {
        Self {
            iters: vec![iter],
            window,
            stride,
        }
    }

    /// Footprint (elements) of this dimension for given per-iterator tile
    /// extents.
    pub fn footprint(&self, tile_extent: impl Fn(usize) -> u64) -> u64 {
        self.footprints(|i| [tile_extent(i)])[0]
    }

    /// [`AccessDim::footprint`] of `N` tiles in one walk of the access:
    /// `tile_extents(i)[t]` is tile `t`'s extent along iterator `i`.
    pub fn footprints<const N: usize>(&self, tile_extents: impl Fn(usize) -> [u64; N]) -> [u64; N] {
        let mut base = [1u64; N];
        for &i in &self.iters {
            let extents = tile_extents(i);
            for (b, e) in base.iter_mut().zip(extents) {
                *b *= e.max(1);
            }
        }
        base.map(|b| b.saturating_mul(self.stride.max(1) as u64) + self.window as u64)
    }
}

/// An input tensor read by a stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputAccess {
    /// Tensor name (`A`, `B`, `data`, `weight`, …).
    pub name: String,
    /// Access pattern per tensor dimension.
    pub dims: Vec<AccessDim>,
    /// Bytes per element (f32 = 4 everywhere in the evaluation).
    pub elem_bytes: u32,
}

impl InputAccess {
    /// Footprint in bytes of the slice of this input touched by a tile with
    /// the given per-iterator extents.
    pub fn tile_bytes(&self, tile_extent: &impl Fn(usize) -> u64) -> u64 {
        self.tiles_bytes(&|i| [tile_extent(i)])[0]
    }

    /// [`InputAccess::tile_bytes`] of `N` tiles in one walk of the access.
    pub fn tiles_bytes<const N: usize>(
        &self,
        tile_extents: &impl Fn(usize) -> [u64; N],
    ) -> [u64; N] {
        let mut elems = [1u64; N];
        for d in &self.dims {
            for (e, f) in elems.iter_mut().zip(d.footprints(tile_extents)) {
                *e *= f;
            }
        }
        elems.map(|e| e.saturating_mul(self.elem_bytes as u64))
    }

    /// Total footprint in bytes (full iteration extents).
    pub fn total_bytes(&self, iters: &[IterVar]) -> u64 {
        self.tile_bytes(&|i| iters[i].extent as u64)
    }
}

/// What kind of computation a stage performs. Drives both sketch rules and
/// the simulator's arithmetic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Compute-intensive stage with data reuse (GEMM / convolution core).
    /// Eligible for multi-level tiling, cache-write and rfactor rules.
    Anchor,
    /// Elementwise map over its producer (ReLU, bias-add, tanh, scaling…).
    /// Eligible for the inline rule.
    Elementwise,
    /// Row-wise reduction + normalization (softmax-like). Tiled on spatial
    /// iterators only.
    RowReduce,
}

/// One stage of a subgraph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stage {
    /// Stage name (unique within its subgraph).
    pub name: String,
    /// Computation class (drives sketch rules and the simulator).
    pub kind: StageKind,
    /// Spatial iterators first, then reduction iterators.
    pub iters: Vec<IterVar>,
    /// Input tensors (excluding intermediate producers inside the subgraph,
    /// which are listed in `producers`).
    pub inputs: Vec<InputAccess>,
    /// Indices of producer stages inside the subgraph.
    pub producers: Vec<usize>,
    /// Floating point operations per innermost-loop point (2.0 for FMA).
    pub flops_per_point: f64,
}

impl Stage {
    /// Number of spatial iterators (they precede reduction iterators).
    pub fn num_spatial(&self) -> usize {
        self.iters
            .iter()
            .filter(|i| i.kind == IterKind::Spatial)
            .count()
    }

    /// Number of reduction iterators.
    pub fn num_reduction(&self) -> usize {
        self.iters.len() - self.num_spatial()
    }

    /// Product of spatial extents = number of output elements.
    pub fn output_elems(&self) -> u64 {
        self.iters
            .iter()
            .filter(|i| i.kind == IterKind::Spatial)
            .map(|i| i.extent as u64)
            .product()
    }

    /// Product of reduction extents (1 when none).
    pub fn reduction_elems(&self) -> u64 {
        self.iters
            .iter()
            .filter(|i| i.kind == IterKind::Reduction)
            .map(|i| i.extent as u64)
            .product()
    }

    /// Total loop-nest points.
    pub fn total_points(&self) -> u64 {
        self.output_elems().saturating_mul(self.reduction_elems())
    }

    /// Total floating-point operations performed by this stage.
    pub fn flops(&self) -> f64 {
        self.total_points() as f64 * self.flops_per_point
    }

    /// True when the stage re-reads input data across iterations (i.e. has
    /// data reuse, the precondition of the tiling / cache-write rules).
    pub fn has_data_reuse(&self) -> bool {
        match self.kind {
            StageKind::Anchor => true,
            StageKind::Elementwise => false,
            StageKind::RowReduce => false,
        }
    }
}

/// A subgraph: the unit the task scheduler allocates trials to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subgraph {
    /// Subgraph (task) name; unique within a network.
    pub name: String,
    /// Stages in topological order; the last stage produces the output.
    pub stages: Vec<Stage>,
    /// Index of the anchor stage.
    pub anchor: usize,
    /// Appearance count `w_n` in the network (1 for standalone operators).
    pub weight: f64,
}

impl Subgraph {
    /// Single-anchor helper used by the operator workloads.
    pub fn single(name: impl Into<String>, anchor: Stage) -> Self {
        Self {
            name: name.into(),
            stages: vec![anchor],
            anchor: 0,
            weight: 1.0,
        }
    }

    /// The compute-intensive anchor stage.
    pub fn anchor_stage(&self) -> &Stage {
        &self.stages[self.anchor]
    }

    /// Similarity key (anchor iterator shape): subgraphs with the same key
    /// share a parameter-space structure, so measurement records and cost
    /// models transfer between them (e.g. repeated transformer blocks).
    pub fn similarity_key(&self) -> u64 {
        let a = self.anchor_stage();
        (a.num_spatial() as u64) << 32 | a.num_reduction() as u64
    }

    /// Total FLOPs of one execution of the subgraph.
    pub fn flops(&self) -> f64 {
        self.stages.iter().map(Stage::flops).sum()
    }

    /// Stages consuming the anchor output (candidates for the
    /// tile-and-fuse rule).
    pub fn anchor_consumers(&self) -> Vec<usize> {
        (0..self.stages.len())
            .filter(|&s| self.stages[s].producers.contains(&self.anchor))
            .collect()
    }

    /// Elementwise stages that can be inlined into their consumer.
    pub fn inlinable_stages(&self) -> Vec<usize> {
        (0..self.stages.len())
            .filter(|&s| {
                self.stages[s].kind == StageKind::Elementwise
                    && (0..self.stages.len()).any(|c| self.stages[c].producers.contains(&s))
            })
            .collect()
    }

    /// Bytes of all external inputs of the subgraph (for roofline bounds).
    pub fn input_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| {
                s.inputs
                    .iter()
                    .map(|a| a.total_bytes(&s.iters))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Bytes of the subgraph output tensor.
    pub fn output_bytes(&self) -> u64 {
        let out = self.stages.last().expect("subgraph has at least one stage");
        out.output_elems() * 4
    }

    /// Checks the structural invariants expected by the rest of the system.
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("subgraph has no stages".into());
        }
        if self.anchor >= self.stages.len() {
            return Err(format!("anchor index {} out of range", self.anchor));
        }
        if self.stages[self.anchor].kind != StageKind::Anchor {
            return Err(format!("stage {} is not an anchor", self.anchor));
        }
        for (si, st) in self.stages.iter().enumerate() {
            for &p in &st.producers {
                if p >= si {
                    return Err(format!(
                        "stage {} ({}) consumes stage {} which is not earlier in topological order",
                        si, st.name, p
                    ));
                }
            }
            for iv in &st.iters {
                if iv.extent == 0 {
                    return Err(format!(
                        "iterator {} of stage {} has zero extent",
                        iv.name, st.name
                    ));
                }
            }
            for acc in &st.inputs {
                for d in &acc.dims {
                    for &ii in &d.iters {
                        if ii >= st.iters.len() {
                            return Err(format!(
                                "access {} of stage {} references iterator {} out of range",
                                acc.name, st.name, ii
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::gemm;

    #[test]
    fn gemm_stage_arithmetic() {
        let g = gemm(128, 64, 32);
        let a = g.anchor_stage();
        assert_eq!(a.num_spatial(), 2);
        assert_eq!(a.num_reduction(), 1);
        assert_eq!(a.output_elems(), 128 * 32);
        assert_eq!(a.reduction_elems(), 64);
        assert_eq!(a.flops(), 2.0 * 128.0 * 64.0 * 32.0);
        assert!(a.has_data_reuse());
        g.validate().expect("valid");
    }

    #[test]
    fn access_dim_footprints() {
        let d = AccessDim::direct(0);
        assert_eq!(d.footprint(|_| 8), 8);
        let w = AccessDim::windowed(0, 2, 2);
        // tile of 8 outputs with stride 2 and window 2 touches 18 inputs
        assert_eq!(w.footprint(|_| 8), 18);
    }

    #[test]
    fn validate_catches_bad_order() {
        let mut g = gemm(16, 16, 16);
        g.stages[0].producers.push(0);
        assert!(g.validate().is_err());
    }
}
