//! Single regression tree with XGBoost-style split gain.
//!
//! Exact greedy splitting over a column-major `FitMatrix`, each node
//! re-sorting `(key, row)` pairs per live feature. A tree is built by one
//! per-node function under two drivers: the inline recursion, and the
//! fit's node queue (`queue.rs`) for nodes of at least
//! `QUEUE_MIN_ROWS` rows, assembled into the same arena. Squared-error
//! objective: gradient `g = pred - target`, hessian `h = 1`, leaf weight
//! `w = -G / (H + λ)`, split gain `½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) −
//! G²/(H+λ)] − γ`.

use serde::{Deserialize, Serialize};

use crate::queue::{self, NodeQueue, Recorded, Work};

/// Hyper-parameters of one tree (shared with the booster).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum hessian sum (= sample count for squared loss) per child.
    pub min_child_weight: f64,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain to split (γ).
    pub gamma: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_child_weight: 2.0,
            lambda: 1.0,
            gamma: 1e-6,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f32,
        /// child indices into the node arena
        left: usize,
        right: usize,
    },
}

/// Flattened structure-of-arrays tree layout for batch inference.
///
/// The boxed-`enum` arena of [`RegressionTree`] is compiled into four
/// contiguous arrays. Children of a split are re-laid out *adjacently*
/// (right child = left child + 1), so one `left_child` array encodes both
/// links; `left_child[i] == 0` marks a leaf (the root at slot 0 can never
/// be anyone's child). Walking this layout touches two cache lines per
/// level instead of chasing 24-byte enum nodes, and iterating one tree
/// over a whole candidate matrix keeps its arrays hot in L1.
///
/// The walk performs *exactly* the same comparisons on the same `f32`
/// thresholds as [`RegressionTree::predict`], so predictions are
/// bit-identical to the pointer walk.
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    feature_idx: Vec<u32>,
    threshold: Vec<f32>,
    left_child: Vec<u32>,
    leaf_value: Vec<f64>,
    /// `1 + max(feature_idx over splits)`, 0 for split-free trees: the
    /// minimum row width for which every feature lookup is in bounds, so
    /// the gather walk can skip the scalar `x.get(f)` bounds dance.
    features_needed: u32,
}

impl FlatTree {
    /// Compiles the node arena into the flat layout (children adjacent).
    fn from_nodes(nodes: &[Node]) -> Self {
        let mut flat = FlatTree {
            feature_idx: vec![0; nodes.len()],
            threshold: vec![0.0; nodes.len()],
            left_child: vec![0; nodes.len()],
            leaf_value: vec![0.0; nodes.len()],
            features_needed: 0,
        };
        if nodes.is_empty() {
            return flat;
        }
        // breadth-first re-layout: (arena index, flat slot); slot 0 = root
        let mut next_slot = 1u32;
        let mut queue = std::collections::VecDeque::from([(0usize, 0usize)]);
        while let Some((at, slot)) = queue.pop_front() {
            match &nodes[at] {
                Node::Leaf { weight } => {
                    flat.left_child[slot] = 0;
                    flat.leaf_value[slot] = *weight;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let l = next_slot;
                    next_slot += 2;
                    flat.feature_idx[slot] = *feature as u32;
                    flat.threshold[slot] = *threshold;
                    flat.left_child[slot] = l;
                    flat.features_needed = flat.features_needed.max(*feature as u32 + 1);
                    queue.push_back((*left, l as usize));
                    queue.push_back((*right, l as usize + 1));
                }
            }
        }
        flat
    }

    /// Predicts one sample on the flat layout (bit-identical to the
    /// pointer walk: same feature lookups, same `<` comparisons).
    #[inline]
    pub fn predict(&self, x: &[f32]) -> f64 {
        if self.left_child.is_empty() {
            return 0.0;
        }
        let mut at = 0usize;
        loop {
            let l = self.left_child[at];
            if l == 0 {
                return self.leaf_value[at];
            }
            let f = self.feature_idx[at] as usize;
            let v = x.get(f).copied().unwrap_or(0.0);
            at = if v < self.threshold[at] {
                l as usize
            } else {
                l as usize + 1
            };
        }
    }

    /// Whether the gather/lane walks may run against rows of width `dim`:
    /// the tree must have nodes and every feature lookup must be in bounds
    /// (the scalar walk's `x.get(f).unwrap_or(0.0)` default never fires).
    #[inline]
    pub fn lanes_ok(&self, dim: usize) -> bool {
        !self.left_child.is_empty() && self.features_needed as usize <= dim
    }

    /// Walks 8 samples at once with AVX2 gathers: one lane per sample,
    /// per-lane node cursor, lanes freeze at their leaf (frozen lanes keep
    /// gathering their leaf slot, whose `feature_idx` is 0 — in bounds).
    /// `_CMP_LT_OQ` matches the scalar `v < threshold` exactly, including
    /// NaN → false → go right, so each lane takes the scalar walk's path.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `lanes_ok(dim)` holds, and
    /// `xflat` holds at least `(s0 + 8) · dim` floats (8 row-major rows
    /// starting at sample `s0`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub unsafe fn predict8_avx2(&self, xflat: &[f32], dim: usize, s0: usize, out: &mut [f64; 8]) {
        use core::arch::x86_64::*;
        debug_assert!(self.lanes_ok(dim));
        debug_assert!(xflat.len() >= (s0 + 8) * dim);
        let lc = self.left_child.as_ptr() as *const i32;
        let fi = self.feature_idx.as_ptr() as *const i32;
        let row0: [i32; 8] = core::array::from_fn(|l| ((s0 + l) * dim) as i32);
        let row = _mm256_loadu_si256(row0.as_ptr() as *const __m256i);
        let one = _mm256_set1_epi32(1);
        let zero = _mm256_setzero_si256();
        let mut at = zero;
        loop {
            let l = _mm256_i32gather_epi32::<4>(lc, at);
            let done = _mm256_cmpeq_epi32(l, zero);
            if _mm256_movemask_epi8(done) == -1 {
                break;
            }
            let f = _mm256_i32gather_epi32::<4>(fi, at);
            let t = _mm256_i32gather_ps::<4>(self.threshold.as_ptr(), at);
            let v = _mm256_i32gather_ps::<4>(xflat.as_ptr(), _mm256_add_epi32(row, f));
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(v, t);
            // go left on v < t, right (+1) otherwise; frozen lanes keep `at`
            let next = _mm256_add_epi32(l, _mm256_andnot_si256(_mm256_castps_si256(lt), one));
            at = _mm256_blendv_epi8(next, at, done);
        }
        let mut ats = [0i32; 8];
        _mm256_storeu_si256(ats.as_mut_ptr() as *mut __m256i, at);
        for (o, &a) in out.iter_mut().zip(&ats) {
            *o = self.leaf_value[a as usize];
        }
    }

    /// Walks 4 samples in lockstep with plain code: the SSE2/NEON-tier
    /// batch path (those ISAs lack gathers, but the interleaved descent
    /// still overlaps the four dependent chains). Trivially bit-identical
    /// to four scalar walks — it performs exactly those comparisons.
    pub fn predict4_interleaved(&self, xs: [&[f32]; 4]) -> [f64; 4] {
        if self.left_child.is_empty() {
            return [0.0; 4];
        }
        let mut at = [0usize; 4];
        let mut done = [false; 4];
        loop {
            let mut live = false;
            for l in 0..4 {
                if done[l] {
                    continue;
                }
                let lc = self.left_child[at[l]];
                if lc == 0 {
                    done[l] = true;
                    continue;
                }
                let f = self.feature_idx[at[l]] as usize;
                let v = xs[l].get(f).copied().unwrap_or(0.0);
                at[l] = if v < self.threshold[at[l]] {
                    lc as usize
                } else {
                    lc as usize + 1
                };
                live = true;
            }
            if !live {
                break;
            }
        }
        core::array::from_fn(|l| self.leaf_value[at[l]])
    }
}

/// A trained regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Flat layout, compiled lazily on first batch use. Skipped by serde:
    /// deserialization restores the empty `OnceLock`, and the next batch
    /// call recompiles it from `nodes`, so round-trips stay bit-exact.
    #[serde(skip)]
    flat: std::sync::OnceLock<FlatTree>,
}

/// One `(key, row)` entry of a node's sort buffer. Eight bytes with the
/// key inline: the comparator reads no other memory, and std picks the same
/// small-sort and partition for it as for the `usize` row index the buffer
/// used to hold (see [`FitMatrix`] for why that matters).
type Pair = (f32, u32);

/// Orders `pairs` by key; the comparator every sort of the fit path uses.
fn by_key(a: &Pair, b: &Pair) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
}

/// Loads feature column `col` into the keys of `pairs` and sorts them by
/// it, continuing from the order the previous feature's sort left. Returns
/// `false`, with the order untouched, when every key is equal: such a
/// column offers no split, and std's sort leaves an already-ordered slice
/// as it is.
fn resort(pairs: &mut [Pair], col: &[f32]) -> bool {
    let Some(&(_, first)) = pairs.first() else {
        return false;
    };
    let first = col[first as usize];
    let mut constant = true;
    for p in pairs.iter_mut() {
        p.0 = col[p.1 as usize];
        constant &= p.0 == first;
    }
    if !constant {
        pairs.sort_unstable_by(by_key);
    }
    !constant
}

/// The training matrix in the layout the split search reads: column-major
/// `f32`, transposed once per fit and shared by every tree of the ensemble,
/// plus the root node's sorted order of every live feature.
///
/// The search accumulates the left gradient sum in sorted order, so the
/// order *inside a run of equal keys* reaches the last bits of every gain
/// and decides which of two correlated features wins a split. That order is
/// whatever `sort_unstable_by` leaves when started from the previous
/// feature's sorted order, which makes the sequence of sort calls — not
/// "rows ordered by key" — the specification of a fit: per node, features
/// in ascending index, each sort starting from the last one's result, the
/// first from the node's rows in ascending order. The root's sequence
/// depends on the features alone, so it runs once here and all trees scan
/// its results; below the root every node re-runs its own.
///
/// A feature constant over all rows is constant over every subset of them,
/// where [`resort`] would find it so and leave the order as it was: nodes
/// skip such a feature outright and loop over the live ones alone.
pub(crate) struct FitMatrix {
    n_rows: usize,
    n_features: usize,
    /// `data[f * n_rows + i]` is feature `f` of sample `i`.
    data: Vec<f32>,
    /// Per live feature (one not constant over all rows), in ascending
    /// index: the feature and the root's pairs after its sort.
    live: Vec<(usize, Vec<Pair>)>,
}

impl FitMatrix {
    /// Transposes row-major `features`. The first row sets the width; a
    /// shorter row reads as `0.0` beyond its end and columns beyond the
    /// width are ignored — what `predict` does with `x.get(f)`.
    pub(crate) fn new(features: &[Vec<f32>]) -> Self {
        let n_rows = features.len();
        assert!(n_rows <= u32::MAX as usize, "row indices are u32");
        let n_features = features.first().map(|f| f.len()).unwrap_or(0);
        let mut data = vec![0.0f32; n_features * n_rows];
        for (i, row) in features.iter().enumerate() {
            for (f, &v) in row.iter().take(n_features).enumerate() {
                data[f * n_rows + i] = v;
            }
        }
        let mut pairs: Vec<Pair> = (0..n_rows as u32).map(|i| (0.0, i)).collect();
        let mut live = Vec::new();
        for f in 0..n_features {
            if resort(&mut pairs, &data[f * n_rows..(f + 1) * n_rows]) {
                live.push((f, pairs.clone()));
            }
        }
        FitMatrix {
            n_rows,
            n_features,
            data,
            live,
        }
    }

    fn column(&self, f: usize) -> &[f32] {
        &self.data[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// What the split search decides for one node.
enum Decision {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f32,
        /// The node's rows below the threshold, ascending.
        left: Vec<u32>,
        /// The rest, ascending.
        right: Vec<u32>,
    },
}

/// One tree's fit: the shared matrix, this round's gradients, the params.
#[derive(Clone, Copy)]
struct Builder<'a> {
    matrix: &'a FitMatrix,
    grad: &'a [f64],
    params: &'a TreeParams,
}

impl Builder<'_> {
    /// The work of one node over `rows` (ascending): the leaf-or-split
    /// decision, the split search and the partition. It reads nothing but
    /// the matrix, the gradients and `rows`, so any thread computes the
    /// same bits; `pairs` is only a sort buffer.
    fn decide(&self, rows: &[u32], depth: usize, pairs: &mut Vec<Pair>) -> Decision {
        let Builder {
            matrix,
            grad,
            params,
        } = *self;
        let g_sum: f64 = rows.iter().map(|&i| grad[i as usize]).sum();
        let h_sum = rows.len() as f64;
        let leaf = Decision::Leaf(-g_sum / (h_sum + params.lambda));

        if depth >= params.max_depth || rows.len() < 2 * params.min_child_weight.ceil() as usize {
            return leaf;
        }

        // best split over all features: (feature, threshold, gain)
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, f32, f64)> = None;
        let mut scan = |f: usize, pairs: &[Pair]| {
            let mut gl = 0.0f64;
            let mut hl = 0.0f64;
            for w in pairs.windows(2) {
                let (va, row) = w[0];
                let vb = w[1].0;
                gl += grad[row as usize];
                hl += 1.0;
                if va == vb {
                    continue; // can't split between equal values
                }
                let hr = h_sum - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gr = g_sum - gl;
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > best.map(|(_, _, g)| g).unwrap_or(0.0) {
                    best = Some((f, (va + vb) * 0.5, gain));
                }
            }
        };
        if depth == 0 {
            for (f, order) in &matrix.live {
                scan(*f, order);
            }
        } else {
            pairs.clear();
            pairs.extend(rows.iter().map(|&i| (0.0, i)));
            for &(f, _) in &matrix.live {
                if resort(pairs, matrix.column(f)) {
                    scan(f, pairs);
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return leaf;
        };
        let col = matrix.column(feature);
        let (left, right): (Vec<u32>, Vec<u32>) = rows
            .iter()
            .copied()
            .partition(|&i| col[i as usize] < threshold);
        if left.is_empty() || right.is_empty() {
            // numeric degeneracy: fall back to leaf
            return leaf;
        }
        Decision::Split {
            feature,
            threshold,
            left,
            right,
        }
    }

    /// The inline driver: builds the subtree over `rows` (ascending) on this
    /// thread, appending it to `nodes` in DFS preorder (a split reserves its
    /// slot, then its left subtree, then its right), and returns its slot.
    fn build(
        &self,
        rows: &[u32],
        depth: usize,
        nodes: &mut Vec<Node>,
        pairs: &mut Vec<Pair>,
    ) -> usize {
        match self.decide(rows, depth, pairs) {
            Decision::Leaf(weight) => {
                nodes.push(Node::Leaf { weight });
                nodes.len() - 1
            }
            Decision::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                nodes.push(Node::Leaf { weight: 0.0 });
                let me = nodes.len() - 1;
                let left = self.build(&left, depth + 1, nodes, pairs);
                let right = self.build(&right, depth + 1, nodes, pairs);
                nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                me
            }
        }
    }
}

/// Nodes with fewer rows than this build their whole subtree on the thread
/// that takes them; larger ones each go through the fit's node queue, and
/// a fit needs twice this many rows for a helper. Below that the first
/// spawn would move glibc's malloc onto its multi-threaded paths for the
/// rest of the process for no gain: at 64, the HARL workloads' 128–192-row
/// fits spawned and `net_search` read 2.8 % slower (DESIGN.md §9).
pub(crate) const QUEUE_MIN_ROWS: usize = 128;

/// A node of a queued tree: its rows (ascending) and depth.
pub(crate) struct NodeRows {
    rows: Vec<u32>,
    depth: usize,
}

/// What one queued node computes: a whole subtree (a node under
/// [`QUEUE_MIN_ROWS`] rows, or a leaf), or a split whose two children are
/// queued.
pub(crate) enum Step {
    Subtree(Vec<Node>),
    Split { feature: usize, threshold: f32 },
}

/// One tree's fit as the node queue runs it. Owns the round's gradients,
/// since the queue outlives the round.
pub(crate) struct QueuedTree<'a> {
    matrix: &'a FitMatrix,
    grad: Vec<f64>,
    params: &'a TreeParams,
}

impl Work for QueuedTree<'_> {
    type Job = NodeRows;
    type Done = Step;
    type Scratch = Vec<Pair>;

    fn run(&self, job: &NodeRows, pairs: &mut Vec<Pair>) -> (Step, Option<[NodeRows; 2]>) {
        let builder = Builder {
            matrix: self.matrix,
            grad: &self.grad,
            params: self.params,
        };
        if job.rows.len() < QUEUE_MIN_ROWS {
            let mut nodes = Vec::new();
            builder.build(&job.rows, job.depth, &mut nodes, pairs);
            return (Step::Subtree(nodes), None);
        }
        match builder.decide(&job.rows, job.depth, pairs) {
            Decision::Leaf(weight) => (Step::Subtree(vec![Node::Leaf { weight }]), None),
            Decision::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let depth = job.depth + 1;
                (
                    Step::Split { feature, threshold },
                    Some([
                        NodeRows { rows: left, depth },
                        NodeRows { rows: right, depth },
                    ]),
                )
            }
        }
    }

    fn nodes(done: &Step) -> usize {
        match done {
            Step::Subtree(nodes) => nodes.len(),
            Step::Split { .. } => 1,
        }
    }
}

/// Writes the subtree of queue slot `slot` into `nodes` in the inline
/// driver's DFS preorder and returns its slot: a recorded subtree is
/// appended with its child links shifted, a split reserves its slot, then
/// writes its left subtree, then its right. The arena is therefore the one
/// the inline driver builds, whichever thread computed which node.
fn assemble(recorded: &mut [Recorded<Step>], slot: usize, nodes: &mut Vec<Node>) -> usize {
    let me = nodes.len();
    match (&mut recorded[slot].done, recorded[slot].children) {
        (Step::Subtree(subtree), _) => nodes.extend(subtree.drain(..).map(|node| match node {
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => Node::Split {
                feature,
                threshold,
                left: left + me,
                right: right + me,
            },
            leaf => leaf,
        })),
        (&mut Step::Split { feature, threshold }, Some([l, r])) => {
            nodes.push(Node::Leaf { weight: 0.0 });
            let left = assemble(recorded, l, nodes);
            let right = assemble(recorded, r, nodes);
            nodes[me] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
        }
        (Step::Split { .. }, None) => unreachable!("a recorded split has two children"),
    }
    me
}

impl RegressionTree {
    /// Fits a tree to gradients `g` (hessians are all 1).
    ///
    /// `features` is row-major: `features[i]` is sample `i`.
    pub fn fit(features: &[Vec<f32>], grad: &[f64], params: &TreeParams) -> Self {
        Self::fit_matrix(&FitMatrix::new(features), grad, params)
    }

    /// Fits a tree over an already transposed matrix on this thread: what
    /// every boosting round of a `Gbt::fit` without a helper calls.
    pub(crate) fn fit_matrix(matrix: &FitMatrix, grad: &[f64], params: &TreeParams) -> Self {
        assert_eq!(matrix.n_rows, grad.len());
        let builder = Builder {
            matrix,
            grad,
            params,
        };
        let mut nodes = Vec::new();
        let mut pairs = Vec::with_capacity(matrix.n_rows);
        let rows: Vec<u32> = (0..matrix.n_rows as u32).collect();
        builder.build(&rows, 0, &mut nodes, &mut pairs);
        queue::counters().caller.add(nodes.len() as u64);
        RegressionTree {
            nodes,
            n_features: matrix.n_features,
            flat: std::sync::OnceLock::new(),
        }
    }

    /// Fits a tree over `matrix` through `queue`, whose helper may compute
    /// any of its nodes: the same tree as [`fit_matrix`](Self::fit_matrix),
    /// node for node.
    pub(crate) fn fit_queued<'a>(
        queue: &NodeQueue<QueuedTree<'a>>,
        matrix: &'a FitMatrix,
        grad: Vec<f64>,
        params: &'a TreeParams,
    ) -> Self {
        assert_eq!(matrix.n_rows, grad.len());
        let root = NodeRows {
            rows: (0..matrix.n_rows as u32).collect(),
            depth: 0,
        };
        let mut recorded = queue.build(
            QueuedTree {
                matrix,
                grad,
                params,
            },
            root,
        );
        let mut nodes =
            Vec::with_capacity(recorded.iter().map(|r| QueuedTree::nodes(&r.done)).sum());
        assemble(&mut recorded, 0, &mut nodes);
        RegressionTree {
            nodes,
            n_features: matrix.n_features,
            flat: std::sync::OnceLock::new(),
        }
    }

    /// Predicts the leaf weight for one sample. The tree's root is the node
    /// pushed first for the full index set — but because children are pushed
    /// after their parent reserves a slot, the root is at a known position:
    /// the first node created by `fit` (index 0 when the root is a leaf,
    /// otherwise the reserved slot which is also the first push of `build`).
    pub fn predict(&self, x: &[f32]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x.get(*feature).copied().unwrap_or(0.0) < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The flattened SoA layout, compiled on first use (and recompiled
    /// after deserialization, which drops the cached copy).
    pub fn flat(&self) -> &FlatTree {
        self.flat.get_or_init(|| FlatTree::from_nodes(&self.nodes))
    }

    /// Total node count (leaves + splits).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32, (i % 7) as f32]).collect()
    }

    /// The row-major fit that `FitMatrix` replaced, kept as the reference
    /// the new builder must match byte for byte: one `Vec<usize>` per node,
    /// re-sorted per feature through `features[a][f]`, no sort skipped and
    /// none cached.
    fn reference_fit(features: &[Vec<f32>], grad: &[f64], params: &TreeParams) -> RegressionTree {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: features.first().map(|f| f.len()).unwrap_or(0),
            flat: std::sync::OnceLock::new(),
        };
        let idx: Vec<usize> = (0..features.len()).collect();
        reference_build(&mut tree, features, grad, idx, params, 0);
        tree
    }

    fn reference_build(
        tree: &mut RegressionTree,
        features: &[Vec<f32>],
        grad: &[f64],
        idx: Vec<usize>,
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let g_sum: f64 = idx.iter().map(|&i| grad[i]).sum();
        let h_sum = idx.len() as f64;
        let leaf = Node::Leaf {
            weight: -g_sum / (h_sum + params.lambda),
        };
        if depth >= params.max_depth || idx.len() < 2 * params.min_child_weight.ceil() as usize {
            tree.nodes.push(leaf);
            return tree.nodes.len() - 1;
        }
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, f32, f64)> = None;
        let mut order = idx.clone();
        #[allow(clippy::needless_range_loop)]
        for f in 0..tree.n_features {
            order.sort_unstable_by(|&a, &b| {
                features[a][f]
                    .partial_cmp(&features[b][f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut gl = 0.0f64;
            let mut hl = 0.0f64;
            for w in 0..order.len().saturating_sub(1) {
                gl += grad[order[w]];
                hl += 1.0;
                let va = features[order[w]][f];
                let vb = features[order[w + 1]][f];
                if va == vb {
                    continue;
                }
                let hr = h_sum - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gr = g_sum - gl;
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > best.map(|(_, _, g)| g).unwrap_or(0.0) {
                    best = Some((f, (va + vb) * 0.5, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            tree.nodes.push(leaf);
            return tree.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| features[i][feature] < threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            tree.nodes.push(leaf);
            return tree.nodes.len() - 1;
        }
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        let me = tree.nodes.len() - 1;
        let left = reference_build(tree, features, grad, left_idx, params, depth + 1);
        let right = reference_build(tree, features, grad, right_idx, params, depth + 1);
        tree.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn json(tree: &RegressionTree) -> String {
        serde_json::to_string(tree).unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inline keys, skipped constant columns and the root's cached
        /// orders change no tree: on duplicate-heavy columns (a few levels
        /// each, one constant, `-0.0` among the zeros, one a copy of
        /// another) the tie order inside equal runs decides splits, and the
        /// serialised tree must still equal the reference's.
        #[test]
        fn fit_matches_the_row_major_build_it_replaced(
            n in 0usize..160,
            levels in 1u32..=6,
            min_child in prop_oneof![Just(1.0f64), Just(2.0), Just(3.5)],
            max_depth in 1usize..=6,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let xs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let a = rng.gen_range(0..levels) as f32;
                    let b = rng.gen_range(0..levels * 3) as f32 * 0.25;
                    let z = if rng.gen_range(0..2) == 0 { 0.0f32 } else { -0.0 };
                    vec![a, 7.5, b, a * 2.0, z * a, rng.gen_range(-1.0f32..1.0)]
                })
                .collect();
            let grad: Vec<f64> = xs
                .iter()
                .map(|x| x[0] as f64 - 0.5 * x[2] as f64 + rng.gen_range(-0.3f64..0.3))
                .collect();
            let params = TreeParams {
                max_depth,
                min_child_weight: min_child,
                ..Default::default()
            };
            let new = RegressionTree::fit(&xs, &grad, &params);
            let old = reference_fit(&xs, &grad, &params);
            prop_assert_eq!(json(&new), json(&old));
        }
    }

    #[test]
    fn all_constant_node_is_a_leaf_with_the_closed_form_weight() {
        // rows 0..4 agree on every feature: once x0 splits them off, the
        // search skips all their columns and must leave the plain leaf
        let xs: Vec<Vec<f32>> = (0..10)
            .map(|i| {
                if i < 4 {
                    vec![0.0, 5.0]
                } else {
                    vec![1.0, i as f32]
                }
            })
            .collect();
        let grad: Vec<f64> = (0..10)
            .map(|i| if i < 4 { 1.0 + i as f64 } else { -3.0 })
            .collect();
        let params = TreeParams::default();
        let t = RegressionTree::fit(&xs, &grad, &params);
        assert!(t.num_nodes() >= 3, "x0 separates the two groups");
        let want = -(1.0 + 2.0 + 3.0 + 4.0) / (4.0 + params.lambda);
        assert_eq!(t.predict(&[0.0, 5.0]).to_bits(), want.to_bits());
        assert_eq!(json(&t), json(&reference_fit(&xs, &grad, &params)));
    }

    #[test]
    fn ragged_rows_fit_like_their_zero_padded_copies() {
        // the first row sets the width; shorter rows read 0.0 there (as
        // `predict` does) and columns beyond the width are ignored
        let padded: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let keep = if i == 0 { 3 } else { i % 4 };
                (0..3)
                    .map(|f| {
                        if f < keep {
                            ((i * (f + 3)) % 11) as f32 - 4.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let ragged: Vec<Vec<f32>> = padded
            .iter()
            .enumerate()
            .map(|(i, row)| match i % 4 {
                _ if i == 0 => row.clone(),
                0 => row.iter().copied().chain([9.0, -9.0]).collect(),
                keep => row[..keep].to_vec(),
            })
            .collect();
        assert!(ragged.iter().any(|r| r.len() < 3) && ragged.iter().any(|r| r.len() > 3));
        let grad: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let params = TreeParams::default();
        let a = RegressionTree::fit(&ragged, &grad, &params);
        let b = RegressionTree::fit(&padded, &grad, &params);
        assert!(b.num_nodes() > 1);
        assert_eq!(json(&a), json(&b));
        for (r, p) in ragged.iter().zip(&padded) {
            assert_eq!(a.predict(r).to_bits(), b.predict(p).to_bits());
        }
    }

    #[test]
    fn fits_step_function() {
        let xs = grid(100);
        // target: 1.0 when x0 >= 50 else -1.0; gradients for first round
        // from pred=0: g = pred - y = -y
        let grad: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] >= 50.0 { -1.0 } else { 1.0 })
            .collect();
        let t = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        assert!(t.predict(&[10.0, 0.0]) < -0.5);
        assert!(t.predict(&[90.0, 0.0]) > 0.5);
    }

    #[test]
    fn pure_leaf_when_no_split_helps() {
        let xs = vec![vec![1.0f32], vec![1.0], vec![1.0], vec![1.0]];
        let grad = vec![-2.0, -2.0, -2.0, -2.0];
        let t = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        assert_eq!(t.num_nodes(), 1);
        // w = -G/(H+λ) = 8/(4+1)
        assert!((t.predict(&[1.0]) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let xs = grid(256);
        let grad: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
        let p = TreeParams {
            max_depth: 2,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &grad, &p);
        // depth-2 binary tree has at most 7 nodes
        assert!(t.num_nodes() <= 7);
    }

    #[test]
    fn empty_input_predicts_zero() {
        let t = RegressionTree::fit(&[], &[], &TreeParams::default());
        assert_eq!(t.predict(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn flat_layout_matches_pointer_walk_bit_for_bit() {
        let xs = grid(256);
        let grad: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
        let t = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        let flat = t.flat();
        for x in &xs {
            assert_eq!(flat.predict(x).to_bits(), t.predict(x).to_bits());
        }
        // out-of-range probes exercise the missing-feature default too
        assert_eq!(
            flat.predict(&[1e9, -1e9]).to_bits(),
            t.predict(&[1e9, -1e9]).to_bits()
        );
        assert_eq!(flat.predict(&[]).to_bits(), t.predict(&[]).to_bits());
    }

    #[test]
    fn flat_layout_of_empty_and_leaf_trees() {
        let empty = RegressionTree::fit(&[], &[], &TreeParams::default());
        assert_eq!(empty.flat().predict(&[1.0]), 0.0);
        let xs = vec![vec![1.0f32]; 4];
        let grad = vec![-2.0; 4];
        let leaf = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        assert_eq!(
            leaf.flat().predict(&[1.0]).to_bits(),
            leaf.predict(&[1.0]).to_bits()
        );
    }

    #[test]
    fn lane_walks_match_scalar_including_nan_and_extremes() {
        let xs = grid(256);
        let grad: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
        let t = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        let flat = t.flat();
        let dim = 2usize;
        assert!(flat.lanes_ok(dim));
        // awkward probes: NaN must go right (v < t is false), extremes hit
        // the outermost leaves
        let probes: Vec<Vec<f32>> = vec![
            vec![10.0, 1.0],
            vec![f32::NAN, 3.0],
            vec![-1e9, 0.0],
            vec![1e9, 6.0],
            vec![128.0, f32::NAN],
            vec![50.0, 2.0],
            vec![49.999, 2.0],
            vec![0.0, 0.0],
        ];
        let want: Vec<u64> = probes.iter().map(|x| flat.predict(x).to_bits()).collect();

        let quad = flat.predict4_interleaved([&probes[0], &probes[1], &probes[2], &probes[3]]);
        for (l, v) in quad.iter().enumerate() {
            assert_eq!(v.to_bits(), want[l], "interleaved lane {l}");
        }

        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let xflat: Vec<f32> = probes.iter().flatten().copied().collect();
            let mut out = [0.0f64; 8];
            // SAFETY: avx2 checked above, lanes_ok(dim) asserted, xflat
            // holds 8 rows of `dim`
            unsafe { flat.predict8_avx2(&xflat, dim, 0, &mut out) };
            for (l, v) in out.iter().enumerate() {
                assert_eq!(v.to_bits(), want[l], "avx2 lane {l}");
            }
        }
    }

    #[test]
    fn lanes_ok_rejects_narrow_rows_and_empty_trees() {
        let xs = grid(64);
        let grad: Vec<f64> = (0..64).map(|i| if i < 32 { 1.0 } else { -1.0 }).collect();
        let t = RegressionTree::fit(&xs, &grad, &TreeParams::default());
        let needed = t
            .flat()
            .lanes_ok(2)
            .then_some(2)
            .expect("2-feature tree fits 2-wide rows");
        assert_eq!(needed, 2);
        assert!(!t.flat().lanes_ok(0), "0-wide rows can satisfy no split");
        // a fit on no data still yields a single leaf: lane-walkable at
        // any row width since it reads no features
        let leaf_only = RegressionTree::fit(&[], &[], &TreeParams::default());
        assert!(leaf_only.flat().lanes_ok(0));
        let walked = leaf_only.flat().predict4_interleaved([&[], &[], &[], &[]]);
        assert_eq!(walked, [leaf_only.predict(&[]); 4]);
        // only a node-free layout (never produced by fit) is rejected
        assert!(!FlatTree::default().lanes_ok(8));
    }

    #[test]
    fn min_child_weight_prevents_tiny_leaves() {
        let xs = grid(10);
        let grad: Vec<f64> = (0..10).map(|i| if i == 0 { -100.0 } else { 0.0 }).collect();
        let p = TreeParams {
            min_child_weight: 5.0,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &grad, &p);
        // cannot isolate the single outlier into a leaf of weight < 5
        for x in &xs {
            assert!(t.predict(x).abs() < 25.0);
        }
    }
}
