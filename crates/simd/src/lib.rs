//! Runtime-dispatched SIMD microkernels for the HARL hot paths.
//!
//! The repo pins a bit-identity invariant end to end: a tuning run must
//! produce the same best_time/trace/checkpoint bits regardless of thread
//! count, batching width — and now, instruction set. This crate makes SIMD
//! compatible with that invariant **by construction** instead of by hope:
//!
//! * **Lanes run across independent output cells.** A vector register holds
//!   16 (AVX-512), 8 (AVX2) or 4 (SSE2/NEON) *different* output cells — the
//!   `o` dimension of `gemm_bias_into`, distinct samples in GBT batch
//!   prediction — never partial sums of the *same* cell. Each cell keeps its
//!   existing bias-then-ascending-`k` serial accumulation chain. A row's
//!   last `out_dim mod lanes` cells ride a masked vector on the AVX tiers
//!   (a masked-off lane touches no memory and is never stored).
//! * **No FMA in any accumulation chain.** A fused multiply-add rounds once
//!   where `mul` + `add` round twice, so the fused instruction would change
//!   the bits of every cell. All backends use separate multiply and add
//!   instructions; IEEE-754 elementwise vector `mul`/`add` is
//!   bitwise-identical to the scalar ops. `exp`/`ln` use FMA because the
//!   host function they re-express does (next bullet but one).
//! * **Register spills go through `f32`.** The GEMM microkernel loads the
//!   partial `y` cells (holding bias or the previous k-panel's partial sum)
//!   into registers, accumulates ascending `k`, and stores back; `f32`
//!   load/store is exact, so panel boundaries don't perturb the chain.
//! * **Activations are the host function re-expressed, not approximated.**
//!   [`tanh_inplace`] is fdlibm's `tanhf` (the one the goldens were recorded
//!   with) with every branch turned into a lane select: bit-equal to it on
//!   all 2³² inputs, checked exhaustively, so the search bits no longer
//!   depend on which libm the host links. See `tanh.rs`. [`exp_inplace`]
//!   and [`ln_inplace`] are glibc's `expf`/`logf` the same way — the FMA
//!   variants a CPU with FMA runs, spelled with exact `f64` fused
//!   operations so a host without FMA computes the same bits. See
//!   `explog.rs`.
//!
//! Backend selection: runtime detection (AVX-512 → AVX2 → SSE2 on x86-64,
//! NEON on aarch64, scalar otherwise), overridable with `HARL_SIMD=0|scalar|
//! sse2|avx2|avx512|neon|auto` and, for tests that need to compare backends
//! in one process, [`force_backend`]. Unsupported requests clamp to the best
//! supported tier — never undefined behaviour.

/// The slice loop of the vector forms of `tanh`, `exp` and `ln`: full groups
/// of `$lanes` through `$f`, then the tail through a zero-padded copy
/// (whose extra lanes compute `f(0)` and are dropped), so a value's bits do
/// not depend on where in a slice it sits.
#[cfg(target_arch = "x86_64")]
macro_rules! inplace_kernel {
    ($name:ident, $feat:literal, $lanes:expr, $f:ident, $load:ident, $store:ident) => {
        /// # Safety
        /// Caller must have verified the `$feat` CPU features are present.
        #[target_feature(enable = $feat)]
        pub unsafe fn $name(x: &mut [f32]) {
            let mut groups = x.chunks_exact_mut($lanes);
            for g in &mut groups {
                $store(g.as_mut_ptr(), $f($load(g.as_ptr())));
            }
            let tail = groups.into_remainder();
            if !tail.is_empty() {
                let mut padded = [0.0f32; $lanes];
                padded[..tail.len()].copy_from_slice(tail);
                $store(padded.as_mut_ptr(), $f($load(padded.as_ptr())));
                tail.copy_from_slice(&padded[..tail.len()]);
            }
        }
    };
}

mod explog;
mod feature_math;
mod scalar;
mod tanh;
#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

pub use explog::{exp_inplace, exp_lane, ln_inplace, ln_lane};
pub use feature_math::log2p_int;
pub use tanh::{tanh_inplace, tanh_lane};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// One SIMD tier. Ordered by preference within an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Backend {
    /// Plain Rust loops — the reference everything else must bit-match.
    Scalar = 0,
    /// 128-bit SSE2 (x86-64 baseline, always present there).
    Sse2 = 1,
    /// 256-bit AVX2; FMA only inside `exp`/`ln` (see module docs).
    Avx2 = 2,
    /// 128-bit NEON (aarch64 baseline).
    Neon = 3,
    /// 512-bit AVX-512F, preferred over AVX2 where the CPU has it.
    Avx512 = 4,
}

impl Backend {
    /// Every backend, for `--list-backends` style enumeration.
    pub const ALL: [Backend; 5] = [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Stable numeric code for gauges/metrics (`harl_simd_backend`).
    pub fn code(self) -> u8 {
        self as u8
    }

    fn from_code(c: u8) -> Backend {
        match c {
            1 => Backend::Sse2,
            2 => Backend::Avx2,
            3 => Backend::Neon,
            4 => Backend::Avx512,
            _ => Backend::Scalar,
        }
    }

    /// Whether this CPU can execute the backend's instructions.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // part of the x86-64 baseline
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                // every AVX-512 CPU has AVX2 and FMA; asking keeps the
                // 256-bit kernels other crates run under this tier sound
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true, // part of the aarch64 baseline
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Output cells covered by one vector register (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 | Backend::Neon => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 16,
        }
    }
}

fn best_supported() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        [Backend::Avx512, Backend::Avx2]
            .into_iter()
            .find(|b| b.is_supported())
            .unwrap_or(Backend::Sse2)
    }
    #[cfg(target_arch = "aarch64")]
    {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Backend::Scalar
    }
}

/// Parses a `HARL_SIMD` value. `Ok(None)` means auto-detect.
fn parse_override(v: &str) -> Result<Option<Backend>, ()> {
    match v.trim().to_ascii_lowercase().as_str() {
        "" | "1" | "auto" => Ok(None),
        "0" | "off" | "scalar" => Ok(Some(Backend::Scalar)),
        "sse2" => Ok(Some(Backend::Sse2)),
        "avx2" => Ok(Some(Backend::Avx2)),
        "avx512" => Ok(Some(Backend::Avx512)),
        "neon" => Ok(Some(Backend::Neon)),
        _ => Err(()),
    }
}

fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let best = best_supported();
        match std::env::var("HARL_SIMD") {
            Err(_) => best,
            Ok(v) => match parse_override(&v) {
                Ok(None) => best,
                Ok(Some(b)) if b.is_supported() => b,
                Ok(Some(b)) => {
                    eprintln!(
                        "harl-simd: HARL_SIMD={} is not supported on this CPU; using {}",
                        b.name(),
                        best.name()
                    );
                    best
                }
                Err(()) => {
                    eprintln!(
                        "harl-simd: unrecognized HARL_SIMD={v:?} \
                         (expected 0|scalar|sse2|avx2|avx512|neon|auto); using {}",
                        best.name()
                    );
                    best
                }
            },
        }
    })
}

const FORCE_NONE: u8 = u8::MAX;
static FORCED: AtomicU8 = AtomicU8::new(FORCE_NONE);

/// Forces a backend process-wide, overriding both detection and `HARL_SIMD`.
/// Returns the previously forced backend (`None` = auto). Meant for tests
/// and benches that must compare backends inside one process; safe to flip
/// mid-run because every backend produces identical bits. Unsupported
/// requests clamp to the best supported tier — never undefined behaviour.
pub fn force_backend(b: Option<Backend>) -> Option<Backend> {
    let new = match b {
        None => FORCE_NONE,
        Some(b) if b.is_supported() => b.code(),
        Some(_) => best_supported().code(),
    };
    let prev = FORCED.swap(new, Ordering::SeqCst);
    if prev == FORCE_NONE {
        None
    } else {
        Some(Backend::from_code(prev))
    }
}

/// The backend kernels dispatch to right now (forced > env > detected).
pub fn active_backend() -> Backend {
    let f = FORCED.load(Ordering::Relaxed);
    if f != FORCE_NONE {
        return Backend::from_code(f);
    }
    detected()
}

/// Name of the active backend — handy for trace attributes.
pub fn backend_name() -> &'static str {
    active_backend().name()
}

// ---------------------------------------------------------------------------
// Kernel counters (observability; see the serve `metrics` verb).

static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
static SCORE_BATCH_CALLS: AtomicU64 = AtomicU64::new(0);
static TANH_CALLS: AtomicU64 = AtomicU64::new(0);
static EXP_CALLS: AtomicU64 = AtomicU64::new(0);
static LN_CALLS: AtomicU64 = AtomicU64::new(0);
static VECTOR_CELLS: AtomicU64 = AtomicU64::new(0);
static SCALAR_CELLS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the kernel counters plus the active backend.
#[derive(Debug, Clone, Copy)]
pub struct SimdStats {
    pub backend: Backend,
    /// `gemm_bias_into` invocations.
    pub gemm_calls: u64,
    /// GBT batch-prediction invocations routed through the lane walk.
    pub score_batch_calls: u64,
    /// `tanh_inplace` invocations.
    pub tanh_calls: u64,
    /// `exp_inplace` invocations.
    pub exp_calls: u64,
    /// `ln_inplace` invocations.
    pub ln_calls: u64,
    /// Output cells (GEMM cells, scored samples, activations) computed in
    /// vector lanes.
    pub vector_cells: u64,
    /// Output cells computed by scalar remainder loops (tails, fallbacks).
    pub scalar_cells: u64,
}

impl SimdStats {
    /// Fraction of output cells that went through vector lanes.
    pub fn vector_fraction(&self) -> f64 {
        let total = self.vector_cells + self.scalar_cells;
        if total == 0 {
            0.0
        } else {
            self.vector_cells as f64 / total as f64
        }
    }
}

/// Reads the kernel counters (monotonic since process start).
pub fn stats() -> SimdStats {
    SimdStats {
        backend: active_backend(),
        gemm_calls: GEMM_CALLS.load(Ordering::Relaxed),
        score_batch_calls: SCORE_BATCH_CALLS.load(Ordering::Relaxed),
        tanh_calls: TANH_CALLS.load(Ordering::Relaxed),
        exp_calls: EXP_CALLS.load(Ordering::Relaxed),
        ln_calls: LN_CALLS.load(Ordering::Relaxed),
        vector_cells: VECTOR_CELLS.load(Ordering::Relaxed),
        scalar_cells: SCALAR_CELLS.load(Ordering::Relaxed),
    }
}

/// Adds one elementwise kernel call's cells to the lane counters.
fn count_cells(vector: usize, total: usize) {
    VECTOR_CELLS.fetch_add(vector as u64, Ordering::Relaxed);
    SCALAR_CELLS.fetch_add((total - vector) as u64, Ordering::Relaxed);
}

/// Records one batch-prediction call: how many samples rode vector lanes
/// and how many fell to scalar walks (tails, non-uniform rows, tall trees).
/// Called by `harl-gbt`, which owns the tree layout and thus the walk.
pub fn record_score_batch(vector_cells: u64, scalar_cells: u64) {
    SCORE_BATCH_CALLS.fetch_add(1, Ordering::Relaxed);
    VECTOR_CELLS.fetch_add(vector_cells, Ordering::Relaxed);
    SCALAR_CELLS.fetch_add(scalar_cells, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Kernels

/// Batch rows swept per panel pass: small enough that `MB` rows of `x`
/// plus one `wt` panel stay cache-resident.
pub const MB: usize = 8;

/// Columns of the k-panel (elements of the reduction dimension) processed
/// per sweep; `KC · out_dim` floats of `wt` are hot per panel.
pub const KC: usize = 256;

/// Computes `y[b·out_dim + o] = bias[o] + Σ_k x[b·in_dim + k] · wt[k·out_dim + o]`
/// for all `b < batch`, with a fixed bias-then-ascending-`k` summation order
/// per cell (see module docs). `wt` is k-major; `y` is resized to
/// `batch · out_dim`. The blocked sweep (`MB` rows × `KC` reduction panels)
/// only changes *when* a `(b, o)` cell is touched, never the order of
/// additions into it, so every backend — and every batch width — produces
/// identical bits.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_into(
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    y: &mut Vec<f32>,
) {
    y.resize(batch * out_dim, 0.0);
    gemm_bias_slice(x, wt, bias, batch, in_dim, out_dim, y);
}

/// [`gemm_bias_into`] over a caller-sized `y` of exactly `batch · out_dim`
/// cells — the entry point for callers that hand out row blocks of one
/// output to several threads. Rows are independent, so any split into row
/// blocks produces the bits of the unsplit call.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_slice(
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
    y: &mut [f32],
) {
    assert_eq!(x.len(), batch * in_dim, "gemm: x is not batch × in_dim");
    gemm_bias_strided(
        Strided::rows(x, in_dim),
        wt,
        bias,
        batch,
        in_dim,
        out_dim,
        y,
    );
}

/// The left operand of a GEMM, read in place: element `(row, k)` is
/// `data[row · row_stride + k · k_stride]`. The kernels only ever broadcast
/// it — one scalar load per row and `k` — so any two strides cost the same
/// instructions, and a transposed matrix needs no transposed copy.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a> {
    pub data: &'a [f32],
    pub row_stride: usize,
    pub k_stride: usize,
}

impl<'a> Strided<'a> {
    /// Row-major `data` whose rows are `ld` long: the plain forward
    /// operand.
    pub fn rows(data: &'a [f32], ld: usize) -> Self {
        Strided {
            data,
            row_stride: ld,
            k_stride: 1,
        }
    }

    /// The transpose of row-major `data` whose rows are `ld` long: row `r`
    /// of the operand is column `r` of `data`, and `k` walks down `data`'s
    /// rows.
    pub fn columns(data: &'a [f32], ld: usize) -> Self {
        Strided {
            data,
            row_stride: 1,
            k_stride: ld,
        }
    }

    /// The same operand from its row `first` on.
    pub fn from_row(self, first: usize) -> Self {
        self.skip(first * self.row_stride)
    }

    /// The same operand from its reduction index `first` on.
    pub fn from_k(self, first: usize) -> Self {
        self.skip(first * self.k_stride)
    }

    fn skip(self, cells: usize) -> Self {
        Strided {
            data: &self.data[cells.min(self.data.len())..],
            ..self
        }
    }
}

/// [`gemm_bias_slice`] with the left operand read through its strides:
/// `y[r·out_dim + o] = bias[o] + Σ_k x(r, k) · wt[k·out_dim + o]` for
/// `r < rows`, every cell the same bias-then-ascending-`k` chain. `x(r, k)`
/// is the value the row-major form would hold at `[r][k]`, so a product
/// over a transposed view has the bits of the product over its transposed
/// copy.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_strided(
    x: Strided<'_>,
    wt: &[f32],
    bias: &[f32],
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    y: &mut [f32],
) {
    // the vector panels read `x` unchecked and write `y` through raw
    // pointers: sizes are checked in release builds too
    if rows > 0 && in_dim > 0 {
        let last = (rows - 1)
            .checked_mul(x.row_stride)
            .zip((in_dim - 1).checked_mul(x.k_stride))
            .and_then(|(r, k)| r.checked_add(k));
        assert!(
            last.is_some_and(|last| last < x.data.len()),
            "gemm: x ends before rows × in_dim"
        );
    }
    assert_eq!(
        wt.len(),
        in_dim * out_dim,
        "gemm: wt is not in_dim × out_dim"
    );
    assert_eq!(bias.len(), out_dim, "gemm: bias is not out_dim");
    assert_eq!(y.len(), rows * out_dim, "gemm: y is not rows × out_dim");
    let backend = active_backend();
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    // the AVX tiers run the column tail through masked vectors; SSE2 and
    // NEON finish it with scalar cells
    let vec_cols = match backend {
        Backend::Scalar => 0,
        Backend::Avx2 | Backend::Avx512 => out_dim,
        Backend::Sse2 | Backend::Neon => out_dim - out_dim % backend.lanes(),
    };
    VECTOR_CELLS.fetch_add((rows * vec_cols) as u64, Ordering::Relaxed);
    SCALAR_CELLS.fetch_add((rows * (out_dim - vec_cols)) as u64, Ordering::Relaxed);
    let strides = (x.row_stride, x.k_stride);
    let mut bb = 0;
    while bb < rows {
        let bend = (bb + MB).min(rows);
        for b in bb..bend {
            y[b * out_dim..(b + 1) * out_dim].copy_from_slice(bias);
        }
        let mut kk = 0;
        while kk < in_dim {
            let kend = (kk + KC).min(in_dim);
            panel_dispatch(backend, x.data, strides, bb, bend, wt, out_dim, kk, kend, y);
            kk = kend;
        }
        bb = bend;
    }
}

/// One `rows × out_dim` panel over `k ∈ [k0, k1)`, routed to the backend's
/// MR×NR microkernel. `y` already holds each cell's partial sum.
#[allow(clippy::too_many_arguments)]
fn panel_dispatch(
    backend: Backend,
    x: &[f32],
    strides: (usize, usize),
    b0: usize,
    b1: usize,
    wt: &[f32],
    out_dim: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { x86::panel_avx512(x, strides, b0, b1, wt, out_dim, k0, k1, y) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { x86::panel_avx2(x, strides, b0, b1, wt, out_dim, k0, k1, y) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { x86::panel_sse2(x, strides, b0, b1, wt, out_dim, k0, k1, y) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::panel(x, strides, b0, b1, wt, out_dim, k0, k1, y),
        _ => scalar::panel(x, strides, b0, b1, wt, out_dim, k0, k1, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, MutexGuard};

    /// Tests that flip the global forced backend serialize on this lock.
    pub(crate) fn force_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn supported() -> Vec<Backend> {
        Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// One elementwise kernel under the exhaustive comparison: its scalar
    /// lane form, the host function it re-expresses and its per-backend
    /// slice kernel (returning the count of vector cells).
    pub(crate) struct Sweep {
        pub name: &'static str,
        pub lane: fn(f32) -> f32,
        pub host: fn(f32) -> f32,
        pub dispatch: fn(Backend, &mut [f32]) -> usize,
    }

    impl Sweep {
        /// Compares, on the bit patterns `first, first + stride, …` below
        /// `end`, every supported backend's kernel with the lane form and,
        /// if `against_host`, the lane form with the host function. Returns
        /// the number of inputs checked; panics on the first mismatch.
        fn run(&self, first: u64, end: u64, stride: u64, against_host: bool) -> u64 {
            let name = self.name;
            let backends = supported();
            let mut next = first;
            let mut checked = 0;
            let mut xs = Vec::with_capacity(4096);
            let mut ys = Vec::with_capacity(4096);
            while next < end {
                xs.clear();
                while xs.len() < 4096 && next < end {
                    xs.push(f32::from_bits(next as u32));
                    next += stride;
                }
                let want: Vec<u32> = xs.iter().map(|&x| (self.lane)(x).to_bits()).collect();
                if against_host {
                    for (&x, &w) in xs.iter().zip(&want) {
                        let host = (self.host)(x).to_bits();
                        assert_eq!(
                            host,
                            w,
                            "{name}_lane vs f32::{name} at {:#010x}",
                            x.to_bits()
                        );
                    }
                }
                for &b in &backends {
                    ys.clone_from(&xs);
                    (self.dispatch)(b, &mut ys);
                    for ((x, y), &w) in xs.iter().zip(&ys).zip(&want) {
                        let (y, x) = (y.to_bits(), x.to_bits());
                        assert_eq!(y, w, "{} vs {name}_lane at {x:#010x}", b.name());
                    }
                }
                checked += xs.len() as u64;
            }
            checked
        }

        /// Every 1 021st bit pattern (prime: the sweep lands on every
        /// exponent and both signs), in the normal suite's debug build.
        pub fn strided(&self, against_host: bool) {
            let checked = self.run(0, 1 << 32, 1021, against_host);
            assert_eq!(checked, (1u64 << 32).div_ceil(1021));
        }

        /// All 2³² bit patterns on two threads, with the report line
        /// `ci/test.sh` prints.
        pub fn exhaustive(&self, against_host: bool) {
            let name = self.name;
            if !against_host {
                println!("host {name}f differs — lane form is now the reference");
            }
            let half = 1u64 << 31;
            let checked: u64 = std::thread::scope(|s| {
                let halves =
                    [0, half].map(|lo| s.spawn(move || self.run(lo, lo + half, 1, against_host)));
                halves
                    .into_iter()
                    .map(|h| h.join().expect("a sweep thread found a mismatch"))
                    .sum()
            });
            assert_eq!(checked, 1 << 32);
            println!(
                "0 mismatches over {checked} inputs: {:?} vs {name}_lane{}",
                supported().iter().map(|b| b.name()).collect::<Vec<_>>(),
                if against_host {
                    format!(", {name}_lane vs f32::{name}")
                } else {
                    String::new()
                }
            );
        }
    }

    #[test]
    fn parse_override_accepts_documented_values() {
        assert_eq!(parse_override("auto"), Ok(None));
        assert_eq!(parse_override("1"), Ok(None));
        assert_eq!(parse_override(""), Ok(None));
        assert_eq!(parse_override("0"), Ok(Some(Backend::Scalar)));
        assert_eq!(parse_override("off"), Ok(Some(Backend::Scalar)));
        assert_eq!(parse_override("Scalar"), Ok(Some(Backend::Scalar)));
        assert_eq!(parse_override(" sse2 "), Ok(Some(Backend::Sse2)));
        assert_eq!(parse_override("AVX2"), Ok(Some(Backend::Avx2)));
        assert_eq!(parse_override("neon"), Ok(Some(Backend::Neon)));
        assert_eq!(parse_override("avx512"), Ok(Some(Backend::Avx512)));
        assert_eq!(parse_override("avx1024"), Err(()));
    }

    #[test]
    fn force_backend_round_trips_and_clamps() {
        let _g = force_lock();
        let prev = force_backend(Some(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        // Forcing an unsupported tier clamps to a supported one, never UB.
        force_backend(Some(Backend::Neon));
        assert!(active_backend().is_supported());
        force_backend(Some(Backend::Avx2));
        assert!(active_backend().is_supported());
        force_backend(prev);
    }

    #[test]
    fn scalar_is_always_supported_and_best_is_supported() {
        assert!(Backend::Scalar.is_supported());
        assert!(best_supported().is_supported());
    }

    fn gemm_reference(
        x: &[f32],
        wt: &[f32],
        bias: &[f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Vec<f32> {
        // bias + ascending-k per cell: the pinned determinism contract
        let mut y = vec![0.0f32; batch * out_dim];
        for b in 0..batch {
            for o in 0..out_dim {
                let mut acc = bias[o];
                for k in 0..in_dim {
                    acc += x[b * in_dim + k] * wt[k * out_dim + o];
                }
                y[b * out_dim + o] = acc;
            }
        }
        y
    }

    /// Runs one GEMM on every supported backend and compares each cell
    /// with the per-cell reference under `same`.
    fn check_gemm_on_every_backend(
        x: &[f32],
        wt: &[f32],
        bias: &[f32],
        (batch, in_dim, out_dim): (usize, usize, usize),
        same: fn(f32, f32) -> bool,
    ) {
        let want = gemm_reference(x, wt, bias, batch, in_dim, out_dim);
        for b in supported() {
            force_backend(Some(b));
            let mut y = Vec::new();
            gemm_bias_into(x, wt, bias, batch, in_dim, out_dim, &mut y);
            assert_eq!(y.len(), want.len());
            for (i, (&g, &w)) in y.iter().zip(&want).enumerate() {
                assert!(
                    same(g, w),
                    "{}: ({batch}×{in_dim}→{out_dim}) cell {i}: {g} ({:#010x}) vs {w} ({:#010x})",
                    b.name(),
                    g.to_bits(),
                    w.to_bits()
                );
            }
        }
    }

    #[test]
    fn gemm_bits_match_scalar_on_every_backend() {
        let _g = force_lock();
        let prev = force_backend(None);
        let mut rng = StdRng::seed_from_u64(21);
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (5, 300, 3), // straddles KC
            (7, 257, 33),
            (9, 64, 101),
            (13, 31, 8),
            (17, 64, 64),
        ];
        // every column-tail width of the 8- and 16-lane kernels (1…15, then
        // the widths around two and several vectors) against every row-tile
        // remainder of the 8/4/1-row kernels, the reduction length cycling
        // through the same odd sizes
        let dims = [1usize, 3, 7, 9, 15, 17, 31, 33, 101, 110];
        let out_dims = (1..=17).chain([31, 33, 101, 110]);
        for (i, out_dim) in out_dims.enumerate() {
            for (j, batch) in [1usize, 3, 5, 9, 13, 16].into_iter().enumerate() {
                shapes.push((batch, dims[(i + j) % dims.len()], out_dim));
            }
        }
        for shape in shapes {
            let (batch, in_dim, out_dim) = shape;
            let x: Vec<f32> = (0..batch * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let wt: Vec<f32> = (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_gemm_on_every_backend(&x, &wt, &bias, shape, |g, w| g.to_bits() == w.to_bits());
        }
        force_backend(prev);
    }

    #[test]
    fn non_finite_inputs_stay_in_their_own_cells() {
        // a masked-off tail lane multiplies the row's NaN or inf by its zero
        // weight; nothing of that may reach a live cell, and the rows
        // without one must keep their exact bits
        let _g = force_lock();
        let prev = force_backend(None);
        let mut rng = StdRng::seed_from_u64(22);
        for shape in [(9usize, 17usize, 3usize), (13, 9, 101), (5, 33, 21)] {
            let (batch, in_dim, out_dim) = shape;
            let mut x: Vec<f32> = (0..batch * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            for (row, poison) in [(1, f32::NAN), (2, f32::INFINITY), (4, f32::NEG_INFINITY)] {
                x[row * in_dim + row % in_dim] = poison;
            }
            let wt: Vec<f32> = (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_gemm_on_every_backend(&x, &wt, &bias, shape, |g, w| {
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
            });
        }
        force_backend(prev);
    }

    #[test]
    fn counters_are_monotonic_and_fraction_bounded() {
        let before = stats();
        let x = [1.0f32; 8];
        let wt = [0.5f32; 8 * 12];
        let bias = [0.0f32; 12];
        let mut y = Vec::new();
        gemm_bias_into(&x, &wt, &bias, 1, 8, 12, &mut y);
        record_score_batch(8, 1);
        let after = stats();
        assert!(after.gemm_calls > before.gemm_calls);
        assert!(after.score_batch_calls > before.score_batch_calls);
        assert!(
            after.vector_cells + after.scalar_cells > before.vector_cells + before.scalar_cells
        );
        let f = after.vector_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
    }
}
