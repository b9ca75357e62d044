//! Golden bits of the tanh activation.
//!
//! Every PPO forward pass goes through `nnet::layers::tanh_forward`, so its
//! output bits reach every weight, checkpoint and search result the other
//! golden files pin. The digests below were recorded while `tanh_forward`
//! was a loop over libm's `tanhf` (glibc 2.36: fdlibm `s_tanhf.c` over
//! `s_expm1f.c`); any other way of computing the activation must reproduce
//! them, in debug and in release builds and on every SIMD backend
//! (`ci/test.sh` runs this file in both builds and under `HARL_SIMD=0`).
//!
//! Three input sets: (a) every 4 099th `f32` bit pattern — both signs,
//! subnormals, ±inf, NaNs; (b) the ±256-ulp neighbourhood of every branch
//! threshold of fdlibm's `tanhf`/`expm1f`, mapped back to `x`; (c) slice
//! lengths 0…17, so an 8-lane kernel's tail handling is pinned.

use harl_repro::nnet::layers::tanh_forward;

const GOLDEN_STRIDED: u64 = 0xf9b8c6a976564d6b;
const GOLDEN_THRESHOLDS: [u64; 7] = [
    0x1b8f6392dd7b8055,
    0x47528e29a9c19615,
    0xe650eeb57d431261,
    0x9beaee110f1b5111,
    0x4306281348f470e9,
    0x6905f1fb447df2f5,
    0xd3d1cb6cbab3ddc5,
];
const GOLDEN_K_STEPS: u64 = 0x43201e5ff4ad120d;
const GOLDEN_LENGTHS: u64 = 0xe3925b9d35dcb2bf;

const STRIDE: u64 = 4099;
const ULPS: u32 = 256;

/// `|x|` bit patterns at which `tanhf` or the `expm1f(±2|x|)` under it
/// changes branch.
const THRESHOLDS: [(u32, &str); 7] = [
    (0x2400_0000, "|x| < 2^-55: x*(1+x)"),
    (0x3280_0000, "|2x| < 2^-25: expm1f returns its argument"),
    (0x3e31_7218, "|2x| > 0.5 ln2: argument reduction starts"),
    (0x3f05_1592, "|2x| < 1.5 ln2: k = -1 without the multiply"),
    (0x3f80_0000, "|x| >= 1: expm1f(2|x|), not expm1f(-2|x|)"),
    (0x41b0_0000, "|x| >= 22: +-1"),
    (0x7f80_0000, "inf, then NaN"),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, ys: &[f32]) {
        for y in ys {
            for b in y.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn digest_of(bits: impl Iterator<Item = u32>) -> u64 {
    let mut xs: Vec<f32> = bits.map(f32::from_bits).collect();
    tanh_forward(&mut xs);
    let mut h = Fnv::new();
    h.push(&xs);
    h.0
}

/// Both signs of the `±ULPS` bit patterns around `|x| = centre`.
fn neighbourhood(centre: u32) -> impl Iterator<Item = u32> {
    (centre - ULPS..=centre + ULPS).flat_map(|b| [b, b | 0x8000_0000])
}

/// `|x|` where `expm1f`'s `k = trunc(2|x|/ln2 + 0.5)` steps to `j`. Below
/// `|x| = 1` the argument is `-2|x|` and the step is −2 → −3; from 1 up it
/// is 3 → 4 … 62 → 63 (`|x| < 22` keeps `k` ≤ 63).
fn k_step(j: u32) -> u32 {
    (((f64::from(j) - 0.5) * std::f64::consts::LN_2 / 2.0) as f32).to_bits()
}

const NOTE: &str = "tanh_forward must reproduce libm tanhf (fdlibm, glibc 2.36) bit for bit";

#[test]
fn strided_sweep_of_all_bit_patterns_matches_golden() {
    let n = (1u64 << 32).div_ceil(STRIDE);
    let got = digest_of((0..n).map(|i| (i * STRIDE) as u32));
    assert_eq!(got, GOLDEN_STRIDED, "{NOTE}: got {got:#018x}");
}

#[test]
fn branch_threshold_neighbourhoods_match_golden() {
    for (i, &(centre, what)) in THRESHOLDS.iter().enumerate() {
        let got = digest_of(neighbourhood(centre));
        assert_eq!(
            got, GOLDEN_THRESHOLDS[i],
            "{NOTE}: around {centre:#010x} ({what}) got {got:#018x}"
        );
    }
    let got = digest_of((3..=63).flat_map(|j| neighbourhood(k_step(j))));
    assert_eq!(
        got, GOLDEN_K_STEPS,
        "{NOTE}: at the k steps got {got:#018x}"
    );
}

#[test]
fn slice_lengths_0_to_17_match_golden() {
    // one fixed stream cut at every length and offset, so a lane that
    // reads its neighbour's input or a tail that drops a cell shows
    let stream: Vec<f32> = (0..64u32)
        .map(|i| {
            let magnitude = 0x3c00_0000 + i.wrapping_mul(0x0061_c886) % 0x0600_0000;
            f32::from_bits(magnitude | (i & 1) << 31)
        })
        .collect();
    let mut h = Fnv::new();
    for len in 0..=17 {
        for offset in [0, 1, 5] {
            let mut xs = stream[offset..offset + len].to_vec();
            tanh_forward(&mut xs);
            h.push(&xs);
        }
    }
    assert_eq!(h.0, GOLDEN_LENGTHS, "{NOTE}: got {:#018x}", h.0);
}
