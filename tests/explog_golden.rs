//! Golden bits of `exp` and `ln` as the PPO loss uses them.
//!
//! Every softmax row goes through `harl_simd::exp_inplace` and every
//! log-probability and entropy term through `harl_simd::ln_inplace`, so
//! their output bits reach every weight, checkpoint and search result the
//! other golden files pin. The digests below were recorded while both were
//! loops over the host's `f32::exp` / `f32::ln` (glibc 2.36's `expf` and
//! `logf`, the FMA ifunc variants); any other way of computing them must
//! reproduce these bits, in debug and in release builds and on every SIMD
//! backend (`ci/test.sh` runs this file in both builds, under `HARL_SIMD=0`
//! and under `HARL_SIMD=avx2`).
//!
//! Four input sets: (a) every 4 099th `f32` bit pattern through both —
//! both signs, subnormals, ±inf, NaN payloads; (b) the ±256-ulp
//! neighbourhood of every branch threshold of glibc's `expf` and `logf`;
//! (c) slice lengths 0…33, so the tail handling of an 8- and a 16-lane
//! kernel is pinned; (d) `masked_softmax_into` rows of widths 1, 3 and 101
//! under no mask, a partial mask, a single valid action and no valid action.

use harl_repro::nnet::masked_softmax_into;
use harl_simd::{exp_inplace, ln_inplace};

const GOLDEN_EXP_STRIDED: u64 = 0xfd949e0a46fbb207;
const GOLDEN_LN_STRIDED: u64 = 0xf3056827088b62bd;
const GOLDEN_EXP_THRESHOLDS: [u64; 6] = [
    0x134f9570b6f91301,
    0xc415e2cb31541015,
    0xaaeb66e87d746857,
    0x94607835ed371f64,
    0x91e52052fa496764,
    0x69877f7ac8d27a68,
];
const GOLDEN_LN_THRESHOLDS: [u64; 4] = [
    0x45c19b6afa43f694,
    0xa9ba04ea99559d0e,
    0x5ae5ae2a4a99c2a2,
    0xbaaa96bf0a7b7073,
];
const GOLDEN_LN_TABLE_BOUNDARIES: u64 = 0xfbf0e0a8de775ebb;
const GOLDEN_LENGTHS: (u64, u64) = (0x214e6e4867818d95, 0x7e0df438c953867d);
const GOLDEN_SOFTMAX: u64 = 0x470086f636048b69;

const STRIDE: u64 = 4099;
const ULPS: u32 = 256;

/// Bit patterns of `x` at which glibc's `expf` changes branch.
const EXP_THRESHOLDS: [(u32, &str); 6] = [
    (0x42b0_0000, "x >= 88: range tests start (abstop 0x42b)"),
    (0xc2b0_0000, "x <= -88: range tests start"),
    (0x42b1_7217, "x > ln 2^128: +inf"),
    (0xc2cf_f1b4, "x < ln 2^-150: +0"),
    (0xc2ce_8ecf, "x < ln 2^-149: may_underflow, still 2^-149"),
    (0xc2ae_ac50, "x < -126 ln 2: the result turns subnormal"),
];

/// Bit patterns of `x` at which glibc's `logf` changes branch; both signs
/// are swept, so -0 and the negative (invalid) inputs are covered.
const LN_THRESHOLDS: [(u32, &str); 4] = [
    (0x0080_0000, "x < 2^-126: subnormal, rescaled by 2^23"),
    (0x3f33_0000, "OFF: k steps from -1 to 0"),
    (0x3f80_0000, "x == 1: +0"),
    (0x7f80_0000, "inf, then NaN"),
];

/// `logf`'s table index is bits 19…22 of `bits(x) - OFF`.
const LN_OFF: u32 = 0x3f33_0000;

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

fn digest_of(f: fn(&mut [f32]), bits: impl Iterator<Item = u32>) -> u64 {
    let mut xs: Vec<f32> = bits.map(f32::from_bits).collect();
    f(&mut xs);
    let mut h = Fnv::new();
    h.push(&xs);
    h.0
}

/// The `±ULPS` bit patterns around `centre`.
fn neighbourhood(centre: u32) -> impl Iterator<Item = u32> {
    centre - ULPS..=centre + ULPS
}

/// [`neighbourhood`] with both signs of every pattern.
fn signed_neighbourhood(centre: u32) -> impl Iterator<Item = u32> {
    neighbourhood(centre).flat_map(|b| [b, b | 0x8000_0000])
}

const NOTE: &str = "must reproduce glibc 2.36's FMA expf/logf bit for bit";

#[test]
fn strided_sweep_of_all_bit_patterns_matches_golden() {
    let n = (1u64 << 32).div_ceil(STRIDE);
    let strided = || (0..n).map(|i| (i * STRIDE) as u32);
    let got = digest_of(exp_inplace, strided());
    assert_eq!(got, GOLDEN_EXP_STRIDED, "exp {NOTE}: got {got:#018x}");
    let got = digest_of(ln_inplace, strided());
    assert_eq!(got, GOLDEN_LN_STRIDED, "ln {NOTE}: got {got:#018x}");
}

#[test]
fn branch_threshold_neighbourhoods_match_golden() {
    for (i, &(centre, what)) in EXP_THRESHOLDS.iter().enumerate() {
        let got = digest_of(exp_inplace, neighbourhood(centre));
        assert_eq!(
            got, GOLDEN_EXP_THRESHOLDS[i],
            "exp {NOTE}: around {centre:#010x} ({what}) got {got:#018x}"
        );
    }
    for (i, &(centre, what)) in LN_THRESHOLDS.iter().enumerate() {
        let got = digest_of(ln_inplace, signed_neighbourhood(centre));
        assert_eq!(
            got, GOLDEN_LN_THRESHOLDS[i],
            "ln {NOTE}: around {centre:#010x} ({what}) got {got:#018x}"
        );
    }
    // the 16 table boundaries of the binade below OFF and of the one above
    let boundaries = (1..=16u32).flat_map(|k| [LN_OFF - (k << 19), LN_OFF + (k << 19)]);
    let got = digest_of(ln_inplace, boundaries.flat_map(neighbourhood));
    assert_eq!(
        got, GOLDEN_LN_TABLE_BOUNDARIES,
        "ln {NOTE}: at the table boundaries got {got:#018x}"
    );
}

#[test]
fn slice_lengths_0_to_33_match_golden() {
    // one fixed stream per function cut at every length and offset, so a
    // lane that reads its neighbour's input or a tail that drops a cell
    // shows; exp sees both signs up to |x| < 128, ln positive normals
    let stream = |sign: u32| -> Vec<f32> {
        (0..96u32)
            .map(|i| {
                let magnitude = 0x3c00_0000 + i.wrapping_mul(0x0061_c886) % 0x0700_0000;
                f32::from_bits(magnitude | (i & sign) << 31)
            })
            .collect()
    };
    let digest = |f: fn(&mut [f32]), stream: Vec<f32>| {
        let mut h = Fnv::new();
        for len in 0..=33 {
            for offset in [0, 1, 5] {
                let mut xs = stream[offset..offset + len].to_vec();
                f(&mut xs);
                h.push(&xs);
            }
        }
        h.0
    };
    let got = (
        digest(exp_inplace, stream(1)),
        digest(ln_inplace, stream(0)),
    );
    assert_eq!(got, GOLDEN_LENGTHS, "{NOTE}: got {got:#018x?}");
}

#[test]
fn masked_softmax_rows_match_golden() {
    let mut h = Fnv::new();
    let mut probs = Vec::new();
    for width in [1usize, 3, 101] {
        let logits: Vec<f32> = (0..width)
            .map(|i| ((i * 37 + width) % 23) as f32 * 1.37 - 15.0)
            .collect();
        let partial: Vec<bool> = (0..width).map(|i| i % 3 != 1).collect();
        let single: Vec<bool> = (0..width).map(|i| i == width / 2).collect();
        let none = vec![false; width];
        for mask in [None, Some(&partial), Some(&single), Some(&none)] {
            masked_softmax_into(&logits, mask.map(|m| m.as_slice()), &mut probs);
            assert_eq!(probs.len(), width);
            h.push(&probs);
        }
    }
    assert_eq!(h.0, GOLDEN_SOFTMAX, "{NOTE}: got {:#018x}", h.0);
}
