//! The calibration kernel: a fixed scalar 256³ f32 GEMM compiled into this
//! binary, sampled next to the measured work.
//!
//! The box the benchmark runs on is shared. In noisy periods, which last
//! from a fraction of a second to many minutes, the kernel takes up to
//! three times its quiet 11 ms and the program slows down with it, though
//! less: raw wall times of the same work differ by 20–40 % between runs an
//! hour apart. So the kernel is timed next to the work — after every tuning
//! round, by the waiting client five times a second, and in bursts around
//! set-ups, always off the clock where the benchmark holds the clock — and
//! wall seconds are reported divided by the **square root** of the kernel's
//! mean slowdown. The square root is empirical: over eight runs of each
//! workload spread over a noisy and a quiet period, the program's time
//! followed the kernel's with an exponent between 0.4 and 1 (it is only
//! partly compute-bound, and a sample taken while a job runs on the other
//! core overstates the job's own slowdown), and 0.5 left the smallest
//! worst-case spread (README, "Calibration"). The mean, not the median:
//! samples are a mixture of machine states and the work is slowed by their
//! average. The kernel never changes, shares no code with the program and
//! fits its working set (768 KB) in L2, so an optimisation of the program
//! cannot be normalised away.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the 2-core box in a quiet period. It only fixes
/// the scale: a calibrated second is a second of that box when quiet.
pub const REFERENCE_MS: f64 = 11.0;
const N: usize = 256;
/// Kernel runs per burst (about 0.1 s).
const BURST: usize = 8;

pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // fixed contents: a calibrated second means the same on every seed
        let fill = |m: usize| (0..N * N).map(|i| (i % m) as f32 * 0.125).collect();
        Calibrator {
            a: fill(7),
            b: fill(5),
            c: vec![0.0; N * N],
            samples_ms: Vec::new(),
        }
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let ms = kernel_ms(&self.a, &self.b, &mut self.c);
        self.samples_ms.push(ms);
    }

    /// A burst of samples, for the boundaries of long sections.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.sample();
        }
    }

    /// Mean kernel milliseconds of the samples held (`calib.scalar_gemm_ms`).
    pub fn mean_ms(&self) -> f64 {
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len().max(1) as f64
    }

    /// The factor wall seconds are divided by: the square root of the mean
    /// slowdown over the samples since the last call; 1 with no samples.
    pub fn take_slowdown(&mut self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        let slowdown = (self.mean_ms() / REFERENCE_MS).sqrt();
        self.samples_ms.clear();
        slowdown
    }
}

/// `c = a · bᵀ`, scalar, milliseconds.
fn kernel_ms(a: &[f32], b: &[f32], c: &mut [f32]) -> f64 {
    let t = Instant::now();
    for i in 0..N {
        for j in 0..N {
            let mut acc = 0.0f32;
            for l in 0..N {
                acc += a[i * N + l] * b[j * N + l];
            }
            c[i * N + j] = acc;
        }
    }
    black_box(&c);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_root_of_the_mean_and_consumes_the_samples() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.take_slowdown(), 1.0, "no samples, no correction");
        cal.samples_ms = vec![REFERENCE_MS * 3.0, REFERENCE_MS * 5.0];
        assert_eq!(cal.mean_ms(), REFERENCE_MS * 4.0);
        assert_eq!(cal.take_slowdown(), 2.0);
        assert_eq!(cal.take_slowdown(), 1.0);
        cal.burst();
        assert!(cal.mean_ms() > 0.0);
    }
}
