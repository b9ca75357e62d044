//! Multi-armed bandit policies for the high-level decisions of the search
//! hierarchy (§4.1): Sliding-Window UCB for the non-stationary subgraph and
//! sketch selection problems (Eq. 1), plus the policies the selection
//! ablation compares it with: discounted UCB, Thompson sampling and
//! Ansor's uniform choice.

pub mod any;
pub mod ducb;
pub mod swucb;

use rand::Rng;
use serde::{Deserialize, Serialize};

pub use any::{AnyBandit, BanditKind};
pub use ducb::{DiscountedUcb, GaussianThompson};
pub use swucb::SlidingWindowUcb;

/// A bandit policy over a fixed number of arms.
pub trait Bandit {
    /// Number of arms.
    fn num_arms(&self) -> usize;

    /// Chooses the next arm to pull.
    fn select<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize;

    /// Feeds back the reward observed for `arm`.
    fn update(&mut self, arm: usize, reward: f64);
}

/// Time-independent uniform selection — Ansor's sketch-selection behaviour
/// (Table 1: "Uniform Distribution").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UniformBandit {
    arms: usize,
}

impl UniformBandit {
    /// Uniform policy over `arms` arms.
    pub fn new(arms: usize) -> Self {
        UniformBandit { arms }
    }
}

impl Bandit for UniformBandit {
    fn num_arms(&self) -> usize {
        self.arms
    }

    fn select<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        rng.gen_range(0..self.arms)
    }

    fn update(&mut self, _arm: usize, _reward: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bernoulli_env<B: Bandit>(
        bandit: &mut B,
        probs: &[f64],
        steps: usize,
        seed: u64,
    ) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pulls = vec![0u64; probs.len()];
        for _ in 0..steps {
            let a = bandit.select(&mut rng);
            pulls[a] += 1;
            let r = if rng.gen::<f64>() < probs[a] {
                1.0
            } else {
                0.0
            };
            bandit.update(a, r);
        }
        pulls
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut b = UniformBandit::new(4);
        let pulls = bernoulli_env(&mut b, &[0.5; 4], 4000, 4);
        for &p in &pulls {
            assert!((800..1200).contains(&(p as usize)), "pulls {pulls:?}");
        }
    }
}
