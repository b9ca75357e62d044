//! Runtime-selectable bandit policies.
//!
//! The [`Bandit`] trait is not object-safe (generic `select`), so
//! [`AnyBandit`] provides enum dispatch for places that choose the policy
//! from configuration — e.g. HARL's ablation of the sketch/subgraph
//! selection algorithm.

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::ducb::{DiscountedUcb, GaussianThompson};
use super::swucb::SlidingWindowUcb;
use super::{Bandit, UniformBandit};

/// Which bandit algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BanditKind {
    /// Sliding-Window UCB (the paper's choice, Eq. 1).
    SwUcb {
        /// Exploration constant.
        c: f64,
        /// Window size τ.
        tau: usize,
    },
    /// Discounted UCB.
    DUcb {
        /// Exploration constant.
        c: f64,
        /// Geometric discount.
        gamma: f64,
    },
    /// Gaussian Thompson sampling with forgetting.
    Thompson {
        /// Geometric forgetting factor.
        gamma: f64,
    },
    /// Time-independent uniform (Ansor's sketch behaviour).
    Uniform,
}

impl BanditKind {
    /// The paper's default: SW-UCB with `c = 0.25`, `τ = 256` (Table 5).
    pub fn paper_default() -> Self {
        BanditKind::SwUcb { c: 0.25, tau: 256 }
    }

    /// Instantiates the policy over `arms` arms.
    pub fn build(self, arms: usize) -> AnyBandit {
        match self {
            BanditKind::SwUcb { c, tau } => AnyBandit::SwUcb(SlidingWindowUcb::new(arms, c, tau)),
            BanditKind::DUcb { c, gamma } => AnyBandit::DUcb(DiscountedUcb::new(arms, c, gamma)),
            BanditKind::Thompson { gamma } => {
                AnyBandit::Thompson(GaussianThompson::new(arms, gamma))
            }
            BanditKind::Uniform => AnyBandit::Uniform(UniformBandit::new(arms)),
        }
    }
}

/// Enum-dispatched bandit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyBandit {
    /// Sliding-window UCB.
    SwUcb(SlidingWindowUcb),
    /// Discounted UCB.
    DUcb(DiscountedUcb),
    /// Gaussian Thompson sampling.
    Thompson(GaussianThompson),
    /// Uniform random.
    Uniform(UniformBandit),
}

impl Bandit for AnyBandit {
    fn num_arms(&self) -> usize {
        match self {
            AnyBandit::SwUcb(b) => b.num_arms(),
            AnyBandit::DUcb(b) => b.num_arms(),
            AnyBandit::Thompson(b) => b.num_arms(),
            AnyBandit::Uniform(b) => b.num_arms(),
        }
    }

    fn select<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        match self {
            AnyBandit::SwUcb(b) => b.select(rng),
            AnyBandit::DUcb(b) => b.select(rng),
            AnyBandit::Thompson(b) => b.select(rng),
            AnyBandit::Uniform(b) => b.select(rng),
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        match self {
            AnyBandit::SwUcb(b) => b.update(arm, reward),
            AnyBandit::DUcb(b) => b.update(arm, reward),
            AnyBandit::Thompson(b) => b.update(arm, reward),
            AnyBandit::Uniform(b) => b.update(arm, reward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALL_KINDS: [BanditKind; 4] = [
        BanditKind::SwUcb { c: 0.25, tau: 64 },
        BanditKind::DUcb {
            c: 0.25,
            gamma: 0.98,
        },
        BanditKind::Thompson { gamma: 0.99 },
        BanditKind::Uniform,
    ];

    #[test]
    fn every_kind_builds_and_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in ALL_KINDS {
            let mut b = kind.build(4);
            assert_eq!(b.num_arms(), 4);
            for _ in 0..50 {
                let a = b.select(&mut rng);
                assert!(a < 4, "{kind:?} selected out-of-range arm {a}");
                b.update(a, 0.5);
            }
        }
    }

    #[test]
    fn learning_kinds_find_best_arm() {
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [
            BanditKind::SwUcb { c: 0.25, tau: 64 },
            BanditKind::DUcb {
                c: 0.25,
                gamma: 0.98,
            },
        ] {
            let mut b = kind.build(3);
            let mut pulls = [0u64; 3];
            for _ in 0..600 {
                let a = b.select(&mut rng);
                pulls[a] += 1;
                b.update(a, [0.1, 0.9, 0.3][a]);
            }
            assert!(
                pulls[1] > pulls[0] && pulls[1] > pulls[2],
                "{kind:?} failed: {pulls:?}"
            );
        }
    }

    #[test]
    fn serde_round_trip_continues_identically() {
        for kind in ALL_KINDS {
            let mut rng = StdRng::seed_from_u64(9);
            let mut b = kind.build(4);
            for _ in 0..100 {
                let a = b.select(&mut rng);
                b.update(a, (a as f64) / 4.0);
            }
            let text = serde_json::to_string(&b).unwrap();
            let mut restored: AnyBandit = serde_json::from_str(&text).unwrap();
            // Identical RNG + identical state => identical future pulls.
            let mut rng_a = StdRng::seed_from_u64(10);
            let mut rng_b = StdRng::seed_from_u64(10);
            for _ in 0..50 {
                let a = b.select(&mut rng_a);
                let r = restored.select(&mut rng_b);
                assert_eq!(a, r, "{kind:?} diverged after restore");
                b.update(a, 0.25);
                restored.update(r, 0.25);
            }
        }
    }

    #[test]
    fn paper_default_is_swucb() {
        assert_eq!(
            BanditKind::paper_default(),
            BanditKind::SwUcb { c: 0.25, tau: 256 }
        );
    }
}
