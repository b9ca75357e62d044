//! Sliding-Window Upper Confidence Bound (SW-UCB) for non-stationary
//! bandits — Garivier & Moulines 2008, used by HARL for both subgraph and
//! sketch selection (Eq. 1):
//!
//! ```text
//! O_t = argmax_a  Q_t(τ, a) + c · sqrt( ln(min(t, τ)) / N_t(τ, a) )
//! ```
//!
//! where `Q_t(τ, a)` is the mean reward of arm `a` inside the window of the
//! last `τ` pulls and `N_t(τ, a)` counts `a`'s pulls inside the window
//! (Eq. 2 / Eq. 4 specialise the reward definition per level).

use std::collections::VecDeque;

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::Bandit;

/// SW-UCB policy state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindowUcb {
    arms: usize,
    /// Exploration constant `c` (Table 5: 0.25).
    c: f64,
    /// Window size `τ` (Table 5: 256).
    tau: usize,
    /// Rolling record of the last `τ` (arm, reward) observations.
    window: VecDeque<(usize, f64)>,
    /// Per-arm reward sums and counts *within the window*.
    sums: Vec<f64>,
    counts: Vec<u64>,
    /// Total pulls `t`.
    t: u64,
    /// NaN/infinite rewards caught (and clamped to 0) by the V006 guard.
    non_finite: u64,
}

impl SlidingWindowUcb {
    /// SW-UCB over `arms` arms with exploration constant `c` and window `tau`.
    pub fn new(arms: usize, c: f64, tau: usize) -> Self {
        assert!(arms > 0, "bandit needs at least one arm");
        assert!(tau > 0, "window must be positive");
        SlidingWindowUcb {
            arms,
            c,
            tau,
            window: VecDeque::with_capacity(tau + 1),
            sums: vec![0.0; arms],
            counts: vec![0; arms],
            t: 0,
            non_finite: 0,
        }
    }

    /// Windowed mean reward `Q_t(τ, a)`; 0 when unvisited in the window.
    pub fn q(&self, arm: usize) -> f64 {
        if self.counts[arm] == 0 {
            0.0
        } else {
            self.sums[arm] / self.counts[arm] as f64
        }
    }

    /// Windowed pull count `N_t(τ, a)`.
    pub fn n(&self, arm: usize) -> u64 {
        self.counts[arm]
    }

    /// NaN/infinite rewards caught by the V006 guard in [`Bandit::update`].
    pub fn non_finite_rewards(&self) -> u64 {
        self.non_finite
    }

    /// The UCB score of Eq. 1 for one arm; infinite when the arm has no
    /// observation inside the window (forces exploration).
    pub fn ucb(&self, arm: usize) -> f64 {
        if self.counts[arm] == 0 {
            return f64::INFINITY;
        }
        let horizon = (self.t.min(self.tau as u64)).max(2) as f64;
        self.q(arm) + self.c * (horizon.ln() / self.counts[arm] as f64).sqrt()
    }
}

impl Bandit for SlidingWindowUcb {
    fn num_arms(&self) -> usize {
        self.arms
    }

    fn select<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> usize {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for a in 0..self.arms {
            let v = self.ucb(a);
            if v > best_v {
                best_v = v;
                best = a;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.arms);
        // V006: a single NaN reward would poison the windowed sums forever
        let reward = if reward.is_finite() {
            reward
        } else {
            self.non_finite += 1;
            0.0
        };
        self.window.push_back((arm, reward));
        self.sums[arm] += reward;
        self.counts[arm] += 1;
        self.t += 1;
        while self.window.len() > self.tau {
            let (old_arm, old_r) = self.window.pop_front().expect("non-empty");
            self.sums[old_arm] -= old_r;
            self.counts[old_arm] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn explores_all_arms_first() {
        let mut b = SlidingWindowUcb::new(4, 0.25, 16);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..4 {
            let a = b.select(&mut rng);
            seen[a] = true;
            b.update(a, 0.0);
        }
        assert!(seen.iter().all(|&s| s), "all arms pulled during cold start");
    }

    #[test]
    fn prefers_higher_reward_arm() {
        let mut b = SlidingWindowUcb::new(3, 0.25, 256);
        let mut rng = StdRng::seed_from_u64(2);
        let mut pulls = [0u64; 3];
        for _ in 0..1000 {
            let a = b.select(&mut rng);
            pulls[a] += 1;
            b.update(a, [0.2, 0.9, 0.4][a]);
        }
        assert!(
            pulls[1] > pulls[0] && pulls[1] > pulls[2],
            "pulls {pulls:?}"
        );
    }

    #[test]
    fn adapts_to_non_stationary_rewards() {
        // arm 0 is best for the first 500 pulls, then arm 1 becomes best;
        // a small window must switch, which is the whole point of SW-UCB.
        let mut b = SlidingWindowUcb::new(2, 0.25, 64);
        let mut rng = StdRng::seed_from_u64(3);
        let mut late_pulls = [0u64; 2];
        for step in 0..1500 {
            let a = b.select(&mut rng);
            let r = if step < 500 {
                [0.9, 0.1][a]
            } else {
                [0.1, 0.9][a]
            };
            b.update(a, r);
            if step >= 1000 {
                late_pulls[a] += 1;
            }
        }
        assert!(
            late_pulls[1] > 4 * late_pulls[0],
            "SW-UCB should switch to the newly-best arm: {late_pulls:?}"
        );
    }

    #[test]
    fn window_counts_stay_bounded() {
        let mut b = SlidingWindowUcb::new(2, 0.25, 10);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let a = b.select(&mut rng);
            b.update(a, 0.5);
        }
        assert_eq!(b.n(0) + b.n(1), 10, "the window holds the last τ pulls");
    }

    #[test]
    fn evicted_rewards_leave_q() {
        let mut b = SlidingWindowUcb::new(2, 0.25, 4);
        // 4 pulls of arm 0 with reward 1, then 4 with reward 0:
        // window only holds the zeros afterwards.
        for _ in 0..4 {
            b.update(0, 1.0);
        }
        assert!((b.q(0) - 1.0).abs() < 1e-12);
        for _ in 0..4 {
            b.update(0, 0.0);
        }
        assert!(b.q(0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_rewards_are_clamped_and_counted() {
        let mut b = SlidingWindowUcb::new(2, 0.25, 8);
        b.update(0, 0.5);
        b.update(0, f64::NAN);
        b.update(0, f64::INFINITY);
        b.update(0, f64::NEG_INFINITY);
        assert_eq!(b.non_finite_rewards(), 3);
        // clamped to 0 → the windowed mean stays finite and correct
        assert!(b.q(0).is_finite());
        assert!((b.q(0) - 0.125).abs() < 1e-12);
        assert!(b.ucb(0).is_finite());
    }

    #[test]
    fn unvisited_arm_has_infinite_ucb() {
        let mut b = SlidingWindowUcb::new(2, 0.25, 8);
        b.update(0, 0.5);
        assert!(b.ucb(1).is_infinite());
        assert!(b.ucb(0).is_finite());
    }
}
