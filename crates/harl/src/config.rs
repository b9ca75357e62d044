//! HARL configuration — the hyper-parameters of Table 5 a caller varies,
//! plus the ablation toggles used in §6. The rest of Table 5 are named
//! constants beside the code that reads them: `T_rl` is
//! `episode::TRAIN_INTERVAL`, α, β and Δt are in `ansor::task_sched`, and
//! SW-UCB's `c` and `τ` are [`BanditKind::paper_default`].

use crate::bandit::{AnyBandit, BanditKind};
use harl_gbt::GbtParams;
use harl_nnet::PpoConfig;
use harl_tensor_sim::ConfigError;

/// Windows an adaptive episode runs at most: the bound that ends it even
/// when an elimination drops nobody (ρ = 0, or ⌊alive·ρ⌋ = 0).
pub(crate) const MAX_WINDOWS: usize = 64;

/// Full HARL configuration. [`HarlConfig::paper`] reproduces Table 5;
/// [`HarlConfig::fast`] scales the search down for tests and quick runs
/// without changing any algorithmic behaviour.
#[derive(Debug, Clone)]
pub struct HarlConfig {
    // --- adaptive-stopping (§5) -----------------------------------------
    /// Window size λ: steps between eliminations (Table 5: 20).
    pub lambda: usize,
    /// Elimination rate ρ: fraction of tracks dropped per window
    /// (Table 5: 0.5).
    pub rho: f64,
    /// Minimum number of remaining tracks p̂ (Table 5: 64).
    pub min_tracks: usize,
    /// Number of schedule tracks sampled per round `p`.
    pub tracks_per_round: usize,
    /// Toggle for the adaptive-stopping module; `false` gives the
    /// fixed-length "Hierarchical-RL" ablation of Fig. 7(a).
    pub adaptive_stopping: bool,
    /// Fraction of each round's schedule tracks warm-started from the best
    /// measured schedules of the selected sketch (the rest are random
    /// samples). 0 disables exploitation seeding.
    pub elite_track_fraction: f64,
    /// Fixed episode length when `adaptive_stopping` is off. The paper's
    /// equal-candidate comparison sets this to `2λ` (Fig. 4).
    pub fixed_length: usize,

    // --- actor-critic (§4.3) ---------------------------------------------
    /// PPO settings (Table 5: lr_a 3e-4, lr_c 1e-3, γ 0.9, w_MSE 0.5,
    /// w_entropy 0.01).
    pub ppo: PpoConfig,
    /// Minibatches per training point.
    pub train_epochs: usize,
    /// Candidate modifications the actor proposes per step; the cost model
    /// prunes to the best one (§3.2: "this cost model prunes the schedules
    /// with low prediction scores").
    pub action_samples: usize,

    // --- cost model --------------------------------------------------------
    pub gbt: GbtParams,

    // --- measurement budget ------------------------------------------------
    /// Top-K measurement candidates per round (same as Ansor's
    /// measure-per-round for the fairness setup of §6.2).
    pub measure_per_round: usize,

    // --- high-level MABs (§4.1) -------------------------------------------
    /// Subgraph-level MAB toggle; `false` falls back to Ansor's greedy
    /// gradient selection (the "w/o subgraph MAB" ablation of Table 4).
    pub subgraph_mab: bool,
    /// Bandit algorithm of both MAB levels (the paper's SW-UCB with
    /// Table 5's `c = 0.25`, `τ = 256`; the other kinds back the bandit
    /// ablation, `Uniform` being Ansor's sketch selection).
    pub mab_kind: BanditKind,

    pub seed: u64,
}

impl HarlConfig {
    /// A bandit of `mab_kind` over `arms` arms (the sketch and the subgraph
    /// level build theirs the same way).
    pub(crate) fn bandit(&self, arms: usize) -> AnyBandit {
        self.mab_kind.build(arms)
    }

    /// The paper's default settings (Table 5 / §6.2).
    pub fn paper() -> Self {
        HarlConfig {
            lambda: 20,
            rho: 0.5,
            min_tracks: 64,
            tracks_per_round: 128,
            adaptive_stopping: true,
            elite_track_fraction: 0.25,
            fixed_length: 40,
            ppo: PpoConfig::default(),
            train_epochs: 4,
            action_samples: 8,
            gbt: GbtParams::default(),
            measure_per_round: 64,
            subgraph_mab: true,
            mab_kind: BanditKind::paper_default(),
            seed: 0x4a21,
        }
    }

    /// Scaled-down settings for fast runs; identical algorithms, smaller
    /// track counts and episodes.
    pub fn fast() -> Self {
        HarlConfig {
            lambda: 8,
            rho: 0.5,
            min_tracks: 8,
            tracks_per_round: 64,
            fixed_length: 16,
            measure_per_round: 16,
            elite_track_fraction: 0.5,
            gbt: GbtParams {
                n_rounds: 12,
                ..Default::default()
            },
            ppo: PpoConfig {
                lr_actor: 1e-3,
                lr_critic: 3e-3,
                ..Default::default()
            },
            ..Self::paper()
        }
    }

    /// Minimal settings for unit tests: identical algorithms, smallest
    /// useful episode geometry.
    pub fn tiny() -> Self {
        HarlConfig {
            lambda: 3,
            rho: 0.5,
            min_tracks: 4,
            tracks_per_round: 8,
            fixed_length: 6,
            measure_per_round: 8,
            action_samples: 2,
            train_epochs: 2,
            gbt: GbtParams {
                n_rounds: 8,
                ..Default::default()
            },
            ppo: PpoConfig {
                hidden: 32,
                ..Default::default()
            },
            ..Self::paper()
        }
    }
}

impl Default for HarlConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl HarlConfig {
    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("harl.lambda", self.lambda),
            ("harl.min_tracks", self.min_tracks),
            ("harl.tracks_per_round", self.tracks_per_round),
            ("harl.fixed_length", self.fixed_length),
            ("harl.train_epochs", self.train_epochs),
            ("harl.action_samples", self.action_samples),
            ("harl.measure_per_round", self.measure_per_round),
        ] {
            if v == 0 {
                return Err(ConfigError::new(field, "must be positive"));
            }
        }
        if !(0.0..=1.0).contains(&self.rho) || !self.rho.is_finite() {
            return Err(ConfigError::new("harl.rho", "must be within [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.elite_track_fraction) {
            return Err(ConfigError::new(
                "harl.elite_track_fraction",
                "must be within [0, 1]",
            ));
        }
        // `SlidingWindowUcb::new` asserts τ > 0
        if let BanditKind::SwUcb { c, tau } = self.mab_kind {
            if tau == 0 {
                return Err(ConfigError::new(
                    "harl.mab_kind",
                    "SW-UCB τ must be positive",
                ));
            }
            if !c.is_finite() || c < 0.0 {
                return Err(ConfigError::new(
                    "harl.mab_kind",
                    "SW-UCB c must be finite and non-negative",
                ));
            }
        }
        self.ppo.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table5() {
        let c = HarlConfig::paper();
        assert_eq!(c.lambda, 20);
        assert_eq!(c.rho, 0.5);
        assert_eq!(c.min_tracks, 64);
        assert!((c.ppo.lr_actor - 3e-4).abs() < 1e-9);
        assert!((c.ppo.lr_critic - 1e-3).abs() < 1e-9);
        assert_eq!(crate::episode::TRAIN_INTERVAL, 2);
        assert!((c.ppo.gamma - 0.9).abs() < 1e-9);
        assert!((c.ppo.value_weight - 0.5).abs() < 1e-9);
        assert!((c.ppo.entropy_weight - 0.01).abs() < 1e-9);
        assert_eq!(c.mab_kind, BanditKind::paper_default());
    }

    #[test]
    fn validate_names_the_bad_field() {
        for preset in [HarlConfig::paper, HarlConfig::fast, HarlConfig::tiny] {
            assert!(preset().validate().is_ok());
        }
        let base = HarlConfig::paper;
        #[rustfmt::skip]
        let bad = [
            ("harl.lambda", HarlConfig { lambda: 0, ..base() }),
            ("harl.measure_per_round", HarlConfig { measure_per_round: 0, ..base() }),
            ("harl.mab_kind", HarlConfig { mab_kind: BanditKind::SwUcb { c: 0.25, tau: 0 }, ..base() }),
            ("harl.rho", HarlConfig { rho: 1.5, ..base() }),
            ("harl.mab_kind", HarlConfig { mab_kind: BanditKind::SwUcb { c: f64::NAN, tau: 256 }, ..base() }),
            ("harl.mab_kind", HarlConfig { mab_kind: BanditKind::SwUcb { c: -1.0, tau: 256 }, ..base() }),
            ("harl.elite_track_fraction", HarlConfig { elite_track_fraction: -0.1, ..base() }),
            ("ppo.minibatch", HarlConfig { ppo: PpoConfig { minibatch: 0, ..Default::default() }, ..base() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
    }
}
