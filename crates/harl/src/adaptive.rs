//! The adaptive-stopping module (§5).
//!
//! Every `λ` steps the alive schedule tracks are sorted by their critic
//! advantage `A_πθ` (Eq. 6) and the lowest `ρ` fraction is eliminated; the
//! episode ends when fewer than `p̂` tracks remain. Tracks with better
//! expected future rewards therefore get longer exploration paths inside
//! the same per-episode candidate budget (Fig. 4).

/// Picks the indices of the tracks that *survive* an elimination round:
/// keeps the `ceil((1-ρ)·n)` tracks with the highest advantage scores.
/// Returned indices are in ascending order.
pub fn select_survivors(advantages: &[f64], rho: f64) -> Vec<usize> {
    let n = advantages.len();
    if n == 0 {
        return Vec::new();
    }
    let keep = n - ((n as f64) * rho).floor() as usize;
    let keep = keep.clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        advantages[b]
            .partial_cmp(&advantages[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<usize> = idx.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

/// Rolling advantage statistics of one schedule track inside the current
/// window.
#[derive(Debug, Clone, Default)]
pub struct TrackWindow {
    sum: f64,
    count: u32,
}

impl TrackWindow {
    pub fn push(&mut self, advantage: f64) {
        self.sum += advantage;
        self.count += 1;
    }

    /// Mean advantage in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn reset(&mut self) {
        self.sum = 0.0;
        self.count = 0;
    }
}

/// Relative position of the best-scored schedule on one track — the
/// *critical step* of §6.2's ablation (Fig. 7(b)), recorded the same way
/// by the fixed-length baseline (Fig. 1(c)).
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct CriticalStep {
    /// Step index of the best schedule (0 = initial sample).
    pub position: usize,
    /// Track length (steps actually taken).
    pub length: usize,
}

impl CriticalStep {
    /// Position normalized to `[0, 1]` (the x-axis of Fig. 1(c) / 7(b)).
    pub fn relative(&self) -> f64 {
        match self.length {
            0 => 0.0,
            n => self.position as f64 / n as f64,
        }
    }
}

/// Histogram of relative critical-step positions (the y-axis of
/// Fig. 1(c) / Fig. 7(b)).
pub fn critical_step_histogram(steps: &[CriticalStep], bins: usize) -> Vec<u64> {
    let mut hist = vec![0u64; bins.max(1)];
    for s in steps {
        let r = s.relative().clamp(0.0, 1.0);
        let b = ((r * bins as f64) as usize).min(bins - 1);
        hist[b] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivors_keep_highest_advantages() {
        let adv = [0.1, 0.9, -0.5, 0.4];
        let kept = select_survivors(&adv, 0.5);
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn rho_zero_keeps_all() {
        let adv = [1.0, 2.0, 3.0];
        assert_eq!(select_survivors(&adv, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn rho_one_keeps_at_least_one() {
        let adv = [1.0, 2.0, 3.0];
        let kept = select_survivors(&adv, 1.0);
        assert_eq!(kept, vec![2]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(select_survivors(&[], 0.5).is_empty());
    }

    #[test]
    fn elimination_fraction_matches_rho() {
        let adv: Vec<f64> = (0..128).map(|i| i as f64).collect();
        assert_eq!(select_survivors(&adv, 0.5).len(), 64);
        assert_eq!(select_survivors(&adv, 0.25).len(), 96);
        assert_eq!(select_survivors(&adv, 0.75).len(), 32);
    }

    #[test]
    fn track_window_mean() {
        let mut w = TrackWindow::default();
        assert_eq!(w.mean(), 0.0);
        w.push(1.0);
        w.push(3.0);
        assert_eq!(w.mean(), 2.0);
        w.reset();
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn histogram_bins_positions() {
        let steps = vec![
            CriticalStep {
                position: 0,
                length: 10,
            },
            CriticalStep {
                position: 9,
                length: 10,
            },
            CriticalStep {
                position: 10,
                length: 10,
            },
            CriticalStep {
                position: 5,
                length: 10,
            },
        ];
        let h = critical_step_histogram(&steps, 10);
        assert_eq!(h.iter().sum::<u64>(), 4);
        assert_eq!(h[0], 1);
        assert_eq!(h[9], 2); // 0.9 and 1.0 clamp into the last bin
        assert_eq!(h[5], 1);
    }
}
