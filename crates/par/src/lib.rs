//! # harl-par
//!
//! Two names the frozen `benchmark/` crate compiles against:
//! [`ParallelismOpts`] (also a `JobSpec` wire field, where it is validated
//! and then ignored) and [`ThreadPool::map_range`]. Every round of every
//! searcher runs on its caller's thread; parallelism pays across seeds,
//! where a caller spawns with [`std::thread::scope`] directly.

use serde::{Deserialize, Serialize};

/// Accepted and ignored; the search runs on the caller's thread; removed
/// with the benchmark re-baseline (ROADMAP item 7).
///
/// A job spec still carries it over the wire, so [`ParallelismOpts::validate`]
/// still rejects widths a client should never have sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismOpts {
    /// Width asked for the candidate scoring stage.
    pub score_threads: usize,
    /// Width asked for the PPO backward pass.
    pub ppo_threads: usize,
}

impl Default for ParallelismOpts {
    /// [`ParallelismOpts::serial`].
    fn default() -> Self {
        ParallelismOpts::serial()
    }
}

impl ParallelismOpts {
    /// Hard sanity cap on any requested width.
    pub const MAX_THREADS: usize = 512;

    /// Width 1 everywhere.
    pub fn serial() -> Self {
        ParallelismOpts::uniform(1)
    }

    /// The same width for both stages.
    pub fn uniform(threads: usize) -> Self {
        ParallelismOpts {
            score_threads: threads,
            ppo_threads: threads,
        }
    }

    /// Rejects widths of 0 or beyond [`ParallelismOpts::MAX_THREADS`]
    /// (job specs arrive over the wire; a typo is refused, not ignored).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("score_threads", self.score_threads),
            ("ppo_threads", self.ppo_threads),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            if v > Self::MAX_THREADS {
                return Err(format!(
                    "{name} {v} exceeds the maximum of {}",
                    Self::MAX_THREADS
                ));
            }
        }
        Ok(())
    }
}

/// Accepted and ignored; the search runs on the caller's thread; removed
/// with the benchmark re-baseline (ROADMAP item 7).
#[derive(Debug, Clone)]
pub struct ThreadPool;

impl ThreadPool {
    /// The width is accepted and ignored.
    pub fn new(_threads: usize) -> Self {
        ThreadPool
    }

    /// `f(i)` for every `i in 0..n`, in index order, on the caller's
    /// thread.
    pub fn map_range<U>(&self, n: usize, f: impl FnMut(usize) -> U) -> Vec<U> {
        (0..n).map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_is_a_plain_map_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for n in [0, 1, 301, 8209] {
            let got = ThreadPool::new(4).map_range(n, |i| (i, std::thread::current().id()));
            assert_eq!(got.len(), n);
            assert!(got
                .iter()
                .enumerate()
                .all(|(i, &(j, id))| i == j && id == caller));
        }
    }

    #[test]
    fn parallelism_opts_validate() {
        assert!(ParallelismOpts::serial().validate().is_ok());
        assert!(ParallelismOpts::uniform(8).validate().is_ok());
        assert!(ParallelismOpts::uniform(0).validate().is_err());
        let absurd = ParallelismOpts {
            score_threads: 4,
            ppo_threads: ParallelismOpts::MAX_THREADS + 1,
        };
        assert!(absurd.validate().unwrap_err().contains("ppo_threads"));
    }

    #[test]
    fn parallelism_opts_serde_round_trip() {
        let opts = ParallelismOpts {
            score_threads: 4,
            ppo_threads: 2,
        };
        let json = serde_json::to_string(&opts).unwrap();
        let back: ParallelismOpts = serde_json::from_str(&json).unwrap();
        assert_eq!(back, opts);
        assert_eq!(ParallelismOpts::default(), ParallelismOpts::serial());
    }
}
