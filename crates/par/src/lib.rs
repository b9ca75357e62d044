//! # harl-par
//!
//! A tiny scoped thread pool for the scoring pipeline (no dependencies
//! beyond the workspace's own `harl-obs` counters and the `harl-check`
//! sync wrappers, which are plain `std::sync` in release builds).
//!
//! The workspace has no crates.io access (same discipline as `shims/`), so
//! this crate provides the minimal parallel primitive the tuners need: an
//! **order-preserving** parallel map. Workers steal chunks of the index
//! range from a shared atomic cursor, but every result is written back to
//! the slot of the input it came from, so the output order — and therefore
//! every downstream RNG stream, trace, and checkpoint byte — is identical
//! no matter how many threads ran or how the OS scheduled them.
//!
//! Threads are spawned per call with [`std::thread::scope`]: no persistent
//! workers, no `unsafe`, no lifetime erasure. Spawning only pays off when
//! there is real work to split, so maps smaller than
//! [`MIN_ITEMS_PER_WORKER`] items per worker run inline on the caller's
//! thread — the result is identical either way, this is purely a latency
//! decision, and it depends only on the input length (never on timing),
//! so it cannot perturb determinism.
//!
//! Two env-selected pool widths exist (`HARL_SCORE_THREADS` for the
//! scoring pipeline, `HARL_PPO_THREADS` for the PPO batched backward
//! pass); [`ParallelismOpts`] bundles them into the single knob the
//! `Tuner` trait, tuning sessions, and serve job specs accept.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use harl_check::{AtomicRole, CAtomicUsize, CMutex};
use harl_obs::Counter;
use serde::{Deserialize, Serialize};

/// Global counters for how often maps run inline vs spawn workers — the
/// signal for whether `HARL_SCORE_THREADS` is actually buying parallelism.
fn map_counter(mode: &'static str) -> &'static Counter {
    static INLINE: OnceLock<Counter> = OnceLock::new();
    static PARALLEL: OnceLock<Counter> = OnceLock::new();
    let (cell, name) = match mode {
        "inline" => (&INLINE, "harl_par_maps_total{mode=\"inline\"}"),
        _ => (&PARALLEL, "harl_par_maps_total{mode=\"parallel\"}"),
    };
    cell.get_or_init(|| harl_obs::global().counter(name))
}

/// Environment variable selecting the scoring-pool width.
pub const THREADS_ENV: &str = "HARL_SCORE_THREADS";

/// Environment variable selecting the PPO gradient-reduction pool width.
pub const PPO_THREADS_ENV: &str = "HARL_PPO_THREADS";

/// Below this many items per worker, [`ThreadPool::map_indexed`] runs
/// inline instead of spawning: the per-call spawn cost (a bare scoped
/// spawn + join is about 200 µs here, `par.map_overhead_us` reads 60–510 µs)
/// would dominate maps of cheap per-item work.
pub const MIN_ITEMS_PER_WORKER: usize = 64;

fn env_threads(var: &str) -> usize {
    match std::env::var(var) {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => 1,
    }
}

/// Number of scoring threads requested via `HARL_SCORE_THREADS`.
///
/// Unset, empty, unparsable, or `0` all fall back to 1 (serial): the
/// scoring pipeline is bit-deterministic at any width, so the safe default
/// is the one with zero thread overhead on small boxes.
pub fn threads_from_env() -> usize {
    env_threads(THREADS_ENV)
}

/// Number of PPO backward-pass threads requested via `HARL_PPO_THREADS`,
/// with the same fallback rule as [`threads_from_env`].
pub fn ppo_threads_from_env() -> usize {
    env_threads(PPO_THREADS_ENV)
}

/// Thread widths for every parallel component a tuner owns.
///
/// Each width drives one bit-deterministic pool: the batched scoring
/// pipeline and the PPO batched backward pass are both order-preserving
/// reductions, so these settings change wall time only — never results,
/// traces, or checkpoints. That is also why job identities (e.g. a serve
/// job key) must not include them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismOpts {
    /// Width of the batched scoring pool (env default: `HARL_SCORE_THREADS`).
    pub score_threads: usize,
    /// Width of the PPO backward pool (env default: `HARL_PPO_THREADS`).
    pub ppo_threads: usize,
}

impl Default for ParallelismOpts {
    /// Environment defaults, i.e. [`ParallelismOpts::from_env`].
    fn default() -> Self {
        ParallelismOpts::from_env()
    }
}

impl ParallelismOpts {
    /// Hard sanity cap on any requested width.
    pub const MAX_THREADS: usize = 512;

    /// Widths from `HARL_SCORE_THREADS` / `HARL_PPO_THREADS` (default 1).
    pub fn from_env() -> Self {
        ParallelismOpts {
            score_threads: threads_from_env(),
            ppo_threads: ppo_threads_from_env(),
        }
    }

    /// Fully serial execution (width 1 everywhere).
    pub fn serial() -> Self {
        ParallelismOpts::uniform(1)
    }

    /// The same width for every pool.
    pub fn uniform(threads: usize) -> Self {
        ParallelismOpts {
            score_threads: threads,
            ppo_threads: threads,
        }
    }

    /// Rejects widths of 0 or beyond [`ParallelismOpts::MAX_THREADS`]
    /// (job specs arrive over the wire; a typo must not spawn 10⁶ threads).
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

/// A fixed-width scoped thread pool.
///
/// `threads == 1` never spawns: the map runs inline on the caller's
/// thread. Either way the result of [`ThreadPool::map_indexed`] is the
/// same `Vec`, element `i` computed from input `i`.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of exactly `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by `HARL_SCORE_THREADS` (default 1).
    pub fn from_env() -> Self {
        ThreadPool::new(threads_from_env())
    }

    /// A pool sized by `HARL_PPO_THREADS` (default 1).
    pub fn ppo_from_env() -> Self {
        ThreadPool::new(ppo_threads_from_env())
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, &item)` to every item and returns the results in
    /// input order, regardless of which worker computed what.
    ///
    /// Work distribution is dynamic: workers claim chunks from a shared
    /// cursor, so an uneven per-item cost still balances. Chunks are
    /// scattered back by index, which is what makes the output order (and
    /// all downstream float accumulation) independent of scheduling.
    pub fn map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Applies `f(index, &mut item)` to every item **in place** — the
    /// mutable sibling of [`ThreadPool::map_indexed`] for callers that own
    /// reusable per-item buffers (e.g. the scoring pipeline's persistent
    /// miss-row scratch) and must not allocate a result `Vec` per call.
    /// [`ThreadPool::for_each_row_block`] with one-item rows.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.for_each_row_block(items, 1, |first, block| {
            for (i, item) in block.iter_mut().enumerate() {
                f(first + i, item);
            }
        });
    }

    /// Calls `f(first_row, block)` on contiguous blocks of whole rows of
    /// `data` (`data.len() / row_len` rows of `row_len` elements each) that
    /// together cover it exactly once — for work that wants a block, not a
    /// row, at a time (a register-blocked GEMM over output rows).
    ///
    /// Rows are split into one block per worker via `chunks_mut` (no
    /// `unsafe`, no stealing: mutation pins each row to exactly one
    /// worker). Every row is written by the call that got its index, so
    /// results are independent of scheduling provided `f` computes a row
    /// the same way whatever block it lands in. The same inline threshold
    /// applies, counted in rows: below it `f(0, data)` runs on the caller.
    pub fn for_each_row_block<T, F>(&self, data: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "for_each_row_block: empty rows");
        let rows = data.len() / row_len;
        debug_assert_eq!(data.len(), rows * row_len);
        if self.threads == 1 || rows < self.threads * MIN_ITEMS_PER_WORKER {
            map_counter("inline").inc();
            f(0, data);
            return;
        }
        map_counter("parallel").inc();
        let workers = self.threads.min(rows);
        let chunk = rows.div_ceil(workers);
        std::thread::scope(|scope| {
            for (c, block) in data.chunks_mut(chunk * row_len).enumerate() {
                let f = &f;
                scope.spawn(move || f(c * chunk, block));
            }
        });
    }

    /// Applies `f(i)` for every `i in 0..n` and returns the results in
    /// index order — the range-shaped sibling of
    /// [`ThreadPool::map_indexed`], for work that is naturally indexed
    /// (matrix rows) rather than sliced. Same determinism contract: slot
    /// `i` holds `f(i)` no matter how many workers ran.
    pub fn map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads == 1 || n < self.threads * MIN_ITEMS_PER_WORKER {
            map_counter("inline").inc();
            return (0..n).map(&f).collect();
        }
        map_counter("parallel").inc();
        let workers = self.threads.min(n);
        // a few chunks per worker: enough slack to balance skewed items
        // without paying cursor contention on every element
        let chunk = (n / (workers * 4)).max(1);
        let cursor = CAtomicUsize::new(0, "par.cursor", AtomicRole::Counter);
        let results: CMutex<Vec<(usize, Vec<U>)>> = CMutex::new("par.results", Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    let vals: Vec<U> = (start..end).map(&f).collect();
                    results
                        .lock()
                        .expect("par results poisoned")
                        .push((start, vals));
                });
            }
        });
        // scatter chunks back into input order
        let mut chunks = results.into_inner().expect("par results poisoned");
        chunks.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, vals) in chunks {
            out.extend(vals);
        }
        debug_assert_eq!(out.len(), n);
        out
    }
}

impl Default for ThreadPool {
    /// A serial pool. Deserialized owners (checkpoint restores) start
    /// serial and get their runtime width re-applied by the tuner.
    fn default() -> Self {
        ThreadPool::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_indexed(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_results_at_any_width() {
        // float accumulation per element: results must be bit-identical
        // across widths because each slot is computed independently
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.1).collect();
        let serial = ThreadPool::new(1).map_indexed(&items, |_, &x| (x.sin() + x.sqrt()).to_bits());
        for threads in [2, 3, 4] {
            let par = ThreadPool::new(threads)
                .map_indexed(&items, |_, &x| (x.sin() + x.sqrt()).to_bits());
            assert_eq!(par, serial, "width {threads} diverged");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map_indexed(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn unbalanced_items_still_complete() {
        // one expensive item among cheap ones exercises chunk stealing
        // (large enough to clear the inline threshold at 4 threads)
        let items: Vec<u64> = (0..512).collect();
        let pool = ThreadPool::new(4);
        let out = pool.map_indexed(&items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 10 };
            (0..spins).fold(x, |acc, _| acc.wrapping_mul(6364136223846793005))
        });
        let reference = ThreadPool::new(1).map_indexed(&items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 10 };
            (0..spins).fold(x, |acc, _| acc.wrapping_mul(6364136223846793005))
        });
        assert_eq!(out, reference);
    }

    #[test]
    fn width_is_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn map_range_matches_map_indexed() {
        let items: Vec<usize> = (0..300).collect();
        for threads in [1, 3, 8] {
            let pool = ThreadPool::new(threads);
            let by_range = pool.map_range(items.len(), |i| items[i] * 3 + 1);
            let by_slice = pool.map_indexed(&items, |_, &x| x * 3 + 1);
            assert_eq!(by_range, by_slice);
        }
    }

    #[test]
    fn for_each_mut_matches_serial_at_any_width() {
        // above and below the inline threshold, every slot must hold the
        // value its own index produced
        for n in [0usize, 1, 63, 256, 1000] {
            let reference: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            for threads in [1, 2, 4, 8] {
                let pool = ThreadPool::new(threads);
                let mut items = vec![0u64; n];
                pool.for_each_mut(&mut items, |i, slot| {
                    *slot = (i as u64) * (i as u64) + 1;
                });
                assert_eq!(items, reference, "n={n} width {threads}");
            }
        }
    }

    #[test]
    fn for_each_mut_reuses_buffers_in_place() {
        let pool = ThreadPool::new(4);
        let mut rows: Vec<Vec<f32>> = (0..512).map(|_| Vec::with_capacity(8)).collect();
        let ptrs: Vec<*const f32> = rows.iter().map(|r| r.as_ptr()).collect();
        pool.for_each_mut(&mut rows, |i, row| {
            row.clear();
            row.push(i as f32);
        });
        for (i, (row, &ptr)) in rows.iter().zip(&ptrs).enumerate() {
            assert_eq!(row.as_slice(), &[i as f32]);
            assert_eq!(row.as_ptr(), ptr, "row {i} must keep its allocation");
        }
    }

    #[test]
    fn row_blocks_cover_every_row_once_at_any_width() {
        // 3-element rows; blocks must start on row boundaries, carry the
        // right first-row index and together touch each row exactly once
        for rows in [0usize, 1, 127, 128, 301] {
            let reference: Vec<usize> = (0..rows * 3).map(|i| i / 3 + 1).collect();
            for threads in [1, 2, 7] {
                let pool = ThreadPool::new(threads);
                let mut data = vec![0usize; rows * 3];
                pool.for_each_row_block(&mut data, 3, |first, block| {
                    assert_eq!(block.len() % 3, 0);
                    for (r, row) in block.chunks_mut(3).enumerate() {
                        for v in row {
                            *v += first + r + 1;
                        }
                    }
                });
                assert_eq!(data, reference, "rows={rows} width {threads}");
            }
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
    }

    #[test]
    fn env_parsing_defaults_to_serial() {
        // cannot mutate the process env safely under parallel tests;
        // exercise the parsing rule directly instead
        let parse = |v: &str| v.trim().parse::<usize>().unwrap_or(1).max(1);
        assert_eq!(parse("4"), 4);
        assert_eq!(parse(" 2 "), 2);
        assert_eq!(parse(""), 1);
        assert_eq!(parse("zero"), 1);
        assert_eq!(parse("0"), 1);
    }
}
