//! # harl-par
//!
//! A tiny scoped thread pool for the scoring pipeline and the PPO
//! backward GEMMs (no dependencies beyond the workspace's own `harl-obs`
//! counters).
//!
//! The workspace has no crates.io access (same discipline as `shims/`), so
//! this crate provides the minimal parallel primitive the tuners need:
//! [`ThreadPool::for_each_row_block`], which hands each worker one
//! contiguous block of whole rows of a mutable buffer. Every row is
//! written by the call that got its index, so the output — and therefore
//! every downstream RNG stream, trace, and checkpoint byte — is identical
//! no matter how many threads ran or how the OS scheduled them.
//! [`ThreadPool::for_each_mut`] and [`ThreadPool::map_range`] are the same
//! split with one-item rows.
//!
//! Threads are spawned per call with [`std::thread::scope`]: no persistent
//! workers, no `unsafe`, no lifetime erasure. Spawning only pays off when
//! there is real work to split, so maps smaller than
//! [`MIN_ITEMS_PER_WORKER`] items per worker run inline on the caller's
//! thread — the result is identical either way, this is purely a latency
//! decision, and it depends only on the input length (never on timing),
//! so it cannot perturb determinism.
//!
//! Two pool widths exist (the scoring pipeline's and the PPO batched
//! backward pass's); [`ParallelismOpts`] bundles them into the single
//! knob the `Tuner` trait, tuning sessions, and serve job specs accept.
//! A width comes from the caller or it is 1: nothing here reads the
//! environment.

use std::sync::OnceLock;

use harl_obs::Counter;
use serde::{Deserialize, Serialize};

/// Global counters for how often maps run inline vs spawn workers — the
/// signal for whether a pool width is actually buying parallelism.
fn map_counter(mode: &'static str) -> &'static Counter {
    static INLINE: OnceLock<Counter> = OnceLock::new();
    static PARALLEL: OnceLock<Counter> = OnceLock::new();
    let (cell, name) = match mode {
        "inline" => (&INLINE, "harl_par_maps_total{mode=\"inline\"}"),
        _ => (&PARALLEL, "harl_par_maps_total{mode=\"parallel\"}"),
    };
    cell.get_or_init(|| harl_obs::global().counter(name))
}

/// Below this many rows per worker, [`ThreadPool::for_each_row_block`]
/// runs inline instead of spawning. Derived from the two numbers
/// `benchmark/` reports: a scoped spawn + join costs up to 510 µs
/// (`par.map_overhead_us` reads 60–510 µs) and a row of the work the
/// tuners split — one extracted feature row
/// (`tensor-ir.extract_ns_per_row`), one 64-wide GEMM output row — costs
/// about 0.3 µs. A worker must carry at least twice the spawn cost to be
/// worth starting: 2 × 510 µs ÷ 0.3 µs ≈ 3 400 rows, rounded up to the
/// next power of two.
pub const MIN_ITEMS_PER_WORKER: usize = 4096;

/// Thread widths for every parallel component a tuner owns.
///
/// Each width drives one bit-deterministic pool: the batched scoring
/// pipeline and the PPO batched backward pass are both order-preserving
/// reductions, so these settings change wall time only — never results,
/// traces, or checkpoints. That is also why job identities (e.g. a serve
/// job key) must not include them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismOpts {
    /// Width of the batched scoring pool.
    pub score_threads: usize,
    /// Width of the PPO backward pool.
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
/// `threads == 1` never spawns: the work runs inline on the caller's
/// thread. Either way row `i` of the output is computed from index `i`.
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

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
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
    /// the same way whatever block it lands in. Below
    /// [`MIN_ITEMS_PER_WORKER`] rows per worker `f(0, data)` runs on the
    /// caller.
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
        let chunk = rows.div_ceil(self.threads);
        std::thread::scope(|scope| {
            for (c, block) in data.chunks_mut(chunk * row_len).enumerate() {
                let f = &f;
                scope.spawn(move || f(c * chunk, block));
            }
        });
    }

    /// Applies `f(index, &mut item)` to every item **in place**, for
    /// callers that own reusable per-item buffers (e.g. the scoring
    /// pipeline's persistent miss-row scratch) and must not allocate a
    /// result `Vec` per call. [`ThreadPool::for_each_row_block`] with
    /// one-item rows.
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

    /// Applies `f(i)` for every `i in 0..n` and returns the results in
    /// index order: slot `i` holds `f(i)` no matter how many workers ran.
    /// [`ThreadPool::for_each_mut`] over `n` empty slots.
    pub fn map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut slots: Vec<Option<U>> = Vec::new();
        slots.resize_with(n, || None);
        self.for_each_mut(&mut slots, |i, slot| *slot = Some(f(i)));
        slots
            .into_iter()
            .map(|slot| slot.expect("every slot is filled exactly once"))
            .collect()
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

    /// One input that runs inline at every width and, per width, one that
    /// crosses the threshold so workers really spawn.
    fn sizes(threads: usize) -> [usize; 4] {
        [0, 1, 301, threads * MIN_ITEMS_PER_WORKER + 17]
    }

    fn parallel_maps() -> u64 {
        map_counter("parallel").get()
    }

    #[test]
    fn map_range_matches_a_plain_map_at_any_width() {
        // float work per element: results must be bit-identical across
        // widths because each slot is computed from its own index
        let f = |i: usize| {
            let x = i as f64 * 0.1;
            (x.sin() + x.sqrt()).to_bits()
        };
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for n in sizes(threads) {
                let plain: Vec<u64> = (0..n).map(f).collect();
                assert_eq!(pool.map_range(n, f), plain, "n={n} width {threads}");
            }
        }
    }

    #[test]
    fn maps_above_the_threshold_spawn_and_below_it_run_inline() {
        let pool = ThreadPool::new(2);
        let before = parallel_maps();
        pool.map_range(2 * MIN_ITEMS_PER_WORKER, |i| i);
        assert!(parallel_maps() > before, "a full map must spawn");
        // other tests share the counter, so "did not spawn" is checked on
        // the thread the work ran on instead
        let caller = std::thread::current().id();
        let ran_on = pool.map_range(2 * MIN_ITEMS_PER_WORKER - 1, |_| {
            std::thread::current().id()
        });
        assert!(ran_on.iter().all(|&id| id == caller));
        let serial = ThreadPool::new(1);
        let ran_on = serial.map_range(4 * MIN_ITEMS_PER_WORKER, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn width_is_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn for_each_mut_matches_serial_at_any_width() {
        // above and below the inline threshold, every slot must hold the
        // value its own index produced
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for n in sizes(threads) {
                let reference: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
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
        let n = 4 * MIN_ITEMS_PER_WORKER + 17;
        let mut rows: Vec<Vec<f32>> = (0..n).map(|_| Vec::with_capacity(8)).collect();
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
        for threads in [1, 2, 7] {
            let pool = ThreadPool::new(threads);
            for rows in sizes(threads) {
                let reference: Vec<usize> = (0..rows * 3).map(|i| i / 3 + 1).collect();
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
        assert_eq!(ParallelismOpts::default(), ParallelismOpts::serial());
    }
}
