//! Job descriptions: what a client asks the daemon to tune, and the views
//! the daemon reports back.

use serde::{Deserialize, Serialize};

use harl_gbt::ScoreStats;
use harl_par::ParallelismOpts;
use harl_tensor_ir::{workload, Subgraph};
use harl_tensor_sim::Hardware;

/// The workload a job tunes, as a closed set of named operator shapes the
/// daemon can rebuild deterministically on restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Dense matmul `C[m,n] = A[m,k] * B[k,n]`.
    Gemm {
        /// Rows of A/C.
        m: u32,
        /// Reduction extent.
        k: u32,
        /// Columns of B/C.
        n: u32,
    },
    /// Batched matmul.
    BatchGemm {
        /// Batch count.
        b: u32,
        /// Rows of A/C.
        m: u32,
        /// Reduction extent.
        k: u32,
        /// Columns of B/C.
        n: u32,
    },
    /// 2D convolution, NCHW layout.
    // field names deliberately avoid the derive shim's `w`/`v` binders
    Conv2d {
        /// Batch count.
        batch: u32,
        /// Input height.
        height: u32,
        /// Input width.
        width: u32,
        /// Input channels.
        ci: u32,
        /// Output channels.
        co: u32,
        /// Kernel size (square).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Padding.
        pad: u32,
    },
    /// Row-wise softmax.
    Softmax {
        /// Rows.
        rows: u32,
        /// Columns.
        cols: u32,
    },
}

impl WorkloadSpec {
    /// Builds the tensor-IR subgraph this spec describes.
    pub fn build(&self) -> Subgraph {
        match *self {
            WorkloadSpec::Gemm { m, k, n } => workload::gemm(m, k, n),
            WorkloadSpec::BatchGemm { b, m, k, n } => workload::batch_gemm(b, m, k, n),
            WorkloadSpec::Conv2d {
                batch,
                height,
                width,
                ci,
                co,
                kernel,
                stride,
                pad,
            } => workload::conv2d(batch, height, width, ci, co, kernel, stride, pad),
            WorkloadSpec::Softmax { rows, cols } => workload::softmax(rows, cols),
        }
    }

    /// Rejects shapes [`WorkloadSpec::build`] cannot turn into a subgraph
    /// the searchers accept: a zero extent, a convolution window larger
    /// than its padded input, or an iteration space past
    /// [`WorkloadSpec::MAX_POINTS`]. A spec off the wire never went through
    /// [`WorkloadSpec::parse`].
    pub fn validate(&self) -> Result<(), String> {
        let extents: Vec<u64> = match *self {
            WorkloadSpec::Gemm { m, k, n } => vec![m.into(), k.into(), n.into()],
            WorkloadSpec::BatchGemm { b, m, k, n } => {
                vec![b.into(), m.into(), k.into(), n.into()]
            }
            WorkloadSpec::Conv2d {
                batch,
                height,
                width,
                ci,
                co,
                kernel,
                stride,
                pad,
            } => {
                let padded = |len: u32| u64::from(len) + 2 * u64::from(pad);
                if stride == 0 || u64::from(kernel) > padded(height).min(padded(width)) {
                    return Err(format!(
                        "workload `{}`: the stride must be > 0 and the kernel fit the padded input",
                        self.summary()
                    ));
                }
                let k = u64::from(kernel);
                let taps = [batch.into(), ci.into(), co.into(), k, k];
                [padded(height), padded(width)]
                    .into_iter()
                    .chain(taps)
                    .collect()
            }
            WorkloadSpec::Softmax { rows, cols } => vec![rows.into(), cols.into()],
        };
        if extents.contains(&0) {
            return Err(format!(
                "workload `{}`: dimensions must be > 0",
                self.summary()
            ));
        }
        let points = (extents.iter()).try_fold(1u64, |p, &e| p.checked_mul(e));
        if points.is_none_or(|p| p > Self::MAX_POINTS) {
            return Err(format!(
                "workload `{}` iterates over more than 2^40 points",
                self.summary()
            ));
        }
        Ok(())
    }

    /// Largest iteration space a job may ask for; sizes stay far inside
    /// `u64` and every extent inside `u32` below it.
    pub const MAX_POINTS: u64 = 1 << 40;

    /// The compact CLI form, e.g. `gemm:1024x1024x1024`.
    pub fn summary(&self) -> String {
        match *self {
            WorkloadSpec::Gemm { m, k, n } => format!("gemm:{m}x{k}x{n}"),
            WorkloadSpec::BatchGemm { b, m, k, n } => format!("bgemm:{b}x{m}x{k}x{n}"),
            WorkloadSpec::Conv2d {
                batch,
                height,
                width,
                ci,
                co,
                kernel,
                stride,
                pad,
            } => format!("conv2d:{batch}x{height}x{width}x{ci}x{co}x{kernel}x{stride}x{pad}"),
            WorkloadSpec::Softmax { rows, cols } => format!("softmax:{rows}x{cols}"),
        }
    }

    /// Parses the compact CLI form produced by [`WorkloadSpec::summary`]:
    /// `<op>:<dims>` with `x`-separated dimensions.
    pub fn parse(s: &str) -> Result<WorkloadSpec, String> {
        let (op, dims) = s
            .split_once(':')
            .ok_or_else(|| format!("workload `{s}` must look like `gemm:1024x1024x1024`"))?;
        let nums: Vec<u32> = dims
            .split('x')
            .map(|d| {
                d.parse::<u32>()
                    .map_err(|e| format!("workload `{s}`: bad dimension `{d}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let want = |n: usize| {
            if nums.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "workload `{s}`: `{op}` takes {n} dimensions, got {}",
                    nums.len()
                ))
            }
        };
        let spec = match op {
            "gemm" => {
                want(3)?;
                WorkloadSpec::Gemm {
                    m: nums[0],
                    k: nums[1],
                    n: nums[2],
                }
            }
            "bgemm" => {
                want(4)?;
                WorkloadSpec::BatchGemm {
                    b: nums[0],
                    m: nums[1],
                    k: nums[2],
                    n: nums[3],
                }
            }
            "conv2d" => {
                want(8)?;
                WorkloadSpec::Conv2d {
                    batch: nums[0],
                    height: nums[1],
                    width: nums[2],
                    ci: nums[3],
                    co: nums[4],
                    kernel: nums[5],
                    stride: nums[6],
                    pad: nums[7],
                }
            }
            "softmax" => {
                want(2)?;
                WorkloadSpec::Softmax {
                    rows: nums[0],
                    cols: nums[1],
                }
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected gemm, bgemm, conv2d, or softmax)"
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Which search algorithm a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TunerKind {
    /// The paper's hierarchical RL tuner.
    Harl,
    /// The Ansor evolutionary baseline.
    Ansor,
    /// The Flextensor-like fixed-length RL baseline.
    Flextensor,
    /// UCT Monte-Carlo tree search over schedule modifications.
    Mcts,
}

impl TunerKind {
    /// The tuner's wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            TunerKind::Harl => "harl",
            TunerKind::Ansor => "ansor",
            TunerKind::Flextensor => "flextensor",
            TunerKind::Mcts => "mcts",
        }
    }

    /// Parses a CLI tuner name.
    pub fn parse(s: &str) -> Result<TunerKind, String> {
        match s {
            "harl" => Ok(TunerKind::Harl),
            "ansor" => Ok(TunerKind::Ansor),
            "flextensor" => Ok(TunerKind::Flextensor),
            "mcts" => Ok(TunerKind::Mcts),
            other => Err(format!(
                "unknown tuner `{other}` (expected harl, ansor, flextensor, or mcts)"
            )),
        }
    }
}

/// Search-scale preset. Maps onto the HARL Table-5 presets; the baseline
/// tuners use their defaults regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preset {
    /// Smallest tracks; unit-test scale.
    Tiny,
    /// CI/demo scale.
    Fast,
    /// The full Table-5 configuration.
    Paper,
}

impl Preset {
    /// The preset's wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Tiny => "tiny",
            Preset::Fast => "fast",
            Preset::Paper => "paper",
        }
    }

    /// Parses a CLI preset name.
    pub fn parse(s: &str) -> Result<Preset, String> {
        match s {
            "tiny" => Ok(Preset::Tiny),
            "fast" => Ok(Preset::Fast),
            "paper" => Ok(Preset::Paper),
            other => Err(format!(
                "unknown preset `{other}` (expected tiny, fast, or paper)"
            )),
        }
    }

    /// The HARL configuration this preset selects.
    pub fn harl_config(&self) -> harl_core::HarlConfig {
        match self {
            Preset::Tiny => harl_core::HarlConfig::tiny(),
            Preset::Fast => harl_core::HarlConfig::fast(),
            Preset::Paper => harl_core::HarlConfig::paper(),
        }
    }
}

/// A complete tuning-job request: everything the daemon needs to rebuild
/// and re-run the job deterministically, including after a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// What to tune.
    pub workload: WorkloadSpec,
    /// Which search algorithm to run.
    pub tuner: TunerKind,
    /// Search-scale preset.
    pub preset: Preset,
    /// Hardware model name (see `Hardware::from_name`).
    pub hardware: String,
    /// Total measurement-trial budget.
    pub trials: u64,
    /// Scheduling priority; higher runs first.
    pub priority: i32,
    /// Optional target latency (ms) to report `trials_to_target` against.
    pub target_ms: Option<f64>,
    /// Thread-pool widths for the job's parallel stages (scoring, PPO).
    /// Performance only — results are bit-identical at any width — so it
    /// is excluded from [`JobSpec::job_key`]. `None` runs every stage
    /// serially.
    #[serde(default)]
    pub parallelism: Option<ParallelismOpts>,
    /// Run a coordinate-descent fine-tuning phase after the search
    /// completes its budget. Unlike `parallelism`, this changes the search
    /// result, so it is part of [`JobSpec::job_key`]. Defaults to off for
    /// wire compatibility with older clients.
    #[serde(default)]
    pub finetune: bool,
}

impl JobSpec {
    /// Rejects specs the daemon could not run.
    pub fn validate(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("trials must be > 0".into());
        }
        self.workload.validate()?;
        if Hardware::from_name(&self.hardware).is_none() {
            return Err(format!(
                "unknown hardware `{}` (expected cpu, xeon-6226r, avx2-desktop, gpu, rtx-3090, or a100)",
                self.hardware
            ));
        }
        if let Some(ms) = self.target_ms {
            if !ms.is_finite() || ms <= 0.0 {
                return Err(format!("target_ms must be a finite latency > 0, got {ms}"));
            }
        }
        if let Some(par) = &self.parallelism {
            par.validate()?;
        }
        Ok(())
    }

    /// Stable identity of the *search* this spec describes, used to stamp
    /// and guard session checkpoints. Priority, reporting targets, and
    /// thread widths do not change the search (parallelism is
    /// bit-identical at any width), so they are excluded: re-submitting
    /// the same workload at a different priority or width still resumes
    /// its checkpoint.
    pub fn job_key(&self) -> String {
        let canon = format!(
            "{}|{}|{}|{}|{}|ft={}",
            self.workload.summary(),
            self.tuner.name(),
            self.preset.name(),
            self.hardware,
            self.trials,
            self.finetune
        );
        // FNV-1a, the store's idiom for stable content hashes
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canon.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{}#{h:016x}", self.workload.summary())
    }
}

/// Lifecycle state of a job inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and waiting for a worker (including requeued after a
    /// daemon restart or graceful shutdown).
    Queued,
    /// A worker is tuning it right now.
    Running,
    /// Finished its full trial budget; a result is available.
    Done,
    /// Stopped by a `cancel` request.
    Cancelled,
    /// Aborted with an error (see the status reply's message).
    Failed,
}

impl JobState {
    /// The state's wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// True for states a job can never leave.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Point-in-time view of one job, as reported by `status` and `list`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id (`j000001`, ...).
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Compact workload form (`gemm:1024x1024x1024`).
    pub workload: String,
    /// Tuner name.
    pub tuner: String,
    /// Scheduling priority.
    pub priority: i32,
    /// Total trial budget.
    pub trials_total: u64,
    /// Trials consumed so far (live while running).
    pub trials_used: u64,
    /// Tuning rounds completed so far.
    pub rounds_done: u64,
    /// Best latency found so far, ms (`null`/NaN before any measurement).
    pub best_latency_ms: f64,
    /// True when the job resumed from a checkpoint after a restart.
    pub resumed: bool,
    /// Records replayed from the shared pool before the first fresh
    /// trial (0 while queued; with federation on, this counts the whole
    /// fleet's matching history, not just this daemon's).
    #[serde(default)]
    pub warm_records: u64,
    /// Batched-scoring pipeline counters (`None` while the job is queued,
    /// or for tuners without a cost model, e.g. flextensor).
    #[serde(default)]
    pub score_stats: Option<ScoreStats>,
    /// Failure message, when [`JobView::state`] is [`JobState::Failed`].
    pub error: Option<String>,
}

/// Final metrics of a completed job — the `result` payload, mirroring the
/// quickstart example's machine-readable metrics line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Job id.
    pub id: String,
    /// Compact workload form.
    pub workload: String,
    /// Tuner name.
    pub tuner: String,
    /// Best execution time found, ms.
    pub best_ms: f64,
    /// Total measurement trials consumed.
    pub trials: u64,
    /// Trial index that first reached the best time (-1 if untracked).
    pub trials_to_best: i64,
    /// Trial index that first reached the requested `target_ms`
    /// (-1 = never reached; absent when no target was requested).
    pub trials_to_target: Option<i64>,
    /// Records replayed into the tuner from the shared pool/store before
    /// the first fresh trial.
    pub warm_records: u64,
    /// True when the job resumed from a checkpoint.
    pub resumed: bool,
    /// Simulated search time spent, seconds.
    pub sim_seconds: f64,
    /// Batched-scoring pipeline counters (`None` for tuners without a
    /// cost model, e.g. flextensor).
    #[serde(default)]
    pub score_stats: Option<ScoreStats>,
    /// Trials spent by the coordinate-descent fine-tuning phase (absent
    /// when the spec did not request fine-tuning).
    #[serde(default)]
    pub finetune_trials: Option<u64>,
}

impl JobOutcome {
    /// The quickstart-compatible machine-readable metrics line.
    pub fn metrics_line(&self) -> String {
        let mut line = format!(
            "metrics: best_ms={:.9} trials={} trials_to_best={}",
            self.best_ms, self.trials, self.trials_to_best
        );
        if let Some(tt) = self.trials_to_target {
            line.push_str(&format!(" trials_to_target={tt}"));
        }
        line.push_str(&format!(
            " warm_records={} resumed={}",
            self.warm_records, self.resumed
        ));
        if let Some(s) = &self.score_stats {
            line.push_str(&format!(
                " score_batches={} cache_hits={} cache_misses={}",
                s.batch_count, s.cache_hits, s.cache_misses
            ));
        }
        if let Some(ft) = self.finetune_trials {
            line.push_str(&format!(" finetune_trials={ft}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(trials: u64) -> JobSpec {
        JobSpec {
            workload: WorkloadSpec::Gemm {
                m: 128,
                k: 128,
                n: 128,
            },
            tuner: TunerKind::Harl,
            preset: Preset::Tiny,
            hardware: "cpu".into(),
            trials,
            priority: 0,
            target_ms: None,
            parallelism: None,
            finetune: false,
        }
    }

    #[test]
    fn workload_parse_round_trips_summary() {
        for s in [
            "gemm:1024x1024x1024",
            "bgemm:8x128x64x128",
            "conv2d:1x56x56x64x64x3x1x1",
            "conv2d:1x56x56x64x64x1x2x0",
            "softmax:1024x1024",
        ] {
            let w = WorkloadSpec::parse(s).unwrap();
            assert_eq!(w.summary(), s);
            // the spec is buildable and names a real subgraph
            assert!(!w.build().name.is_empty());
        }
    }

    #[test]
    fn workload_parse_rejects_malformed_strings() {
        for bad in [
            "gemm",                   // no dims
            "gemm:1024x1024",         // wrong arity
            "gemm:1024xax1024",       // non-numeric
            "gemm:0x8x8",             // zero dim
            "conv2d:1x8x8x4x4x3x0x1", // zero stride
            "lstm:8x8",               // unknown op
        ] {
            assert!(WorkloadSpec::parse(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn job_key_ignores_priority_and_target_but_not_search_params() {
        let a = spec(100);
        let mut b = a.clone();
        b.priority = 9;
        b.target_ms = Some(1.5);
        b.parallelism = Some(ParallelismOpts::uniform(4));
        assert_eq!(
            a.job_key(),
            b.job_key(),
            "priority/target/parallelism are not search"
        );

        let mut c = a.clone();
        c.trials = 200;
        assert_ne!(a.job_key(), c.job_key());
        let mut d = a.clone();
        d.tuner = TunerKind::Ansor;
        assert_ne!(a.job_key(), d.job_key());
        let mut e = a.clone();
        e.tuner = TunerKind::Mcts;
        assert_ne!(a.job_key(), e.job_key());
        // fine-tuning changes the search result, so it changes the key:
        // a finetuned resubmission must not resume a non-finetuned
        // checkpoint (or vice versa)
        let mut f = a.clone();
        f.finetune = true;
        assert_ne!(a.job_key(), f.job_key());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(spec(100).validate().is_ok());
        assert!(spec(0).validate().is_err());
        let mut s = spec(100);
        s.hardware = "tpu-v9".into();
        assert!(s.validate().is_err());
        let mut s = spec(100);
        s.target_ms = Some(-1.0);
        assert!(s.validate().is_err());
        let mut s = spec(100);
        s.parallelism = Some(ParallelismOpts {
            score_threads: 0,
            ppo_threads: 1,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn metrics_line_matches_quickstart_format() {
        let out = JobOutcome {
            id: "j000001".into(),
            workload: "gemm:128x128x128".into(),
            tuner: "harl".into(),
            best_ms: 1.25,
            trials: 64,
            trials_to_best: 40,
            trials_to_target: Some(12),
            warm_records: 7,
            resumed: false,
            sim_seconds: 33.0,
            score_stats: None,
            finetune_trials: None,
        };
        assert_eq!(
            out.metrics_line(),
            "metrics: best_ms=1.250000000 trials=64 trials_to_best=40 \
             trials_to_target=12 warm_records=7 resumed=false"
        );
    }

    #[test]
    fn metrics_line_appends_scoring_counters_when_present() {
        let out = JobOutcome {
            id: "j000002".into(),
            workload: "gemm:128x128x128".into(),
            tuner: "harl".into(),
            best_ms: 1.25,
            trials: 64,
            trials_to_best: 40,
            trials_to_target: None,
            warm_records: 0,
            resumed: false,
            sim_seconds: 33.0,
            score_stats: Some(ScoreStats {
                batch_count: 12,
                scored: 640,
                cache_hits: 100,
                cache_misses: 540,
                features_cached: 540,
                threads: 1,
            }),
            finetune_trials: Some(9),
        };
        assert_eq!(
            out.metrics_line(),
            "metrics: best_ms=1.250000000 trials=64 trials_to_best=40 \
             warm_records=0 resumed=false score_batches=12 cache_hits=100 \
             cache_misses=540 finetune_trials=9"
        );
    }
}
