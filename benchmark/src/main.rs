//! End-to-end, layered benchmark of harl-repro.
//!
//! One process runs one workload, timed (`--trace 0`, end-to-end metrics)
//! or traced (`--trace 1`, per-layer metrics), and prints one JSON result
//! as the last line of its standard output. Without `--workload` it runs
//! all of them, each in a child process. See `README.md` beside this crate.

mod alloc;
mod calib;
mod metrics;
mod replay;
mod report;
mod search;
mod served;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use harl_repro::gbt::ScoreStats;
use harl_repro::prelude::LintStats;

use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use report::{Report, Timing};
use search::{Leg, LegResult, Probe};
use served::{Ops, ServeTimers};
use spans::{MemTrace, SpanTable};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest repetitions of a timed run, so their digests can be compared.
const MIN_REPS: usize = 2;
/// Untraced repetitions of a traced search run: the tracing-overhead
/// baseline.
const UNTRACED_REPS: usize = 2;
/// Status polls made while no job runs (traced `served_jobs` only).
const IDLE_POLLS: usize = 200;

const USAGE: &str = "usage: harl-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR] [--dir BENCHMARK_DIR] [--build-s S]\n       \
harl-benchmark --compare DIR DIR [DIR...]";

pub struct Args {
    workload: Option<String>,
    /// Seeds the synthetic inputs of the unit-cost replay. The search
    /// configurations are the same on every seed (see `search::Searcher`).
    seed: u64,
    seconds: f64,
    /// `Some(false)` timed, `Some(true)` traced; without `--workload`,
    /// `None` runs both kinds.
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    /// The benchmark's own directory; scratch goes to `<dir>/out/tmp`.
    dir: PathBuf,
    build_s: Option<f64>,
    compare: Vec<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let decl = metrics::BenchmarkDecl::load();
    decl.check()?;
    let mut args = Args {
        workload: None,
        seed: 0x4a21,
        seconds: decl.run_seconds as f64,
        trace: None,
        smoke: false,
        out: None,
        dir: PathBuf::from("benchmark"),
        build_s: None,
        compare: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or_else(|| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--dir" => args.dir = PathBuf::from(value()?),
            "--build-s" => {
                let v = value()?;
                args.build_s = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--compare" => args.compare = it.by_ref().map(PathBuf::from).collect(),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// What one repetition of any workload produced, reduced to what the
/// end-to-end metrics need.
struct RepSummary {
    wall_s: f64,
    /// Request → result: the cold job on `served_jobs`; an in-process
    /// workload has no job boundary, so the whole repetition.
    turnaround_s: f64,
    /// What the repetition's wall seconds are divided by: the calibration
    /// kernel's damped slowdown while it ran (see `calib`); 1 in traced
    /// runs, which do not calibrate.
    slowdown: f64,
    trials: u64,
    /// Best simulated latency per leg, milliseconds.
    best_ms: Vec<f64>,
    trials_to_target: u64,
    sim_s: f64,
    /// One digest per leg.
    digests: Vec<String>,
}

/// The legs as they run: the committed budgets, or one round per task
/// under `--smoke` (two for served jobs, so one can be stopped half-way).
fn effective_legs(workload: &str, legs: Vec<Leg>, smoke: bool) -> Vec<Leg> {
    let rounds = if workload == "served_jobs" { 2 } else { 1 };
    legs.into_iter()
        .map(|leg| Leg {
            trials: if smoke {
                leg.warmup_trials() * rounds
            } else {
                leg.trials
            },
            ..leg
        })
        .collect()
}

/// Runs every leg once from fresh state.
fn search_rep(legs: &[Leg], probe: &mut Probe, ops: &mut Ops) -> (RepSummary, Vec<LegResult>) {
    let results: Vec<LegResult> = legs
        .iter()
        .map(|l| search::run_leg(l, l.trials, probe))
        .collect();
    for (leg, r) in legs.iter().zip(&results) {
        ops.attempted += leg.trials;
        ops.failed += leg.trials - r.trials.min(leg.trials);
        ops.check(
            &format!("{}: best schedules are legal", leg.name),
            r.bests_are_legal(),
        );
    }
    let wall_s = results.iter().map(|r| r.wall_s).sum();
    let summary = RepSummary {
        wall_s,
        turnaround_s: wall_s,
        slowdown: probe
            .calibrator
            .as_mut()
            .map_or(1.0, |cal| cal.take_slowdown()),
        trials: results.iter().map(|r| r.trials).sum(),
        best_ms: results.iter().map(|r| r.best_s * 1e3).collect(),
        trials_to_target: legs
            .iter()
            .zip(&results)
            .map(|(l, r)| r.trials_to_target(l))
            .sum(),
        sim_s: results.iter().map(|r| r.sim_s).sum(),
        digests: results.iter().map(LegResult::digest).collect(),
    };
    (summary, results)
}

fn served_rep(
    args: &Args,
    legs: &[Leg],
    idle_polls: usize,
    ops: &mut Ops,
    mut calibrator: Option<&mut calib::Calibrator>,
) -> Result<(RepSummary, ServeTimers), String> {
    let rep = served::run_rep(&args.dir, legs, idle_polls, calibrator.as_deref_mut())?;
    ops.add(rep.ops);
    for (leg, o) in legs.iter().zip(&rep.outcomes) {
        ops.attempted += leg.trials;
        ops.failed += leg.trials - o.trials.min(leg.trials);
    }
    let to_target = |(leg, o): (&Leg, &harl_repro::serve::JobOutcome)| match o.trials_to_target {
        Some(t) if t >= 0 => t as u64,
        _ => leg.trials + 1,
    };
    let summary = RepSummary {
        wall_s: rep.wall_s,
        turnaround_s: rep.turnaround_s,
        slowdown: calibrator.map_or(1.0, |cal| cal.take_slowdown()),
        trials: rep.outcomes.iter().map(|o| o.trials).sum(),
        best_ms: rep.outcomes.iter().map(|o| o.best_ms).collect(),
        trials_to_target: legs.iter().zip(&rep.outcomes).map(to_target).sum(),
        sim_s: rep.outcomes.iter().map(|o| o.sim_seconds).sum(),
        digests: rep.outcomes.iter().map(served::outcome_digest).collect(),
    };
    Ok((summary, rep.timers))
}

/// In-process references of the cold and the resumed job: the served
/// outcomes must equal them bit for bit. Returns the cold reference.
fn check_served_against_references(legs: &[Leg], digests: &[String], ops: &mut Ops) -> LegResult {
    let mut cold = None;
    for i in [0, 2] {
        let leg = &legs[i];
        let reference = search::run_leg(leg, leg.trials, &mut Probe::default());
        ops.check(
            &format!("{}: served outcome equals the in-process run", leg.name),
            served::reference_digest(leg, &reference) == digests[i],
        );
        ops.check(
            &format!("{}: best schedule is legal", leg.name),
            reference.bests_are_legal(),
        );
        cold.get_or_insert(reference);
    }
    cold.expect("the cold leg was run")
}

/// Resets the kernel's resident-set high-water mark of this process to
/// its current size, so each repetition gets a peak of its own. Where the
/// kernel refuses, every reading is the process-wide peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Compares every repetition's digests with the first one's, and the first
/// with `expected.json`; returns whether the committed digests still hold.
fn check_digests(workload: &str, reps: &[RepSummary], smoke: bool, ops: &mut Ops) -> bool {
    for (i, rep) in reps.iter().enumerate().skip(1) {
        ops.check(
            &format!("repetition {i} repeats repetition 0 exactly"),
            rep.digests == reps[0].digests,
        );
    }
    smoke || workloads::expected_digests(workload).is_some_and(|d| d == reps[0].digests)
}

fn timed(args: &Args, workload: &str, legs: &[Leg], started: Instant) -> Result<Report, String> {
    let is_served = workload == "served_jobs";
    let mut ops = Ops::default();

    // every timing is in calibrated seconds: the kernel is sampled around
    // and, where the benchmark drives the rounds itself, inside the work
    let mut cal = calib::Calibrator::new();

    // set-up: fixtures, sketch generation, daemon start, one warm-up round
    // per task; the first one also pays the process start. A smoke run's
    // only repetition is that same single round, so it sets up nothing.
    let mut setups = Vec::new();
    for i in 0..if args.smoke { 0 } else { SETUPS } {
        cal.burst();
        let t = Instant::now();
        if is_served {
            served::warmup(&args.dir, &legs[0])?;
        } else {
            for leg in legs {
                search::run_leg(leg, leg.warmup_trials(), &mut Probe::default());
            }
        }
        let raw = if i == 0 {
            started.elapsed()
        } else {
            t.elapsed()
        }
        .as_secs_f64();
        cal.burst();
        setups.push(raw / cal.take_slowdown());
    }
    if setups.is_empty() {
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut reps = Vec::new();
    let mut peaks_mb = Vec::new();
    let measuring = Instant::now();
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    while reps.len() < min_reps || (!args.smoke && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        reset_peak_rss();
        reps.push(if is_served {
            served_rep(args, legs, 0, &mut ops, Some(&mut cal))?.0
        } else {
            let mut probe = Probe {
                calibrator: Some(&mut cal),
                ..Probe::default()
            };
            search_rep(legs, &mut probe, &mut ops).0
        });
        peaks_mb.push(peak_rss_mb());
    }
    if is_served {
        check_served_against_references(legs, &reps[0].digests, &mut ops);
    }
    let digests_hold = check_digests(workload, &reps, args.smoke, &mut ops);

    let raw_walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let slowdowns: Vec<f64> = reps.iter().map(|r| r.slowdown).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s / r.slowdown).collect();
    let turnarounds: Vec<f64> = reps.iter().map(|r| r.turnaround_s / r.slowdown).collect();
    let first = &reps[0];
    let values = Metrics::from_table(&END_TO_END, |name| match name {
        "setup_s" => stats::median(&setups),
        "trials_per_s" => first.trials as f64 / stats::median(&walls),
        "job_turnaround_s" => stats::median(&turnarounds),
        "best_latency_ms" => stats::geomean(&first.best_ms),
        "trials_to_target" => first.trials_to_target as f64,
        "sim_search_s" => first.sim_s,
        "peak_rss_mb" => stats::median(&peaks_mb),
        other => unreachable!("{other} is not an end-to-end metric"),
    });
    Ok(Report {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        smoke: args.smoke,
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        digest_changed: !digests_hold,
        digests: first.digests.clone(),
        timings: vec![
            Timing::of("setup_s", "s", &setups),
            Timing::of("rep_wall_s", "s", &walls),
            Timing::of("job_turnaround_s", "s", &turnarounds),
            Timing::of("uncalibrated_rep_wall_s", "s", &raw_walls),
            Timing::of("calibration_slowdown", "ratio", &slowdowns),
            Timing::of("peak_rss_mb", "MB", &peaks_mb),
        ],
        metrics: values,
    })
}

/// What the traced run of any workload hands to the per-layer table.
#[derive(Default)]
struct Layers {
    /// Untraced repetition walls, the traced one's wall, seconds.
    untraced_walls: Vec<f64>,
    traced_wall_s: f64,
    /// Spans of the traced repetition; shares are of `traced_wall_s`.
    table: SpanTable,
    trace_dropped: u64,
    /// Of the traced repetition.
    trials: u64,
    score: ScoreStats,
    lint: LintStats,
    /// Of the untraced repetitions.
    round_ms: Vec<f64>,
    rounds_per_rep: f64,
    allocs_per_trial: f64,
    alloc_bytes_per_trial: f64,
    costs: replay::ScheduleCosts,
    // served_jobs only
    timers: Vec<ServeTimers>,
    mirror: served::MirrorResult,
    store: replay::StoreCosts,
    job_overhead_share: f64,
}

fn traced_search(args: &Args, legs: &[Leg], ops: &mut Ops, reps: &mut Vec<RepSummary>) -> Layers {
    let mut l = Layers::default();
    let untraced = if args.smoke { 1 } else { UNTRACED_REPS };
    for _ in 0..untraced {
        let (a0, b0) = alloc::counters();
        let (summary, results) = search_rep(legs, &mut Probe::default(), ops);
        let (a1, b1) = alloc::counters();
        l.allocs_per_trial = (a1 - a0) as f64 / summary.trials as f64;
        l.alloc_bytes_per_trial = (b1 - b0) as f64 / summary.trials as f64;
        l.untraced_walls.push(summary.wall_s);
        l.rounds_per_rep = results.iter().map(|r| r.round_ms.len()).sum::<usize>() as f64;
        l.round_ms
            .extend(results.iter().flat_map(|r| r.round_ms.iter().copied()));
        reps.push(summary);
    }
    let mem = MemTrace::default();
    let mut probe = Probe {
        tracer: mem.tracer(),
        capture: true,
        calibrator: None,
    };
    let (summary, results) = search_rep(legs, &mut probe, ops);
    l.table = mem.table(&probe.tracer);
    l.trace_dropped = probe.tracer.dropped();
    l.traced_wall_s = summary.wall_s;
    l.trials = summary.trials;
    reps.push(summary);
    for r in &results {
        l.score.merge(&r.score);
        l.lint.merge(&r.lint);
    }
    // unit costs per leg, weighted by the schedules each leg measured
    let total: usize = results.iter().map(|r| r.captured.len()).sum();
    for (leg, r) in legs.iter().zip(&results) {
        let c = replay::schedule_costs(&r.graphs, &r.captured, &leg.gbt_params(), args.seed);
        l.costs
            .add_weighted(&c, r.captured.len() as f64 / total.max(1) as f64);
    }
    l
}

fn traced_served(
    args: &Args,
    legs: &[Leg],
    ops: &mut Ops,
    reps: &mut Vec<RepSummary>,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    // one repetition through the daemon, for the client-side timers
    let idle = if args.smoke { 0 } else { IDLE_POLLS };
    let (summary, timers) = served_rep(args, legs, idle, ops, None)?;
    l.timers.push(timers);
    reps.push(summary);
    let cold = check_served_against_references(legs, &reps[0].digests, ops);
    let turnaround = reps[0].turnaround_s;
    l.job_overhead_share = (turnaround - cold.wall_s) / turnaround;

    // the cold job once more in process, the way a worker runs it: first
    // plain (overhead baseline, allocations), then traced and taken apart
    let (a0, b0) = alloc::counters();
    let (plain, _) = served::mirror(&args.dir, &legs[0], &Probe::default(), false)?;
    let (a1, b1) = alloc::counters();
    l.allocs_per_trial = (a1 - a0) as f64 / plain.trials as f64;
    l.alloc_bytes_per_trial = (b1 - b0) as f64 / plain.trials as f64;
    l.untraced_walls.push(plain.wall_s);
    l.rounds_per_rep = plain.round_ms.len() as f64;
    l.round_ms = plain.round_ms.clone();
    ops.add(plain.ops);

    let mem = MemTrace::default();
    let probe = Probe {
        tracer: mem.tracer(),
        capture: false,
        calibrator: None,
    };
    let (mirror, records) = served::mirror(&args.dir, &legs[0], &probe, true)?;
    l.table = mem.table(&probe.tracer);
    l.trace_dropped = probe.tracer.dropped();
    l.traced_wall_s = mirror.wall_s;
    l.trials = mirror.trials;
    ops.add(mirror.ops);
    l.score = cold.score;
    l.lint = cold.lint.clone();

    let graphs = legs[0].task.graphs();
    let captured: Vec<search::Captured> = records.iter().map(|r| (0, r.schedule.clone())).collect();
    l.costs = replay::schedule_costs(&graphs, &captured, &legs[0].gbt_params(), args.seed);
    l.store = replay::store_costs(&args.dir, &records, ops)?;
    l.mirror = mirror;
    Ok(l)
}

fn per_layer(l: &Layers, k: &replay::KernelCosts) -> Metrics {
    let t = &l.table;
    let wall_us = l.traced_wall_s * 1e6;
    let share = |names: &[&str]| t.self_us(names) as f64 / wall_us;
    let trials = l.trials.max(1) as f64;
    let untraced = stats::median(&l.untraced_walls);
    // `score` is an opaque leaf in HARL; the baselines score inside
    // `evolve` and `playouts`
    let scoring_us = match t.phase("score").total_us {
        0 => t.self_us(&["evolve", "playouts"]),
        us => us,
    }
    .max(1) as f64;
    let est = |calls: u64, unit_ns: f64| calls as f64 * unit_ns / 1e3 / scoring_us;
    let est_extract = est(l.score.cache_misses, l.costs.extract_ns_per_row);
    let est_predict = est(l.score.cache_misses, l.costs.predict_ns_per_row);
    let timer = |f: fn(&ServeTimers) -> &Vec<f64>| -> Vec<f64> {
        l.timers.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let one = |f: fn(&ServeTimers) -> f64| -> f64 {
        stats::median(&l.timers.iter().map(f).collect::<Vec<_>>())
    };
    let status = timer(|s| &s.status_rtt_ms);
    let m = &l.mirror;
    Metrics::from_table(&PER_LAYER, |name| match name {
        "harl.round_ms_p50" => stats::percentile(&l.round_ms, 0.5),
        "harl.round_ms_p90" => stats::percentile(&l.round_ms, 0.9),
        "harl.rounds" => l.rounds_per_rep,
        "harl.episode_self_share" => share(&["episode"]),
        "harl.topk_select_share" => share(&["topk_select"]),
        "harl.checkpoint_build_ms" => stats::median(&m.build_ms),
        "harl.checkpoint_encode_ms" => stats::median(&m.encode_ms),
        "harl.checkpoint_bytes" => m.checkpoint_bytes as f64,
        // 0 ÷ tiny = 0 where no mirror ran
        "harl.checkpoint_share" => {
            m.checkpoint_ms.iter().sum::<f64>() / 1e3 / m.wall_s.max(f64::MIN_POSITIVE)
        }
        "harl.restore_ms" => m.restore_ms,
        "harl.restore_bytes" => m.restore_bytes as f64,
        "harl.allocs_per_trial" => l.allocs_per_trial,
        "harl.alloc_bytes_per_trial" => l.alloc_bytes_per_trial,
        "nnet.ppo_act_share" => share(&["ppo_act", "ppo_act_batch"]),
        "nnet.ppo_train_share" => share(&["ppo_train", "ppo_backward", "ppo_update"]),
        "simd.gemm_share" => share(&["gemm"]),
        "simd.gemm_calls" => t.count(&["gemm"]) as f64,
        "nnet.act_batch_us" => k.act_batch_us,
        "nnet.train_minibatch_us" => k.train_minibatch_us,
        "simd.gemm_gflops" => k.gemm_gflops,
        "par.map_overhead_us" => k.map_overhead_us,
        "gbt.score_share" => share(&["score"]),
        "gbt.retrain_share" => share(&["gbt_retrain"]),
        "gbt.retrain_count" => t.count(&["gbt_retrain"]) as f64,
        "gbt.candidates_per_trial" => l.score.scored as f64 / trials,
        "gbt.cache_hit_rate" => l.score.hit_rate(),
        "verify.reject_rate" => l.lint.rejected as f64 / l.lint.checked.max(1) as f64,
        "verify.lint_ns_per_schedule" => l.costs.lint_ns_per_schedule,
        "tensor-ir.extract_ns_per_row" => l.costs.extract_ns_per_row,
        "gbt.predict_ns_per_row" => l.costs.predict_ns_per_row,
        "gbt.pipeline_miss_ns" => l.costs.pipeline_miss_ns,
        "gbt.pipeline_full_miss_ns" => l.costs.pipeline_full_miss_ns,
        "gbt.pipeline_hit_ns" => l.costs.pipeline_hit_ns,
        "gbt.retrain_ms_at_1k" => l.costs.retrain_ms_at_1k,
        "tensor-ir.sketch_gen_us" => l.costs.sketch_gen_us,
        "tensor-ir.mutate_ns" => l.costs.mutate_ns,
        "gbt.score_est_lint_share" => est(l.lint.checked, l.costs.lint_ns_per_schedule),
        "gbt.score_est_extract_share" => est_extract,
        "gbt.score_est_predict_share" => est_predict,
        "gbt.score_est_coverage" => est_extract + est_predict,
        "tensor-sim.measure_share" => share(&["measure"]),
        "tensor-sim.measure_ns_per_trial" => l.costs.measure_ns_per_trial,
        "bandit.pick_share" => share(&["sketch_pick", "net_round"]),
        "bandit.select_update_ns" => k.bandit_select_update_ns,
        "ansor.evolve_share" => share(&["evolve"]),
        "mcts.playouts_share" => share(&["playouts"]),
        "store.append_us_per_record" => l.store.append_us_per_record,
        "store.open_ms_per_1k_records" => l.store.open_ms_per_1k_records,
        "store.checkpoint_write_ms" => stats::median(&m.write_ms),
        "store.bytes_per_trial" => l.store.bytes_per_trial,
        "serve.submit_ack_ms" => stats::median(&timer(|s| &s.submit_ack_ms)),
        "serve.queue_wait_ms" => stats::median(&timer(|s| &s.queue_wait_ms)),
        "serve.result_fetch_ms" => stats::median(&timer(|s| &s.result_fetch_ms)),
        "serve.recovery_start_ms" => one(|s| s.recovery_start_ms),
        "serve.resume_ms" => one(|s| s.resume_ms),
        "serve.warm_records" => one(|s| s.warm_records as f64),
        "serve.job_overhead_share" => l.job_overhead_share,
        "net.status_rtt_ms_p50" => stats::percentile(&status, 0.5),
        "net.status_rtt_ms_p99" => stats::percentile(&status, 0.99),
        "net.status_samples" => status.len() as f64,
        "net.idle_status_rtt_ms_p50" => stats::median(&timer(|s| &s.idle_status_rtt_ms)),
        "obs.trace_overhead_share" => (l.traced_wall_s - untraced) / untraced,
        "obs.trace_records" => t.records as f64,
        "obs.trace_dropped" => l.trace_dropped as f64,
        "calib.scalar_gemm_ms" => k.scalar_gemm_ms,
        other => unreachable!("{other} is not a per-layer metric"),
    })
}

fn traced(args: &Args, workload: &str, legs: &[Leg]) -> Result<Report, String> {
    let mut ops = Ops::default();
    let mut reps = Vec::new();
    let layers = if workload == "served_jobs" {
        traced_served(args, legs, &mut ops, &mut reps)?
    } else {
        traced_search(args, legs, &mut ops, &mut reps)
    };
    let digests_hold = check_digests(workload, &reps, args.smoke, &mut ops);
    let kernels = replay::kernel_costs(args.seed);
    Ok(Report {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: true,
        smoke: args.smoke,
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        digest_changed: !digests_hold,
        digests: reps[0].digests.clone(),
        timings: vec![
            Timing::of("untraced_wall_s", "s", &layers.untraced_walls),
            Timing::of("round_ms", "ms", &layers.round_ms),
        ],
        metrics: per_layer(&layers, &kernels),
    })
}

fn run_one(args: &Args, workload: &str, started: Instant) -> Result<bool, String> {
    let legs = workloads::legs(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`; expected one of {WORKLOADS:?}"))?;
    let legs = effective_legs(workload, legs, args.smoke);
    let report = if args.trace == Some(true) {
        traced(args, workload, &legs)?
    } else {
        timed(args, workload, &legs, started)?
    };
    report.print(args.build_s);
    if let Some(out) = &args.out {
        report.write(out)?;
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn main() {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| match &args.workload {
        _ if !args.compare.is_empty() => report::compare(&args.compare),
        Some(workload) => run_one(&args, workload, started),
        None => report::run_all(&args),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("harl-benchmark: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
