//! What a run prints and writes, the all-workloads driver, and the
//! comparison of two sets of runs that `selfcheck.sh` ends with.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::de::Value;
use serde::Serialize;

use crate::metrics::{BenchmarkDecl, Metrics, WORKLOADS};
use crate::{stats, workloads, Args};

/// Median, quartiles and sample count of one timing.
#[derive(Debug, Serialize)]
pub struct Timing {
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(name: &str, unit: &str, values: &[f64]) -> Timing {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        Timing {
            name: name.to_string(),
            unit: unit.to_string(),
            median,
            q1,
            q3,
            samples: values.len(),
        }
    }
}

/// Everything one run reports; written whole under `--out`, and reduced to
/// the driver's four keys on the last line of standard output.
#[derive(Debug, Serialize)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A smoke run is one round per task; its numbers are never compared.
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The search no longer reproduces `expected.json`. Reported, not
    /// failed: the quality metrics judge a changed search.
    pub digest_changed: bool,
    pub digests: Vec<String>,
    pub timings: Vec<Timing>,
    pub metrics: Metrics,
}

impl Report {
    fn kind(&self) -> &'static str {
        if self.trace {
            "traced"
        } else {
            "timed"
        }
    }

    /// `workload metric value unit` rows, then the timings and the
    /// operation counts as `#` comments.
    pub fn print(&self, build_s: Option<f64>) {
        let w = &self.workload;
        for (name, value, unit) in &self.metrics.0 {
            println!("{w} {name} {value} {unit}");
        }
        for t in &self.timings {
            println!(
                "# {w} {} median={} q1={} q3={} n={} {}",
                t.name, t.median, t.q1, t.q3, t.samples, t.unit
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# {w} {} ops_attempted={} ops_failed={} ops_failed_share={share} digest_changed={} smoke={}",
            self.kind(),
            self.attempted,
            self.failed,
            self.digest_changed,
            self.smoke
        );
        if let Some(s) = build_s {
            println!("# {w} build_s={s}");
        }
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(format!("{}.{}.json", self.workload, self.kind()));
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, json + "\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            serde_json::to_string(&self.metrics).expect("encoding metrics cannot fail")
        )
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs every workload timed, then every workload traced (one kind only
/// when `--trace` is given), each in its own child process; results land in
/// `--out` (default `<dir>/out`).
pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args.out.clone().unwrap_or_else(|| args.dir.join("out"));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# env nproc={cores} threads={}", crate::search::THREADS);
    println!("# env harl_simd={}", harl_simd::backend_name());
    println!("# env rustc={}", rustc_version());
    println!(
        "# env seed={:#x} seconds={} smoke={} budget_scale={}",
        args.seed,
        args.seconds,
        args.smoke,
        workloads::scale()
    );
    for w in WORKLOADS {
        let legs = workloads::legs(w).expect("every workload has budgets");
        let budgets: Vec<String> = legs
            .iter()
            .map(|l| format!("{}={}", l.name, l.trials))
            .collect();
        println!("# env budget {w} {}", budgets.join(" "));
    }
    let mut all_correct = true;
    let kinds: &[&str] = match args.trace {
        None => &["0", "1"],
        Some(false) => &["0"],
        Some(true) => &["1"],
    };
    for trace in kinds {
        for w in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--dir")
                .arg(&args.dir)
                .arg("--out")
                .arg(&out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(s) = args.build_s {
                cmd.args(["--build-s", &s.to_string()]);
            }
            let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
            if !status.success() {
                eprintln!("harl-benchmark: {w} --trace {trace} failed ({status})");
                all_correct = false;
            }
        }
    }
    Ok(all_correct)
}

fn read_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let value = Value::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let Some(Value::Obj(entries)) = value.get("metrics") else {
        return Err(format!("{} has no metrics object", path.display()));
    };
    entries
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Value::Num(tok)) => tok
                .parse::<f64>()
                .map(|v| (name.clone(), v))
                .map_err(|e| format!("{name}: {e}")),
            _ => Err(format!("{name} in {} has no numeric value", path.display())),
        })
        .collect()
}

/// Compares the timed results of two or more sets of runs of one build.
/// Passes when every deterministic metric is identical across the sets and
/// the spread of every other one — quartile distance over median, by the
/// driver's rule — stays within the metric's bound.
pub fn compare(dirs: &[PathBuf]) -> Result<bool, String> {
    if dirs.len() < 2 {
        return Err("--compare needs at least two result directories".to_string());
    }
    let decl = BenchmarkDecl::load();
    let mut ok = true;
    println!("workload metric median spread bound verdict");
    for w in WORKLOADS {
        let file = format!("{w}.timed.json");
        let sets = dirs
            .iter()
            .map(|d| read_metrics(&d.join(&file)))
            .collect::<Result<Vec<_>, _>>()?;
        for m in &decl.end_to_end {
            let values = sets
                .iter()
                .map(|set| {
                    set.iter()
                        .find(|(n, _)| *n == m.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("{file}: metric {} missing", m.name))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            let spread = stats::spread(&values).unwrap_or(f64::INFINITY);
            let exact = matches!(m.unit.as_str(), "sim_ms" | "sim_s" | "count");
            let pass = if exact {
                spread == 0.0
            } else {
                spread <= m.bound
            };
            ok &= pass;
            let verdict = match (pass, spread <= m.bound / 3.0) {
                (false, _) => "FAIL",
                (true, true) => "ok",
                (true, false) => "ok (above a third of the bound)",
            };
            let median = stats::median(&values);
            println!("{w} {} {median} {spread:.4} {} {verdict}", m.name, m.bound);
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_median_quartiles_and_count() {
        let t = Timing::of("x", "s", &[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((t.median, t.q1, t.q3, t.samples), (3.0, 1.5, 4.5, 5));
        let one = Timing::of("x", "s", &[2.0]);
        assert_eq!(
            (one.median, one.q1, one.q3, one.samples),
            (2.0, 2.0, 2.0, 1)
        );
    }
}
