//! Plain-text table rendering and JSON result persistence.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with column widths fitted to content.
    pub fn render(&self) -> String {
        let ncol = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let c = cells.get(i).map(String::as_str).unwrap_or("");
                s.push_str(&format!(" {c:<w$} |"));
            }
            out.push_str(&s);
            out.push('\n');
        };
        line(&mut out, &self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &sep);
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

/// Formats a ratio like `1.23x`.
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a normalized value with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean of positive values (ignores non-finite entries).
pub fn geomean(vals: &[f64]) -> f64 {
    let logs: Vec<f64> = vals
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `f` over `jobs`, one contiguous chunk per core, results in job order.
pub fn par_map<J: Sync, R: Send>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunk = jobs.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an experiment worker panicked"))
            .collect()
    })
}

/// Writes a serializable result to `<out_dir>/<name>.json`; the error
/// names that file.
pub fn save_json<T: serde::Serialize>(out_dir: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = out_dir.join(format!("{name}.json"));
    let write = || -> std::io::Result<()> {
        fs::create_dir_all(out_dir)?;
        fs::write(&path, serde_json::to_string_pretty(value)?)
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_fitted_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a-much-longer-name"));
        let widths: Vec<usize> = s.lines().skip(1).map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "uniform row widths: {s}"
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[1.0, f64::INFINITY, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn save_json_roundtrip() {
        let dir = std::env::temp_dir().join("harl_report_test");
        save_json(&dir, "t", &vec![1, 2, 3]).unwrap();
        let s = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(s.contains('2'));
    }

    #[test]
    fn save_json_into_a_regular_file_names_the_file() {
        let file = std::env::temp_dir().join(format!("harl_report_file_{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = save_json(&file, "fig1c", &1).unwrap_err();
        let _ = std::fs::remove_file(&file);
        let target = file.join("fig1c.json");
        assert!(
            err.starts_with(&format!("cannot write {}: ", target.display())),
            "{err}"
        );
    }
}
