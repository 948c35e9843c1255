//! Shared experiment reporting: aligned stdout tables plus CSV artifacts
//! under `results/`, so a reported number can be traced to the run that
//! measured it.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A printable/exportable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (printed and used for the CSV filename).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        println!("\n== {} ==", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes the table as CSV under `results/<slug>.csv`, returning the
    /// path. Errors are reported but not fatal (experiments still print).
    pub fn write_csv(&self, slug: &str) -> Option<PathBuf> {
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_err() {
            eprintln!("warning: cannot create {}", dir.display());
            return None;
        }
        let path = dir.join(format!("{slug}.csv"));
        let mut out = match fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                return None;
            }
        };
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        println!("[csv] {}", path.display());
        Some(path)
    }

    /// Serializes the table to the canonical bench-report JSON shape:
    /// `{"title", "headers", "rows", "metrics"}`. `metrics` carries named
    /// scalar headline numbers (e.g. tokens/s) so trend tooling can read
    /// one number without parsing the table.
    pub fn to_json(&self, metrics: &[(&str, f64)]) -> String {
        let esc = |s: &str| {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        };
        let str_list = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{}\"", esc(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let rows = self
            .rows
            .iter()
            .map(|r| format!("    [{}]", str_list(r)))
            .collect::<Vec<_>>()
            .join(",\n");
        let metrics_body = metrics
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", esc(k), fmt_json_number(*v)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"title\": \"{}\",\n  \"headers\": [{}],\n  \"rows\": [\n{}\n  ],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            esc(&self.title),
            str_list(&self.headers),
            rows,
            metrics_body
        )
    }

    /// Writes the table as `BENCH_<slug>.json` under the results directory
    /// (the shape read by the perf-trajectory tooling), returning the
    /// path. Errors are reported but not fatal.
    pub fn write_json(&self, slug: &str, metrics: &[(&str, f64)]) -> Option<PathBuf> {
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_err() {
            eprintln!("warning: cannot create {}", dir.display());
            return None;
        }
        let path = dir.join(format!("BENCH_{slug}.json"));
        match fs::write(&path, self.to_json(metrics)) {
            Ok(()) => {
                println!("[json] {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// JSON-safe float formatting: finite values print plainly, non-finite
/// become null.
fn fmt_json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The results directory: `$MICROSCOPIQ_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("MICROSCOPIQ_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Median of a non-empty sample set (upper median for even counts),
/// shared by the timing bins so the statistic can't drift between them.
///
/// # Panics
///
/// Panics if `samples` is empty or contains a NaN.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of empty samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[s.len() / 2]
}

/// Formats a float to 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float to 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage to 2 decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.headers.len(), 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut t = Table::new("runtime demo", &["path", "ms"]);
        t.row(vec!["dense \"ref\"".into(), "12.5".into()]);
        let json = t.to_json(&[("tokens_per_s", 123.5), ("bad", f64::NAN)]);
        assert!(json.contains("\"title\": \"runtime demo\""));
        assert!(json.contains("\"headers\": [\"path\", \"ms\"]"));
        assert!(json.contains("\"dense \\\"ref\\\"\""));
        assert!(json.contains("\"tokens_per_s\": 123.5"));
        assert!(json.contains("\"bad\": null"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // round-half-even is fine either way
        assert_eq!(pct(0.0863), "8.63%");
    }
}
