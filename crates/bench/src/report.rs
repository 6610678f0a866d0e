//! Result emission: human-readable tables + JSON under `results/`.

use std::fs;
use std::path::PathBuf;

use csaw_runtime::json::str_lit;

/// A generic experiment result: named series of (x, y) points plus
/// free-form annotations (crash times, checkpoint times, totals…).
#[derive(Debug, Default)]
pub struct Report {
    /// Experiment id (e.g. `fig23a`).
    pub id: String,
    /// What the paper's version shows.
    pub title: String,
    /// Named series.
    pub series: Vec<Series>,
    /// Scalar annotations.
    pub notes: Vec<(String, f64)>,
    /// Free-form remarks.
    pub remarks: Vec<String>,
}

/// One named series.
#[derive(Debug)]
pub struct Series {
    /// Label (e.g. `Shard 1`).
    pub name: String,
    /// X-axis label.
    pub x: String,
    /// Y-axis label.
    pub y: String,
    /// Points.
    pub points: Vec<(f64, f64)>,
}

impl Report {
    /// New report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Add a series.
    pub fn series(
        &mut self,
        name: &str,
        x: &str,
        y: &str,
        points: Vec<(f64, f64)>,
    ) -> &mut Self {
        self.series.push(Series {
            name: name.to_string(),
            x: x.to_string(),
            y: y.to_string(),
            points,
        });
        self
    }

    /// Add a scalar note.
    pub fn note(&mut self, key: &str, value: f64) -> &mut Self {
        self.notes.push((key.to_string(), value));
        self
    }

    /// Add a remark.
    pub fn remark(&mut self, text: impl Into<String>) -> &mut Self {
        self.remarks.push(text.into());
        self
    }

    /// Print a compact human-readable rendering.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        for s in &self.series {
            println!("-- {} ({} vs {}) --", s.name, s.y, s.x);
            let n = s.points.len();
            // Print up to 24 evenly-spaced points per series.
            let step = (n / 24).max(1);
            for (i, (x, y)) in s.points.iter().enumerate() {
                if i % step == 0 || i == n - 1 {
                    println!("  {x:>12.3}  {y:>14.3}");
                }
            }
        }
        for (k, v) in &self.notes {
            println!("note: {k} = {v:.3}");
        }
        for r in &self.remarks {
            println!("remark: {r}");
        }
    }

    /// Render the report as pretty-printed JSON. Serialization is
    /// hand-rolled (the offline build has no serde); the schema matches
    /// what `#[derive(Serialize)]` produced: `notes` as `[key, value]`
    /// pairs and `points` as `[x, y]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", str_lit(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", str_lit(&self.title)));
        out.push_str("  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": {},\n", str_lit(&s.name)));
            out.push_str(&format!("      \"x\": {},\n", str_lit(&s.x)));
            out.push_str(&format!("      \"y\": {},\n", str_lit(&s.y)));
            out.push_str("      \"points\": [");
            for (j, (x, y)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{}, {}]", json_num(*x), json_num(*y)));
            }
            out.push_str("]\n    }");
        }
        if !self.series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"notes\": [");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    [{}, {}]", str_lit(k), json_num(*v)));
        }
        if !self.notes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"remarks\": [");
        for (i, r) in self.remarks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}", str_lit(r)));
        }
        if !self.remarks.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Write JSON under `results/<id>.json` (repo root if run from
    /// there; otherwise relative to the current directory).
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// What one command hands back to `csaw-bench`'s exit path: the
/// reports to print and write as `results/<id>.json`, the lines that
/// fail the run, and files (offending traces, schedule artifacts) to
/// dump under `results/`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reports, in the order they are printed and written.
    pub reports: Vec<Report>,
    /// One line per broken gate or invariant; any line fails the run.
    pub failures: Vec<String>,
    /// `(path under results/, contents)`.
    pub dumps: Vec<(String, String)>,
}

impl Outcome {
    /// Record `line` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, line: impl Into<String>) {
        if !ok {
            self.failures.push(line.into());
        }
    }

    /// Record what broke in the run called `run`, one failure per line
    /// prefixed with its name, and when anything did, dump its `trace`
    /// to `results/<dump>`.
    pub fn fail_run(&mut self, run: &str, broke: Vec<String>, dump: String, trace: String) {
        if !broke.is_empty() {
            self.failures.extend(broke.into_iter().map(|line| format!("{run}: {line}")));
            self.dumps.push((dump, trace));
        }
    }
}

impl From<Report> for Outcome {
    fn from(report: Report) -> Outcome {
        Outcome { reports: vec![report], ..Default::default() }
    }
}

/// Re-check `fresh` against the baseline report at `path`: each
/// `(note, higher_is_better)` metric fails when it is more than 25%
/// worse than the baseline's (improvements always pass) or missing
/// from the baseline. Prints one PASS/FAIL line per metric and returns
/// the failures.
pub fn check_baseline(fresh: &Report, path: &str, metrics: &[(&str, bool)]) -> Vec<String> {
    let base = read_notes(path);
    let find =
        |notes: &[(String, f64)], k: &str| notes.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    println!("baseline regression check ({path}, 25% tolerance):");
    let mut failures = Vec::new();
    for &(name, higher_better) in metrics {
        let cur = find(&fresh.notes, name).unwrap_or(f64::NAN);
        let (ok, line) = match find(&base, name) {
            None => (false, format!("{name}: missing from baseline")),
            Some(b) => (
                if higher_better { cur >= b * 0.75 } else { cur <= b * 1.25 },
                format!("{name}: {cur:.1} vs baseline {b:.1}"),
            ),
        };
        println!("  [{}] {line}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures.push(line);
        }
    }
    failures
}

/// Pull the `["name", value]` note pairs back out of a previously
/// written `Report` JSON file — [`check_baseline`] reads committed
/// baseline reports with this.
pub fn read_notes(path: &str) -> Vec<(String, f64)> {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let mut notes = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        // Matches the serializer's note shape: ["key", 1.23]
        if let Some(rest) = line.strip_prefix("[\"") {
            if let Some((key, val)) = rest.split_once("\", ") {
                if let Ok(v) = val.trim_end_matches(']').trim().parse::<f64>() {
                    notes.push((key.to_string(), v));
                }
            }
        }
    }
    notes
}

/// JSON number (JSON has no NaN/Infinity; emit null like serde_json).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("figX", "test");
        r.series("s1", "t", "qps", vec![(0.0, 1.0), (1.0, 2.0)])
            .note("total", 3.0)
            .remark("hello");
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.notes.len(), 1);
        let json = r.to_json();
        assert!(json.contains("figX"));
        assert!(json.contains("[0, 1]"));
        assert!(json.contains("[\"total\", 3]"));
    }

    /// The 25% rule in both directions, and a metric the baseline lacks.
    #[test]
    fn baseline_check_fails_only_past_a_quarter() {
        let mut base = Report::new("perf", "baseline");
        base.note("qps", 100.0).note("ns", 100.0);
        let name = format!("csaw_baseline_{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        fs::write(&path, base.to_json()).unwrap();
        let path = path.to_str().unwrap();
        let check = |qps: f64, ns: f64| {
            let mut fresh = Report::new("perf", "fresh");
            fresh.note("qps", qps).note("ns", ns).note("new", 1.0);
            check_baseline(&fresh, path, &[("qps", true), ("ns", false)]).len()
        };
        assert_eq!(check(76.0, 124.0), 0);
        assert_eq!(check(500.0, 1.0), 0, "improvements always pass");
        assert_eq!(check(74.0, 124.0), 1);
        assert_eq!(check(76.0, 126.0), 1);
        let mut fresh = Report::new("perf", "fresh");
        fresh.note("new", 1.0);
        assert_eq!(check_baseline(&fresh, path, &[("new", true)]).len(), 1);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(str_lit("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.5), "2.5");
    }
}
