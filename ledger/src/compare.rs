//! `ledger compare A B`: two sets of runs against the bounds in
//! `BENCHMARK.json`. A file is the concatenated stdout of any number of
//! runs (stamp line, result line, …). Used for the A/A criterion (same
//! commit twice) and for parent-versus-change.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// workload → metric → one value per end-to-end run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut stamp: Option<Json> = None;
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", no + 1))?;
        if let Some(s) = v.get("stamp") {
            stamp = Some(s.clone());
            continue;
        }
        let s = stamp.take().ok_or(format!(
            "{path}:{}: result line without a stamp line",
            no + 1
        ))?;
        if s.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = s
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("stamp without workload")?;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err("result without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            runs.entry(workload.into())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between runs of one side is wider than the bound, so
    /// the medians cannot settle it.
    Unresolved,
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

fn side(values: &[f64]) -> Side {
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0])
    };
    Side {
        median: median(values),
        q1,
        q3,
    }
}

/// The rule of choosing-metrics §6.5 for one metric × workload pair.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (side(a), side(b));
    let spread = |s: &Side| (s.q3 - s.q1) / s.median.abs();
    if spread(&sa).max(spread(&sb)) > bound {
        let every_b_better = b.iter().all(|&y| {
            a.iter()
                .all(|&x| if higher_is_better { y > x } else { y < x })
        });
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = if higher_is_better {
        sa.median - sb.median
    } else {
        sb.median - sa.median
    } / sa.median.abs();
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(true)` when every pair is `ok`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(a.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("usage: ledger compare A B [--benchmark FILE]".into());
    };
    let doc = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let doc = json::parse(&doc).map_err(|e| format!("{benchmark}: {e}"))?;
    let (a, b) = (read_runs(a_path)?, read_runs(b_path)?);

    let mut all_ok = true;
    println!(
        "{:<14} {:<16} {:>12} {:>24} {:>12} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "bound"
    );
    for (workload, metrics) in &a {
        for spec in doc
            .get("end_to_end")
            .ok_or("BENCHMARK.json without end_to_end")?
            .as_arr()
        {
            let name = spec
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = spec
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(va), Some(vb)) =
                (metrics.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                println!("{workload:<14} {name:<16} missing on one side");
                all_ok = false;
                continue;
            };
            let (sa, sb) = (side(va), side(vb));
            let v = verdict(va, vb, higher, bound);
            all_ok &= v == Verdict::Ok;
            println!(
                "{workload:<14} {name:<16} {:>12.4} {:>24} {:>12.4} {:>24} {:>+7.1}% {:>5.0}%  {}",
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 130.0, 95.0, 110.0, 100.0];
        let far_better = [10.0, 60.0, 25.0, 40.0, 30.0];
        assert_eq!(verdict(&a, &same, false, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &slower, false, 0.10), Verdict::Worse);
        // for a higher-is-better metric the same move is a gain
        assert_eq!(verdict(&a, &slower, true, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &noisy, false, 0.10), Verdict::Unresolved);
        // wide spread, but every run of B beats every run of A
        assert_eq!(verdict(&a, &far_better, false, 0.10), Verdict::Ok);
    }
}
