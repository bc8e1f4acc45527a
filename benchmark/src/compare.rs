//! `benchmark compare <parent-dir> <change-dir>`: medians, quartiles, win
//! share and a verdict for every workload x metric.
//!
//! Runs pair up by workload, trace mode and seed. A metric is *improved*
//! when at least ten pairs exist, the change wins at least nine tenths of
//! them (ties count for neither side) and the medians differ, in the
//! better direction, by more than the parent's interquartile range. A
//! bounded metric is *unresolved* when the parent's spread (IQR over
//! median) is wider than its bound, unless every change run beats every
//! parent run; *worse* when the change's median is worse than the
//! parent's by more than the bound; otherwise *unchanged*. A metric
//! without a bound is *worse* only by the mirror of the improvement rule.

use crate::stats::quartiles;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Declared {
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
    traced: bool,
}

/// `(workload, traced) -> seed -> metric -> value`.
type Runs = BTreeMap<(String, bool), BTreeMap<u64, BTreeMap<String, f64>>>;

/// Compare the result files under two directories, with the metric
/// declarations of `BENCHMARK.json` in the current directory.
pub fn main(argv: &[String]) -> Result<(), String> {
    let [parent_dir, change_dir] = argv else {
        return Err("expected <parent-dir> <change-dir>".into());
    };
    let declared = read_declared(Path::new("BENCHMARK.json"))?;
    let parent = read_runs(Path::new(parent_dir))?;
    let change = read_runs(Path::new(change_dir))?;

    println!(
        "{:<20} {:<28} {:>10} {:>26} {:>26} {:>5} {:>5}  verdict",
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "pairs",
        "wins"
    );
    let mut blocking = 0;
    for ((workload, traced), p_runs) in &parent {
        let Some(c_runs) = change.get(&(workload.clone(), *traced)) else {
            continue;
        };
        for (metric, decl) in declared.iter().filter(|(_, d)| d.traced == *traced) {
            let by_seed = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> BTreeMap<u64, f64> {
                runs.iter()
                    .filter_map(|(s, m)| m.get(metric).map(|v| (*s, *v)))
                    .collect()
            };
            let (p, c) = (by_seed(p_runs), by_seed(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(s, pv)| c.get(s).map(|cv| (*pv, *cv)))
                .collect();
            let pv: Vec<f64> = p.values().copied().collect();
            let cv: Vec<f64> = c.values().copied().collect();
            let (verdict, wins) = judge(&pv, &cv, &pairs, decl.lower_is_better, decl.bound);
            if decl.bound.is_some() && matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                blocking += 1;
            }
            let fmt = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "{:<20} {:<28} {:>10} {:>26} {:>26} {:>5} {:>5.2}  {:?}",
                workload,
                metric,
                decl.unit,
                fmt(&pv),
                fmt(&cv),
                pairs.len(),
                wins,
                verdict
            );
        }
    }
    if blocking > 0 {
        println!("{blocking} bounded metric(s) worse or unresolved");
    }
    Ok(())
}

/// Verdict for one workload x metric, and the change's win share over the
/// seed-matched pairs.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: Option<f64>,
) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let losses = pairs.iter().filter(|(p, c)| better(*p, *c)).count();
    let share = |k: usize| k as f64 / pairs.len().max(1) as f64;
    let (q1, p_med, q3) = quartiles(parent);
    let c_med = quartiles(change).1;
    let iqr = q3 - q1;
    let gap_beyond_iqr = (c_med - p_med).abs() > iqr;
    let enough = pairs.len() >= 10;
    if enough && share(wins) >= 0.9 && gap_beyond_iqr && better(c_med, p_med) {
        return (Verdict::Improved, share(wins));
    }
    let verdict = match bound {
        Some(bound) => {
            let scale = p_med.abs().max(f64::MIN_POSITIVE);
            let worse_by = if lower_is_better {
                (c_med - p_med) / scale
            } else {
                (p_med - c_med) / scale
            };
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            if iqr / scale > bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            }
        }
        None if enough && share(losses) >= 0.9 && gap_beyond_iqr && better(p_med, c_med) => {
            Verdict::Worse
        }
        None => Verdict::Unchanged,
    };
    (verdict, share(wins))
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn read_declared(path: &Path) -> Result<BTreeMap<String, Declared>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let cfg: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let Some(Value::Array(items)) = cfg.get(key) else {
            return Err(format!("{}: {key} is not a list", path.display()));
        };
        for m in items {
            let s = |f: &str| match m.get(f) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{key} entry without a string {f}")),
            };
            out.insert(
                s("name")?,
                Declared {
                    unit: s("unit")?,
                    lower_is_better: s("better")? == "lower",
                    bound: m.get("bound").and_then(as_f64),
                    traced,
                },
            );
        }
    }
    Ok(out)
}

/// Every result file under `dir` (as `save_result` writes them).
fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let v: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let (Some(Value::Str(w)), Some(seed), Some(Value::Bool(traced)), Some(metrics)) = (
                v.get("workload"),
                v.get("seed").and_then(as_f64),
                v.get("trace"),
                v.get("result").and_then(|r| r.get("metrics")),
            ) else {
                return Err(format!("{}: not a benchmark result", path.display()));
            };
            let values = metrics
                .as_object()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, m)| m.get("value").and_then(as_f64).map(|x| (k.clone(), x)))
                .collect();
            runs.entry((w.clone(), *traced))
                .or_default()
                .insert(seed as u64, values);
        }
    }
    if runs.is_empty() {
        return Err(format!("no result files under {}", dir.display()));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_section_8_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.5).collect();
        // Faster in every pair by far more than the parent's IQR.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let (v, wins) = judge(&parent, &faster, &pairs(&parent, &faster), true, Some(0.05));
        assert_eq!((v, wins), (Verdict::Improved, 1.0));
        // Same runs: unchanged, and nobody wins.
        let (v, wins) = judge(&parent, &parent, &pairs(&parent, &parent), true, Some(0.05));
        assert_eq!((v, wins), (Verdict::Unchanged, 0.0));
        // 20% slower against a 5% bound: worse.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let (v, _) = judge(&parent, &slower, &pairs(&parent, &slower), true, Some(0.05));
        assert_eq!(v, Verdict::Worse);
        // The same change where higher is better is an improvement.
        let (v, _) = judge(
            &parent,
            &slower,
            &pairs(&parent, &slower),
            false,
            Some(0.05),
        );
        assert_eq!(v, Verdict::Improved);
        // A parent spread wider than the bound leaves a small move
        // unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + i as f64 * 5.0).collect();
        let nudged: Vec<f64> = noisy.iter().map(|v| v * 1.01).collect();
        let (v, _) = judge(&noisy, &nudged, &pairs(&noisy, &nudged), true, Some(0.05));
        assert_eq!(v, Verdict::Unresolved);
        // Nine pairs are too few to claim a gain.
        let (v, _) = judge(
            &parent[..9],
            &faster[..9],
            &pairs(&parent[..9], &faster[..9]),
            true,
            Some(0.05),
        );
        assert_eq!(v, Verdict::Unchanged);
        // Without a bound only a consistent, large loss is worse.
        let (v, _) = judge(&parent, &slower, &pairs(&parent, &slower), true, None);
        assert_eq!(v, Verdict::Worse);
    }
}
