//! `--compare A B`: two result files of the same benchmark, metric by
//! metric — the tool the two-set acceptance check and every later
//! performance change use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use super::json::Json;
use super::spec::{self, Better, MetricDef};
use super::stats;

/// What the two sets say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own spread.
    Improved,
    /// B's median is within the bound of A's (and not improved).
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's run-to-run spread is wider than the bound, and the sets
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` against set `a` for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    // Positive = B is worse, as a share of A's median.
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let b_always_worse = b.iter().all(|&x| a.iter().all(|&y| better(y, x)));
    let noisy = [a, b]
        .iter()
        .any(|set| stats::spread(set).is_some_and(|s| s > def.bound));
    if noisy && !b_always_better && !b_always_worse {
        return Verdict::Unresolved;
    }
    if worse_by > def.bound {
        return Verdict::Regressed;
    }
    let iqr_a = stats::quartiles(a).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let gain = match def.better {
        Better::Lower => ma - mb,
        Better::Higher => mb - ma,
    };
    if gain > iqr_a && gain > 0.0 && (a.len() < 2 || b_always_better || gain > 2.0 * iqr_a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[derive(Default)]
struct Set {
    /// Metric → one value per run.
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn load(path: &Path) -> Result<BTreeMap<String, Set>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets: BTreeMap<String, Set> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue; // per-layer runs explain; they are not compared
        }
        let field = |v: &Json, key: &str| {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("{}:{}: no {key:?}", path.display(), n + 1))
        };
        let workload = field(&run, "workload")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        let result = field(&run, "result")?;
        let set = sets.entry(workload).or_default();
        set.attempted += field(&result, "attempted")?.as_f64().unwrap_or(0.0);
        set.failed += field(&result, "failed")?.as_f64().unwrap_or(0.0);
        for (name, metric) in field(&result, "metrics")?.as_object().unwrap_or_default() {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(sets)
}

/// Compares two result files; returns the printed table and whether
/// anything regressed (a metric past its bound, or a higher share of
/// failed operations).
///
/// # Errors
///
/// A file that cannot be read or parsed.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (sets_a, sets_b) = (load(a)?, load(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<22} {:<18} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "bound"
    );
    for workload in spec::WORKLOADS {
        let (Some(sa), Some(sb)) = (sets_a.get(workload), sets_b.get(workload)) else {
            continue;
        };
        for def in spec::END_TO_END {
            let (Some(va), Some(vb)) = (sa.metrics.get(def.name), sb.metrics.get(def.name)) else {
                continue;
            };
            let verdict = judge(def, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let quart = |v: &[f64]| {
                stats::quartiles(v).map_or_else(
                    || "-".to_string(),
                    |[q1, _, q3]| format!("{q1:.4}..{q3:.4}"),
                )
            };
            let (ma, mb) = (
                stats::median(va).unwrap_or(f64::NAN),
                stats::median(vb).unwrap_or(f64::NAN),
            );
            let _ = writeln!(
                out,
                "{:<22} {:<18} {:>12.4} {:>22} {:>12.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                workload,
                def.name,
                ma,
                quart(va),
                mb,
                quart(vb),
                (mb - ma) / ma * 100.0,
                def.bound * 100.0,
                verdict.name()
            );
        }
        let (ea, eb) = (
            sa.failed / sa.attempted.max(1.0),
            sb.failed / sb.attempted.max(1.0),
        );
        let worse = eb > ea;
        regressed |= worse;
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>12.6} {:>22} {:>12.6} {:>22} {:>8} {:>6}  {}",
            workload,
            "error_frac",
            ea,
            "",
            eb,
            "",
            "",
            "0%",
            if worse { "regressed" } else { "unchanged" }
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "us",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = def(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&lower, &a, &[100.2, 100.9, 99.4, 100.0, 99.9]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Improved
        );
        // 5 % worse is inside a 10 % bound.
        assert_eq!(
            judge(&lower, &a, &[105.0, 106.0, 104.0, 105.5, 104.5]),
            Verdict::Unchanged
        );
        // A set whose own spread exceeds the bound cannot resolve an
        // overlapping difference …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&lower, &noisy, &[95.0, 105.0, 100.0, 98.0, 102.0]),
            Verdict::Unresolved
        );
        // … unless every run of one side beats every run of the other.
        assert_eq!(
            judge(&lower, &noisy, &[50.0, 51.0, 52.0, 50.5, 51.5]),
            Verdict::Improved
        );
        assert_eq!(
            judge(&lower, &noisy, &[150.0, 151.0, 152.0, 150.5, 151.5]),
            Verdict::Regressed
        );

        let higher = def(Better::Higher, 0.10);
        assert_eq!(
            judge(&higher, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Improved
        );
    }
}
