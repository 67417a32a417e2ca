//! `trend` — the bench history in one table.
//!
//! Every optimization PR leaves a `results/BENCH_pr<N>.json` behind
//! (PR 2 micro/e2e, PR 7 raw-speed, PR 8 sharded scale, PR 10 windowed
//! executor), each with its own schema and its own `baseline`/`latest`
//! pair — the baseline block being the numbers frozen when that PR
//! landed (for the earliest file, the seed). Reading the trajectory
//! therefore means opening four files and knowing four layouts. This bin
//! folds them into one report:
//!
//! * a headline table — one row per PR, its signature throughput metric,
//!   baseline → latest with the drift ratio (left out where the two ran
//!   different workloads, see [`comparable`]);
//! * the full table — every metric of every file, so regressions hiding
//!   behind a healthy headline still surface.
//!
//! Read-only: parses whatever `results/BENCH_pr*.json` exist (skipping
//! none-such quietly), writes nothing, exits 0 unless no bench file
//! exists at all.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One parsed bench file.
struct BenchFile {
    /// PR number from the filename (`BENCH_pr8.json` → 8).
    pr: u32,
    schema: String,
    mode: String,
    baseline: Vec<(String, f64)>,
    latest: Vec<(String, f64)>,
}

/// Extracts the string value of `"key": "..."` from a JSON text.
fn str_field(text: &str, key: &str) -> Option<String> {
    Some(
        text.split(&format!("\"{key}\": \""))
            .nth(1)?
            .split('"')
            .next()?
            .to_owned(),
    )
}

/// Extracts the flat `"name": number` pairs of the object named `key`.
/// The bench writers emit exactly this shape (no nested objects inside
/// `baseline`/`latest`), so a brace split is a parser.
fn metric_block(text: &str, key: &str) -> Vec<(String, f64)> {
    let Some(body) = text
        .split(&format!("\"{key}\": {{"))
        .nth(1)
        .and_then(|rest| rest.split('}').next())
    else {
        return Vec::new();
    };
    let mut metrics = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if let Ok(value) = value.trim().parse::<f64>() {
            metrics.push((name.trim().trim_matches('"').to_owned(), value));
        }
    }
    metrics
}

fn parse_bench(path: &Path, pr: u32) -> Option<BenchFile> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(BenchFile {
        pr,
        schema: str_field(&text, "schema")?,
        mode: str_field(&text, "mode").unwrap_or_else(|| "?".into()),
        baseline: metric_block(&text, "baseline"),
        latest: metric_block(&text, "latest"),
    })
}

/// The bench files present under `dir`, ascending by PR number.
fn discover(dir: &Path) -> Vec<(u32, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u32, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let pr = name
                .strip_prefix("BENCH_pr")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, entry.path()))
        })
        .collect();
    found.sort_unstable_by_key(|&(pr, _)| pr);
    found
}

/// The one metric that summarizes a file, per schema: end-to-end trial
/// rate for the perf tracks, best sharded event rate for the scale
/// track, windowed-executor event rate for the exec track. Falls back to
/// the first metric so unknown future schemas still produce a row.
fn headline(file: &BenchFile) -> Option<String> {
    let latest_names: Vec<&str> = file.latest.iter().map(|(n, _)| n.as_str()).collect();
    let pick = match file.schema.as_str() {
        "blackdp-perf/v1" => ["e2e_trials_per_s", "e2e_parallel_ms"]
            .into_iter()
            .find(|n| latest_names.contains(n)),
        "blackdp-scale/v1" => {
            // Best shard count may differ between baseline and latest:
            // headline the fastest sharded configuration of each.
            return latest_names
                .iter()
                .any(|n| n.starts_with("scale_events_per_s_shards"))
                .then(|| "scale_events_per_s_shards* (best)".to_owned());
        }
        "blackdp-exec/v1" => Some("exec_events_per_s_memo_windowed"),
        _ => None,
    };
    pick.or_else(|| latest_names.first().copied())
        .map(str::to_owned)
}

/// The number of end-to-end trials a `blackdp-perf/v1` block timed:
/// `perf` reports `e2e_trials_per_s = trials / e2e_parallel_ms`, and runs
/// 4 `small_test` trials in smoke mode and 10 `paper_table1` trials in
/// full mode, so the count names the e2e workload. `None` when the block
/// lacks either figure (`BENCH_pr7.json`'s baseline records only the
/// rate).
fn e2e_trials(metrics: &[(String, f64)]) -> Option<u64> {
    let rate = resolve(metrics, "e2e_trials_per_s")?;
    let ms = resolve(metrics, "e2e_parallel_ms")?;
    Some((rate * ms / 1000.0).round() as u64)
}

/// Whether `metric`'s baseline and latest readings measure the same
/// workload, so their ratio means something. A perf file's `e2e_*`
/// figures compare only when both blocks timed the same trial count:
/// `BENCH_pr2.json`'s baseline is a 10-trial `paper_table1` sweep, while
/// `perf smoke` writes a 4-trial `small_test` one.
fn comparable(file: &BenchFile, metric: &str) -> bool {
    if file.schema != "blackdp-perf/v1" || !metric.starts_with("e2e_") {
        return true;
    }
    match (e2e_trials(&file.baseline), e2e_trials(&file.latest)) {
        (Some(base), Some(latest)) => base == latest,
        _ => false,
    }
}

/// The `latest / baseline` ratio of `metric`, when both exist and are
/// [`comparable`].
fn drift(file: &BenchFile, metric: &str) -> Option<f64> {
    let base = resolve(&file.baseline, metric)?;
    let latest = resolve(&file.latest, metric)?;
    (base != 0.0 && comparable(file, metric)).then(|| latest / base)
}

fn fmt_drift(drift: Option<f64>) -> String {
    drift.map_or("-".into(), |d| format!("{d:.2}x"))
}

/// Looks `name` up in a metric list; the scale headline pseudo-metric
/// resolves to the maximum over the sharded event rates.
fn resolve(metrics: &[(String, f64)], name: &str) -> Option<f64> {
    if name == "scale_events_per_s_shards* (best)" {
        return metrics
            .iter()
            .filter(|(n, _)| n.starts_with("scale_events_per_s_shards"))
            .map(|&(_, v)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("bench metrics are finite"));
    }
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let files: Vec<BenchFile> = discover(&dir)
        .into_iter()
        .filter_map(|(pr, path)| parse_bench(&path, pr))
        .collect();
    if files.is_empty() {
        eprintln!("trend: no results/BENCH_pr*.json found under {}", dir.display());
        std::process::exit(1);
    }

    println!("==> bench trend: {} file(s) under {}", files.len(), dir.display());
    println!();
    println!("  headline trajectory (each PR's baseline froze at its landing; PR 2's is the seed)");
    println!(
        "  {:<5} {:>18} {:>6}  {:<38} {:>12} {:>12} {:>8}",
        "PR", "schema", "mode", "metric", "baseline", "latest", "drift"
    );
    let mut mismatched = Vec::new();
    for file in &files {
        let Some(metric) = headline(file) else {
            continue;
        };
        let base = resolve(&file.baseline, &metric);
        let latest = resolve(&file.latest, &metric);
        if base.is_some() && latest.is_some() && !comparable(file, &metric) {
            mismatched.push(format!("pr{}", file.pr));
        }
        println!(
            "  {:<5} {:>18} {:>6}  {:<38} {:>12} {:>12} {:>8}",
            format!("pr{}", file.pr),
            file.schema,
            file.mode,
            metric,
            base.map_or("-".into(), fmt_value),
            latest.map_or("-".into(), fmt_value),
            fmt_drift(drift(file, &metric))
        );
    }
    if !mismatched.is_empty() {
        println!(
            "  ({}: baseline and latest e2e runs timed different workloads; no drift shown)",
            mismatched.join(", ")
        );
    }

    println!();
    println!("  all metrics");
    let mut out = String::new();
    for file in &files {
        let _ = writeln!(
            out,
            "  pr{} ({}, {} mode)",
            file.pr, file.schema, file.mode
        );
        for (name, latest) in &file.latest {
            let base = resolve(&file.baseline, name);
            let _ = writeln!(
                out,
                "    {:<40} {:>12} {:>12} {:>8}",
                name,
                base.map_or("-".into(), fmt_value),
                fmt_value(*latest),
                fmt_drift(drift(file, name))
            );
        }
    }
    print!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Vec<BenchFile> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        discover(&dir)
            .into_iter()
            .filter_map(|(pr, path)| parse_bench(&path, pr))
            .collect()
    }

    fn perf_file(baseline: &[(&str, f64)], latest: &[(&str, f64)]) -> BenchFile {
        let owned = |m: &[(&str, f64)]| m.iter().map(|&(n, v)| (n.to_owned(), v)).collect();
        BenchFile {
            pr: 0,
            schema: "blackdp-perf/v1".into(),
            mode: "smoke".into(),
            baseline: owned(baseline),
            latest: owned(latest),
        }
    }

    /// The committed perf files keep an e2e baseline taken on another
    /// workload; their headline must show no ratio against it.
    #[test]
    fn perf_headline_shows_no_cross_workload_drift() {
        let files = committed();
        let perf: Vec<&BenchFile> = files
            .iter()
            .filter(|f| f.schema == "blackdp-perf/v1")
            .collect();
        assert!(
            perf.len() >= 2,
            "results/ holds BENCH_pr2.json and BENCH_pr7.json"
        );
        for file in perf {
            let metric = headline(file).expect("perf files have a headline");
            assert_eq!(metric, "e2e_trials_per_s");
            let same = matches!(
                (e2e_trials(&file.baseline), e2e_trials(&file.latest)),
                (Some(b), Some(l)) if b == l
            );
            assert_eq!(drift(file, &metric).is_some(), same, "pr{}", file.pr);
            if file.mode == "smoke" {
                // A smoke run times 4 trials; neither committed baseline
                // is a 4-trial run.
                assert_eq!(drift(file, &metric), None, "pr{}", file.pr);
            }
        }
    }

    #[test]
    fn same_workload_perf_runs_show_drift() {
        let file = perf_file(
            &[("e2e_parallel_ms", 40.0), ("e2e_trials_per_s", 100.0)],
            &[("e2e_parallel_ms", 20.0), ("e2e_trials_per_s", 200.0)],
        );
        assert_eq!(e2e_trials(&file.latest), Some(4));
        assert_eq!(drift(&file, "e2e_trials_per_s"), Some(2.0));
        let other = perf_file(
            &[("e2e_parallel_ms", 100.0), ("e2e_trials_per_s", 100.0)],
            &[("e2e_parallel_ms", 20.0), ("e2e_trials_per_s", 200.0)],
        );
        assert_eq!(drift(&other, "e2e_trials_per_s"), None);
        // Per-operation figures compare across e2e workloads.
        let micro = perf_file(&[("sign_ns", 300.0)], &[("sign_ns", 150.0)]);
        assert_eq!(drift(&micro, "sign_ns"), Some(0.5));
    }
}
