//! The BlackDP benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|strip100k|platoon|rsu_join> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Every line but the last is a note;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `METRICS.md` beside
//! this package defines every metric and why each workload exists.

mod measure;
mod platoon;
mod rsu_join;
mod sim_trace;
mod strip;
mod table1;

use std::process::ExitCode;

use measure::{CountingAlloc, Outcome};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 4] = ["table1", "strip100k", "platoon", "rsu_join"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// when there is one (no process is started, nothing outside the
/// checkout is read).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_line(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"nproc\": {cores}, \"cpu\": {}, \"rustflags\": {}, \"revision\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(&git_revision()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record-reference") {
        let path = "perfbench/table1_reference.txt";
        if let Err(e) = std::fs::write(path, table1::record_reference()) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    let out = match args.workload.as_str() {
        "table1" => table1::run(args.seed, args.seconds, args.trace),
        "strip100k" => strip::run(args.seed, args.seconds, args.trace),
        "platoon" => platoon::run(args.seed, args.seconds, args.trace),
        "rsu_join" => match rsu_join::run(args.seed, args.seconds, args.trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: rsu_join: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => unreachable!("validated by parse_args"),
    };
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "platoon",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("platoon", 4, 10, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "table1",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    /// `(name, unit)` of the metrics `BENCHMARK.json` declares under
    /// `key`, in order.
    fn declared(key: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let section = manifest
            .split_once(&format!("\"{key}\": ["))
            .and_then(|(_, rest)| rest.split_once(']'))
            .map_or("", |(body, _)| body);
        section
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let (name, rest) = entry.split_once('"')?;
                let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_owned(), unit.to_owned()))
            })
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    /// With `--trace 0` every workload reports exactly the end-to-end
    /// metrics, with `--trace 1` exactly the per-layer ones, each in its
    /// declared unit.
    #[test]
    fn every_workload_reports_exactly_the_declared_metrics() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(end_to_end.contains(&("setup_s".into(), "s".into())));
        assert!(!per_layer.is_empty());
        let short = blackdp_scenario::ScenarioConfig {
            sim_duration: blackdp_sim::Duration::from_millis(500),
            ..blackdp_scenario::ScenarioConfig::paper_table1()
        };
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            for (workload, out) in [
                ("table1", table1::run_cfg(&short, 1, 0, trace)),
                ("strip100k", strip::run_n(1, 0, trace, 1_000)),
                ("platoon", platoon::run_n(1, 0, trace, 100)),
            ] {
                assert_eq!(&reported(&out), want, "{workload}, trace {trace}");
                for m in &out.metrics {
                    assert!(
                        m.value.is_finite() && m.value > 0.0,
                        "{workload}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut out = Outcome::new();
        out.attempted = 3;
        out.put("setup_s", 0.25, "s");
        assert_eq!(
            result_line(&out),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
