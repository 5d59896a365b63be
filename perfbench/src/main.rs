//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! gives the separate traced run with per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. The
//! process exits 1 on bad arguments, 0 otherwise (failed output checks
//! show in the result, not in the exit code).

mod check;
mod layers;
mod replay;
mod stats;
mod workloads;

use check::Checks;
use serde_json::Value;
use stats::Summary;
use workloads::Workload;

/// Output digests pinned per workload and seed.
const PINNED: &str = include_str!("../digests.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn pinned_digest(workload: Workload, seed: u64) -> Option<String> {
    let table: Value = serde_json::from_str(PINNED).expect("digests.json is valid JSON");
    table.get(workload.name())?.get(&seed.to_string())?.as_str().map(str::to_string)
}

type Metrics = Vec<(String, Value)>;

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    let body = vec![("value".into(), Value::F64(value)), ("unit".into(), Value::Str(unit.into()))];
    (name.into(), Value::Map(body))
}

fn result_line(checks: &Checks, metrics: Metrics) -> String {
    let count = |n: u64| Value::I64(i64::try_from(n).expect("check counts fit in i64"));
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), count(checks.attempted)),
        ("failed".into(), count(checks.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("the result serializes")
}

fn end_to_end(args: &Args) -> String {
    let mut out = workloads::run(args.workload, args.seed, args.seconds);
    let digest = out.digest.hex();
    match pinned_digest(args.workload, args.seed) {
        Some(want) => out.checks.check(digest == want, || {
            format!("output digest {digest} differs from the pinned {want}")
        }),
        None => println!("digest {digest} (seed {} is not pinned)", args.seed),
    }
    for line in &out.lines {
        println!("{line}");
    }
    let setup = Summary::of(&out.setup).expect("set-up ran");
    let unit = Summary::of(&out.unit).expect("units ran");
    let rss = peak_rss_mb();
    println!("setup      {}", setup.render(1e3, "ms"));
    println!("timed unit {}", unit.render(1e3, "ms"));
    println!("work_per_s {:.3} ({} per host second)", out.work_per_s, args.workload.work_unit());
    println!("peak_rss_mb {rss:.2}");
    println!("digest {digest}");
    println!(
        "verify_fail_rate {} ({} of {} checks failed)",
        out.checks.fail_rate(),
        out.checks.failed,
        out.checks.attempted
    );
    for note in &out.checks.notes {
        println!("FAILED: {note}");
    }
    let metrics = vec![
        metric("work_per_s", out.work_per_s, "1/s"),
        metric("setup_s", setup.fastest, "s"),
        metric("peak_rss_mb", rss, "MB"),
        metric("verify_pass_rate", 1.0 - out.checks.fail_rate(), "ratio"),
    ];
    result_line(&out.checks, metrics)
}

fn per_layer(args: &Args) -> String {
    let out = layers::traced(args.workload, args.seed, args.seconds);
    for line in &out.lines {
        println!("{line}");
    }
    println!(
        "verify_fail_rate {} ({} of {} checks failed)",
        out.checks.fail_rate(),
        out.checks.failed,
        out.checks.attempted
    );
    for note in &out.checks.notes {
        println!("FAILED: {note}");
    }
    let metrics =
        out.metrics.iter().map(|&(name, value, unit)| metric(name, value, unit)).collect();
    result_line(&out.checks, metrics)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("STAR_EXEC_THREADS").unwrap_or_else(|_| "unset".into())
    );
    let last = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    println!("{last}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload serve_steady --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(a.workload, Workload::ServeSteady);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve_steady --seed -1 --seconds 1",
            "--workload serve_steady --seed 1 --seconds 0",
            "--workload serve_steady --seed 1 --seconds 1 --trace 2",
            "--workload serve_steady --seed 1",
            "--workload serve_steady --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn pinned_digests_parse() {
        for w in Workload::ALL {
            let _ = pinned_digest(w, 1);
        }
    }

    #[test]
    fn traced_work_counts_repeat_at_one_seed() {
        let a = layers::round_counts(Workload::WhatifA11, 3);
        let b = layers::round_counts(Workload::WhatifA11, 3);
        assert_eq!(a, b);
        assert!(a.values().all(|&c| c > 0), "{a:?}");
    }
}
