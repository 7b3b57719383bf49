//! The label-serving benchmark (see `labelbench/README.md`).
//!
//! ```sh
//! cargo run --release --offline --manifest-path labelbench/Cargo.toml -- \
//!     --workload demo_cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each invocation runs one workload in this fresh process, against an
//! in-process label server on loopback, and prints its metrics; the last
//! line of standard output is one JSON object.  `--trace 0` measures the
//! end-to-end metrics, `--trace 1` the per-layer ones.

mod check;
mod client;
mod plan;
mod procfs;
mod run;
mod spans;
mod traced;

use plan::Workload;
use std::time::Instant;

/// One run's result.
pub struct Report {
    /// Every output and mechanism check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: labelbench --workload demo_cold|synth_100k_cold|warm_http|spill_churn \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 25.0, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("invalid {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run::run(args.workload, args.seed, args.seconds, started)
    };
    let line = report.and_then(|report| {
        for (name, value, unit) in &report.metrics {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        println!(
            "  attempted {}, failed {}, correct {}",
            report.attempted, report.failed, report.correct
        );
        report.json()
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("labelbench: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program prints are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec: serde_json::Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        let per_layer: Vec<String> = traced::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let end_to_end = [
            "setup_s",
            "latency_p50_ms",
            "latency_tail_ms",
            "throughput_rps",
            "cpu_ms_per_req",
            "peak_rss_mb",
            "label_bytes",
        ];
        assert_eq!(names("end_to_end"), end_to_end);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload warm_http --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::WarmHttp, 7, 2.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload demo_cold --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
