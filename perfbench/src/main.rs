//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload (see `workloads::NAMES`) sequentially on one
//! thread, checks every operation, prints each metric by name and unit
//! with the samples behind it, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` keeps spans and reports the
//! per-layer metrics instead. `--smoke` shrinks every input for the
//! benchmark's own tests. See `README.md` for what each metric means.

mod alloc;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Config, Metric};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: String,
    cfg: Config,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        },
    })
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} smoke={} host: available_parallelism={} profile={} target={}-{} threads=1 sched=sparse",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        // dlint::allow(ambient-env, "host fingerprint printed beside the results; it never steers the run")
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::consts::ARCH,
        std::env::consts::OS,
    );
    let out = workloads::run(&args.workload, cfg).expect("workload name checked in parse");
    let reported = if cfg.trace { &out.layers } else { &out.e2e };
    for line in &out.lines {
        println!("{line}");
    }
    for m in reported {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!("digest {:016x}", out.digest);
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let finite = reported.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0 && finite,
        out.attempted,
        out.failed,
        json_metrics(reported)
    );
    ExitCode::SUCCESS
}
