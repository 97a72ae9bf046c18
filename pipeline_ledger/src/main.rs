//! Pipeline ledger: one PrintQueue workload, end to end, in one process.
//!
//! ```text
//! cargo run --release --manifest-path pipeline_ledger/Cargo.toml -- \
//!     --workload uw_4port --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress goes to
//! standard error. See `README.md` for the workloads and the metrics.

mod check;
mod pipeline;
mod spec;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Fix glibc's allocator thresholds for the run. By default a large free
/// at the top of the heap is returned to the kernel, and whether that
/// happens depends on where other allocations landed: on
/// `ws_fine_windows`, whose rounds allocate and free ~1 MiB per checkpoint,
/// it made ingest read 0.38 or 0.67 Mpkt/s depending on the seed, from page
/// faults alone. With trimming off and a fixed mmap threshold, every round
/// reuses the same heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets glibc allocator parameters, takes plain
    // integers, and runs first thing in main, before any other thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

/// JSON string literal for a metric name or unit (plain ASCII here).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    steady_allocator();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        let names: Vec<&str> = spec::all().iter().map(|s| s.name).collect();
        eprintln!(
            "pipeline-ledger: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let root = PathBuf::from(".ledger_work");
    let opts = pipeline::Options {
        seconds: args.seconds,
        traced: args.trace,
        work_dir: root.join(format!("run-{}", std::process::id())),
        spans_out: root
            .join("spans")
            .join(format!("{}-seed{}.json", spec.name, args.seed)),
        round_diagnoses: pipeline::ROUND_DIAGNOSES,
    };
    let outcome = match pipeline::run(&spec, args.seed, &opts) {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&opts.work_dir);
            eprintln!("pipeline-ledger: {} failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for reason in &outcome.tally.reasons {
        eprintln!("[ledger] FAILED {reason}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("[ledger] {name:<32} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                quoted(name),
                quoted(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of `name`: every check runs, and none fails.
    fn tiny_run(name: &str, traced: bool) -> pipeline::Outcome {
        let spec = spec::by_name(name).expect("known workload").tiny();
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".ledger_work")
            .join(format!("test-{}-{name}-{traced}", std::process::id()));
        let opts = pipeline::Options {
            seconds: 0.5,
            traced,
            work_dir: root.join("run"),
            spans_out: root.join("spans.json"),
            round_diagnoses: 20,
        };
        let out = pipeline::run(&spec, 7, &opts).expect("tiny run completes");
        if traced {
            let spans = std::fs::read_to_string(&opts.spans_out).expect("spans written");
            assert!(spans.contains("router.diagnose"), "routed spans recorded");
        }
        let _ = std::fs::remove_dir_all(&root);
        assert!(out.tally.attempted > 0);
        assert_eq!(out.tally.failed, 0, "{name}: {:?}", out.tally.reasons);
        out
    }

    fn names(out: &pipeline::Outcome) -> Vec<&'static str> {
        out.metrics.iter().map(|m| m.0).collect()
    }

    const END_TO_END: [&str; 8] = [
        "setup_s",
        "ingest_mpps",
        "archive_bytes_per_pkt",
        "poll_bytes_per_pkt",
        "diagnose_qps",
        "diagnose_p50_ms",
        "diagnose_p99_ms",
        "peak_rss_mb",
    ];

    #[test]
    fn uw_4port_tiny_run_has_no_failures() {
        let out = tiny_run("uw_4port", false);
        assert_eq!(names(&out), END_TO_END);
        assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
    }

    #[test]
    fn ws_fine_windows_tiny_run_has_no_failures() {
        let out = tiny_run("ws_fine_windows", false);
        assert_eq!(names(&out), END_TO_END);
    }

    #[test]
    fn dm_incident_fleet_tiny_run_has_no_failures() {
        let out = tiny_run("dm_incident_fleet", false);
        assert_eq!(names(&out), END_TO_END);
    }

    #[test]
    fn traced_tiny_runs_report_every_layer() {
        for name in ["uw_4port", "ws_fine_windows", "dm_incident_fleet"] {
            let out = tiny_run(name, true);
            assert_eq!(out.metrics.len(), 20, "{name}: {:?}", names(&out));
            assert!(names(&out).contains(&"router.fanout"));
        }
    }
}
