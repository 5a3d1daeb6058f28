//! One repeatable benchmark for the whole machine.
//!
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>` runs one
//! workload in this process and prints every metric by name with its unit;
//! the last line of standard output is the result as one JSON object. See
//! `README.md` for the workloads, the metrics and what each should move.

mod calibrate;
mod harness;
mod metrics;
mod stack;
mod stats;
mod trace;
mod workloads;

use harness::{host_facts, Outcome, Plan, GEN_LATE_LIMIT_MS};
use metrics::Catalog;
use std::path::Path;
use std::process::ExitCode;

/// Length of the timed section when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Exit code of a run in which an oracle failed.
const EXIT_INCORRECT: u8 = 1;

const USAGE: &str = "usage: pilot-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace [0|1]] [--quick]
       pilot-benchmark --all [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick]
       pilot-benchmark --calibrate [--seconds <n>] [--quick]
workloads: unit_journey ensemble_burst replicated_stream read_storm sim_campaign";

struct Args {
    workload: Option<String>,
    all: bool,
    calibrate: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        calibrate: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = num(flag, value("a seed")?)?,
            "--seconds" => a.seconds = num(flag, value("a length in seconds")?)?,
            "--all" => a.all = true,
            "--calibrate" => a.calibrate = true,
            "--quick" => a.quick = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // driver's spelling.
            "--trace" => {
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// A JSON number: non-finite values (an empty sample's ratio) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Relative worsening of the workload's primary metric under tracing:
/// median latency for the open-loop journey (its throughput is set by the
/// offered rate), throughput everywhere else.
fn overhead_frac(catalog: &Catalog, workload: &str, plain: &Outcome, traced: &Outcome) -> f64 {
    let (name, worse) = if workload == "unit_journey" {
        ("latency_p50_ms", 1.0)
    } else {
        ("throughput_per_s", -1.0)
    };
    let pick = |o: &Outcome| {
        let all = catalog.end_to_end(o);
        all.iter().find(|m| m.0.name == name).map_or(0.0, |m| m.1)
    };
    let (p, t) = (pick(plain), pick(traced));
    worse * (t - p) / p
}

/// Run one workload in this process and print its result.
fn run_workload(catalog: &Catalog, workload: &str, a: &Args) -> ExitCode {
    let Some(run) = workloads::by_name(workload) else {
        eprintln!("unknown workload '{workload}'\n{USAGE}");
        return ExitCode::from(2);
    };
    let scale = if a.quick { 20 } else { 1 };
    let plan = Plan {
        seed: a.seed,
        seconds: a.seconds / scale as f64,
        traced: false,
        scale,
        reference: false,
    };
    println!(
        "workload={workload} seed={} seconds={} traced={} scale=1/{scale}",
        a.seed, plan.seconds, a.traced
    );
    println!("{}", host_facts());

    // End-to-end numbers come from an untraced run. A traced invocation
    // spends half its time on an untraced reference and half traced, so the
    // difference between the two is the tracing overhead.
    let mut out = if a.traced {
        let half = Plan {
            seconds: plan.seconds / 2.0,
            ..plan.clone()
        };
        let plain = run(&Plan {
            reference: true,
            ..half.clone()
        });
        let mut traced = run(&Plan {
            traced: true,
            ..half
        });
        traced.violations.extend(plain.violations.iter().cloned());
        let overhead = overhead_frac(catalog, workload, &plain, &traced);
        traced.layer("trace.overhead_frac", overhead);
        traced
    } else {
        run(&plan)
    };
    let (attempted, failed) = (out.attempted(), out.failed());
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let (rounds, samples) = (out.rounds.len(), out.latency_samples());
    let (late, on_time) = (out.gen_late_p99_ms(), out.rounds_on_time());
    // A generator that ran late in every round never offered the load the
    // workload states: the run is invalid, and says so where the driver
    // looks. Late rounds short of that stay in every number — latency counts
    // from the due time, so lateness is inside it — and are counted below.
    // (Not at 1/20 scale, whose rounds are too short for a p99.)
    out.check(a.quick || on_time > 0, || {
        format!(
            "INVALID RUN: the generator ran more than {GEN_LATE_LIMIT_MS} ms late at p99 in \
             every round ({late:.3} ms in the middle ones)"
        )
    });
    out.layer("e2e.failed_frac", failed_frac);
    out.layer("e2e.latency_samples", samples as f64);
    // The tail beyond the bounded p90: on a shared host a p99 of a 1 ms
    // operation sits where the host's stalls do, too unsteady to bound.
    out.layer("e2e.latency_p99_ms", out.latency_ms(0.99));
    out.layer("gen.late_ms_p99", late);

    let reported = if a.traced {
        if let Err(e) = write_spans(workload, &out) {
            eprintln!("cannot write spans: {e}");
        }
        catalog.per_layer(&out)
    } else {
        catalog.end_to_end(&out)
    };
    for (def, value) in &reported {
        let bound = def.bound.map_or(String::new(), |b| {
            format!(", may worsen {:.0} %", b * 100.0)
        });
        println!(
            "  {:<40} {value:>16.6} {:<6} ({} is better{bound})",
            def.name, def.unit, def.better
        );
    }
    println!(
        "  rounds: {rounds} ({on_time} with the generator on time)   latency samples: {samples}   \
         attempted: {attempted}   failed: {failed} (failed_frac {failed_frac})   \
         gen.late_ms_p99: {late:.3}"
    );
    for v in &out.violations {
        println!("  ORACLE FAILED: {v}");
    }
    let correct = out.violations.is_empty() && failed == 0;
    let body: Vec<String> = reported
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(*value),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}

/// Spans go to `out/trace-<workload>.json`, written after all measuring.
fn write_spans(workload: &str, out: &Outcome) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        trace::spans_json(&out.spans),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalog = Catalog::load();
    if a.calibrate {
        return calibrate::run(&catalog, a.seconds, a.quick);
    }
    if a.all {
        // One fresh process per workload, so peak RSS and lazy set-up costs
        // of one never leak into another.
        let mut worst = ExitCode::SUCCESS;
        for w in &catalog.workloads {
            let status = calibrate::child(w, a.seed, a.seconds, a.traced, a.quick)
                .status()
                .expect("start child process");
            if !status.success() {
                worst = ExitCode::from(EXIT_INCORRECT);
            }
        }
        return worst;
    }
    match &a.workload {
        Some(w) => run_workload(&catalog, w, &a),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
