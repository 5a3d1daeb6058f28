//! `--calibrate`: measure the benchmark's own run-to-run noise and hold it
//! against the regression bounds in `BENCHMARK.json`.
//!
//! Runs two sets of ten full passes of the same build — every pass a fresh
//! process per workload, every run another seed — and prints, per workload
//! and end-to-end metric, each set's median and quartiles, the spread the
//! driver will compute, and the relative gap between the set medians. The
//! driver refuses a benchmark whose spread exceeds its own bound or whose
//! second median is worse than its first by more than the bound, and asks for
//! spreads below a third of the bound. Every bound is the 25 % the driver
//! allows at most: the same code has shown three to seven times its quiet
//! spread in a noisy quarter of an hour of this shared host, so three times
//! the spread of a calibration that happened to fall in a quiet one is no
//! safe bound. The `## Bounds` table gives each metric's margin — its bound
//! over its largest spread; `setup_s`'s spread is printed but the driver does
//! not check it — and the run fails if a spread or a gap exceeds a bound. A
//! self-test compares the table with `BENCHMARK.json`.

use crate::metrics::Catalog;
use crate::stats::{quartiles, spread};
use pilot_miniapp::json;
use std::process::{Command, ExitCode, Stdio};

const SETS: usize = 2;
const PASSES: usize = 10;

/// This executable, set to run one workload in a fresh process.
pub fn child(workload: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Command {
    let mut c = Command::new(std::env::current_exe().expect("path of this executable"));
    c.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        c.arg("--quick");
    }
    c
}

/// The `metrics` object of a result line as `(name, value)` pairs, provided
/// the run reported itself correct.
pub fn parse_result(line: &str) -> Option<Vec<(String, f64)>> {
    let v = json::parse(line).ok()?;
    if v.get("correct") != Some(&json::Value::Bool(true)) {
        return None;
    }
    match v.get("metrics")? {
        json::Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => None,
    }
}

pub fn run(catalog: &Catalog, seconds: f64, quick: bool) -> ExitCode {
    let (workloads, metrics) = (&catalog.workloads, &catalog.end_to_end);
    println!("# Calibration\n");
    println!("{}\n", crate::harness::host_facts());
    println!(
        "{SETS} sets x {PASSES} passes, {seconds} s timed section{}, one process per run, \
         seeds 1..={}.\n",
        if quick { " (quick: 1/20 scale)" } else { "" },
        SETS * PASSES
    );
    // values[set][workload][metric] = one value per pass
    let mut values = vec![vec![vec![Vec::new(); metrics.len()]; workloads.len()]; SETS];
    for (set, of_set) in values.iter_mut().enumerate() {
        for pass in 0..PASSES {
            let seed = (set * PASSES + pass + 1) as u64;
            for (w, workload) in workloads.iter().enumerate() {
                let output = child(workload, seed, seconds, false, quick)
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("start child process");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let Some(result) = stdout.lines().last().and_then(parse_result) else {
                    eprintln!("{workload} seed {seed} gave no correct result:\n{stdout}");
                    return ExitCode::FAILURE;
                };
                for (m, def) in metrics.iter().enumerate() {
                    let v = result.iter().find(|(n, _)| *n == def.name).map(|p| p.1);
                    of_set[w][m].push(v.expect("every end-to-end metric is reported"));
                }
                eprintln!("set {} pass {} {workload}: done", set + 1, pass + 1);
            }
        }
    }

    let mut worst_gap = vec![0.0f64; metrics.len()];
    let mut worst_spread = vec![0.0f64; metrics.len()];
    println!("| workload | metric | unit | set | q1 | median | q3 | spread | gap to set 1 |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, workload) in workloads.iter().enumerate() {
        for (m, def) in metrics.iter().enumerate() {
            let first = quartiles(&values[0][w][m]).expect("two passes or more").1;
            for (set, of_set) in values.iter().enumerate() {
                let v = &of_set[w][m];
                let (q1, q2, q3) = quartiles(v).expect("two passes or more");
                let sp = spread(v).unwrap_or(0.0);
                let gap = (q2 - first).abs() / first.abs();
                worst_gap[m] = worst_gap[m].max(gap);
                worst_spread[m] = worst_spread[m].max(sp);
                println!(
                    "| {workload} | {} | {} | {} | {q1:.5} | {q2:.5} | {q3:.5} | {:.1} % | {:.1} % |",
                    def.name,
                    def.unit,
                    set + 1,
                    sp * 100.0,
                    gap * 100.0
                );
            }
        }
    }

    println!("\n## Bounds\n");
    println!("| metric | largest gap between set medians | largest spread | bound | margin |");
    println!("|---|---|---|---|---|");
    let mut within = true;
    for ((def, gap), spread) in metrics.iter().zip(&worst_gap).zip(&worst_spread) {
        let bound = def.bound.expect("an end-to-end metric has a bound");
        let checked = if def.name == "setup_s" { 0.0 } else { *spread };
        within &= gap.max(checked) <= bound;
        println!(
            "| {} | {:.1} % | {:.1} % | {:.0} % | {} |",
            def.name,
            gap * 100.0,
            spread * 100.0,
            bound * 100.0,
            if def.name == "setup_s" {
                "spread not checked".to_string()
            } else {
                format!("{:.1} x the largest spread", bound / spread)
            },
        );
    }
    if !within {
        eprintln!("a spread or a gap between set medians exceeds its bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
