//! The names, units and directions of every workload and metric. There is one
//! list, `BENCHMARK.json` at the repository root; it is compiled in, and a
//! name in it that the code does not measure stops the run.

use crate::harness::{peak_rss_mb, Outcome};
use crate::stats::iq_mean;
use pilot_miniapp::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the median; end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Catalog {
    pub workloads: Vec<String>,
    /// What a user of the system sees; every workload reports every one.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer numbers from the traced run.
    pub per_layer: Vec<MetricDef>,
}

/// One reported metric: its definition and the value measured.
pub type Reported<'a> = (&'a MetricDef, f64);

impl Catalog {
    pub fn load() -> Catalog {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .to_vec()
        };
        let text = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .expect("a string")
                .to_string()
        };
        let defs = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Catalog {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }

    /// Every end-to-end metric of a finished run, each the interquartile mean
    /// of its repeats: over the rounds of each round's throughput, median
    /// latency and p90, over the run's set-ups, and over its cold restarts.
    pub fn end_to_end(&self, out: &Outcome) -> Vec<Reported<'_>> {
        self.end_to_end
            .iter()
            .map(|d| {
                let v = match d.name.as_str() {
                    "setup_s" => iq_mean(&out.setup_s),
                    "throughput_per_s" => out.throughput_per_s(),
                    "latency_p50_ms" => out.latency_ms(0.5),
                    "latency_p90_ms" => out.latency_ms(0.9),
                    "recover_s" => iq_mean(&out.recover_s),
                    "peak_rss_mb" => peak_rss_mb(),
                    other => panic!("BENCHMARK.json names {other}, which nothing measures"),
                };
                (d, v)
            })
            .collect()
    }

    /// Every per-layer metric; layers the workload did not touch read 0.
    /// Panics on a measured name missing from `BENCHMARK.json`: that is a bug
    /// in the workload, not a measurement.
    pub fn per_layer(&self, out: &Outcome) -> Vec<Reported<'_>> {
        for (name, _) in &out.layers {
            assert!(
                self.per_layer.iter().any(|d| d.name == *name),
                "per-layer metric {name} is not declared in BENCHMARK.json"
            );
        }
        self.per_layer
            .iter()
            .map(|d| {
                let v = out.layers.iter().find(|(n, _)| *n == d.name);
                (d, v.map_or(0.0, |l| l.1))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_and_end_to_end_metric_is_implemented() {
        let c = Catalog::load();
        for w in &c.workloads {
            assert!(crate::workloads::by_name(w).is_some(), "{w}");
        }
        // Panics on a name nothing measures.
        assert_eq!(c.end_to_end(&Outcome::default()).len(), c.end_to_end.len());
        for d in &c.end_to_end {
            let bound = d.bound.expect("an end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", d.name);
        }
    }

    /// The bounds in `BENCHMARK.json` are the ones the committed calibration
    /// derived: the `## Bounds` table of `CALIBRATION.md`, row for row.
    #[test]
    fn bounds_are_the_calibrations() {
        let text = include_str!("../CALIBRATION.md");
        let table = text.split("## Bounds").nth(1).expect("a Bounds section");
        let derived: Vec<(String, f64)> = table
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let percent = cells.get(4)?.strip_suffix(" %")?.parse::<f64>().ok()?;
                Some((cells.get(1)?.to_string(), percent / 100.0))
            })
            .collect();
        let committed: Vec<(String, f64)> = Catalog::load()
            .end_to_end
            .iter()
            .map(|d| (d.name.clone(), d.bound.expect("bound")))
            .collect();
        assert_eq!(committed, derived);
    }

    #[test]
    fn per_layer_fills_untouched_layers_with_zero() {
        let c = Catalog::load();
        let mut out = Outcome::default();
        out.layer("core.sim.retries", 3.0);
        let all = c.per_layer(&out);
        assert_eq!(all.len(), c.per_layer.len());
        assert_eq!(all.iter().filter(|m| m.1 != 0.0).count(), 1);
    }
}
