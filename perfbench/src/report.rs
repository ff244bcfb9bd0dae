//! Metric names, units and the result line.

use crate::sim::CASES;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs submitted (refused ones included) or
    /// cases replayed.
    pub attempted: u64,
    /// Rejected + failed + timed out + deadline missed + wrong result.
    pub failed: u64,
    /// Results that failed the correctness gate (a subset of `failed`).
    pub wrong: u64,
    /// Deadline jobs that failed or finished late (a subset of `failed`).
    pub deadline_misses: u64,
    /// Descriptions of the correctness failures.
    pub failures: Vec<String>,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub gflops: f64,
    pub mops_s: f64,
    /// Workload parameters for the run header, as raw JSON values.
    pub params: Vec<(String, String)>,
    /// Layer metrics observed on the workload's own traced operations.
    pub layer: Vec<Metric>,
    /// Median `JobReport.wall` of the workload's most frequent job class,
    /// with that class's shape name (serve workloads only).
    pub service: Option<(&'static str, f64)>,
}

impl Outcome {
    pub fn new(attempted: u64) -> Self {
        Outcome {
            attempted,
            ..Outcome::default()
        }
    }

    pub fn param(&mut self, key: &str, json_value: String) {
        self.params.push((key.to_string(), json_value));
    }

    /// Folds another run's counts (a comparison phase or a probe) into
    /// this one.
    pub fn absorb_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.deadline_misses += other.deadline_misses;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// The end-to-end metrics, printed on every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "ratio"),
    ("gflops", "GFLOP/s"),
    ("sim_mops_s", "Mops/s"),
    ("peak_rss_mb", "MB"),
];

/// The job plans of `hsumma_batch`.
pub const BATCH_PLANS: [&str; 4] = ["auto", "summa", "hsumma", "cosma"];
/// The job shapes of `serve_mixed`.
pub const SERVE_SHAPES: [&str; 3] = ["n256", "n512", "odd301"];
/// Every shape scattered and gathered by a workload.
pub const SHAPES: [&str; 5] = ["n1024", "odd1003", "n256", "n512", "odd301"];

const HB: &str = "gflops on hsumma_batch";
const SM: &str = "latency_p50_ms on serve_mixed";

/// Every per-layer metric with its unit and the end-to-end metric and
/// workload it should move.
pub fn layer_registry() -> Vec<(String, &'static str, &'static str)> {
    let mut r: Vec<(String, &'static str, &'static str)> = vec![
        ("matrix.tile_gflops_b64".into(), "GFLOP/s", HB),
        ("matrix.tile_gflops_b32".into(), "GFLOP/s", SM),
        ("runtime.alpha_us".into(), "us", SM),
        ("runtime.beta_gbs".into(), "GB/s", HB),
        ("runtime.bcast_us".into(), "us", HB),
        ("runtime.bcast_over_hockney".into(), "ratio", HB),
        ("runtime.pool_run_us".into(), "us", SM),
    ];
    for p in BATCH_PLANS {
        r.push((format!("core.spmd_ms.batch_{p}"), "ms", HB));
    }
    for s in SERVE_SHAPES {
        r.push((format!("core.spmd_ms.serve_{s}"), "ms", SM));
    }
    for s in SHAPES {
        let moves = if s.starts_with("n1024") || s.starts_with("odd1003") {
            HB
        } else {
            SM
        };
        r.push((format!("core.scatter_ms.{s}"), "ms", moves));
        r.push((format!("core.gather_ms.{s}"), "ms", moves));
    }
    let plans = BATCH_PLANS
        .iter()
        .map(|p| format!("batch_{p}"))
        .chain(SERVE_SHAPES.iter().map(|s| format!("serve_{s}")));
    for p in plans {
        r.push((format!("core.msgs_per_job.{p}"), "count", SM));
        r.push((format!("core.bytes_per_job.{p}"), "B", HB));
    }
    for c in CASES {
        let s = "sim_mops_s on sim_replay";
        let rss = "peak_rss_mb on sim_replay";
        r.push((format!("netsim.record_mops_s.{}", c.name), "Mops/s", s));
        r.push((format!("netsim.replay_mops_s.{}", c.name), "Mops/s", s));
        r.push((format!("netsim.ops.{}", c.name), "count", rss));
        r.push((format!("netsim.program_mb.{}", c.name), "MB", rss));
    }
    for s in SERVE_SHAPES {
        r.push((format!("model.advise_us.{s}"), "us", SM));
        r.push((
            format!("model.wall_over_model.{s}"),
            "ratio",
            "ok_frac and latency_p99_ms on serve_mixed",
        ));
    }
    let both = "latency_p50_ms on serve_mixed and hsumma_batch";
    let tail = "latency_p99_ms and ok_frac on serve_mixed";
    r.extend([
        ("serve.submit_us_p50".into(), "us", SM),
        ("serve.queue_wait_ms_p50".into(), "ms", SM),
        (
            "serve.queue_wait_ms_p99".into(),
            "ms",
            "latency_p99_ms on serve_mixed",
        ),
        ("serve.service_ms_p50".into(), "ms", both),
        ("serve.overhead_ms".into(), "ms", both),
        (
            "serve.plan_cold_us".into(),
            "us",
            "setup_s and latency_p50_ms on serve_mixed",
        ),
        ("serve.plan_warm_us".into(), "us", SM),
        ("serve.estimate_us".into(), "us", SM),
        ("serve.gang_share".into(), "ratio", tail),
        ("serve.rejected".into(), "count", tail),
        ("serve.infeasible".into(), "count", tail),
        ("serve.deadline_misses".into(), "count", tail),
        ("serve.calibration_ratio".into(), "ratio", tail),
        ("bench.gen_late_p99_ms".into(), "ms", "validity only"),
        ("bench.trace_overhead_pct".into(), "%", "validity only"),
    ]);
    r
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks that `metrics` are exactly the `expected` names, each once,
/// with the expected unit and a finite value.
pub fn check_complete(metrics: &[Metric], expected: &[(String, &str)]) -> Result<(), String> {
    for (name, unit) in expected {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("{name} [{unit}]: not a valid metric name and unit"));
        }
        let found: Vec<&Metric> = metrics.iter().filter(|m| &m.name == name).collect();
        match found.as_slice() {
            [m] if m.unit == *unit && m.value.is_finite() => {}
            [m] => {
                return Err(format!(
                    "{name}: bad unit or value ({} {})",
                    m.value, m.unit
                ))
            }
            [] => return Err(format!("{name}: not measured")),
            _ => return Err(format!("{name}: measured more than once")),
        }
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !expected.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("{}: not a registered metric", extra.name));
    }
    Ok(())
}

/// The result line: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_unique_and_has_a_unit() {
        let reg = layer_registry();
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(reg.iter().map(|(n, _, _)| n.as_str()));
        for (_, unit) in END_TO_END {
            assert!(valid_unit(unit), "{unit}");
        }
        for (name, unit, moves) in &reg {
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(!moves.is_empty() && !moves.contains('\n'), "{name}");
        }
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
        assert!(reg.len() <= 128);
        assert!(!valid_name("core.spmd ms") && !valid_name(".lead") && !valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entries = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s[..s.find('"').expect("name ends")].to_string();
                    let u = &s[s.find("\"unit\": \"").expect("unit") + 9..];
                    (name, u[..u.find('"').expect("unit ends")].to_string())
                })
                .collect()
        };
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(entries("end_to_end"), want_e2e);
        let want_layer: Vec<(String, String)> = layer_registry()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(entries("per_layer"), want_layer);
    }

    #[test]
    fn completeness_check_catches_gaps_and_strays() {
        let expected = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let ok = vec![Metric::new("a", 1.0, "ms"), Metric::new("b", 2.0, "s")];
        assert!(check_complete(&ok, &expected).is_ok());
        assert!(check_complete(&ok[..1], &expected).is_err());
        let mut stray = ok.clone();
        stray.push(Metric::new("c", 1.0, "ms"));
        assert!(check_complete(&stray, &expected).is_err());
        let nan = vec![Metric::new("a", f64::NAN, "ms"), Metric::new("b", 2.0, "s")];
        assert!(check_complete(&nan, &expected).is_err());
    }
}
