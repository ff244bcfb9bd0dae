//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hsumma_batch --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {...}}`,
//! with the end-to-end metrics when `--trace 0` and the per-layer
//! metrics when `--trace 1`. A wrong product, or a bad argument, exits
//! non-zero without a result line.

mod batch;
mod gate;
mod layers;
mod report;
mod rng;
mod serve;
mod sim;
mod spans;
mod stats;

use report::{check_complete, layer_registry, result_line, Metric, Outcome, END_TO_END};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeMixed,
    HsummaBatch,
    SimReplay,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve_mixed" => Some(Workload::ServeMixed),
            "hsumma_batch" => Some(Workload::HsummaBatch),
            "sim_replay" => Some(Workload::SimReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve_mixed",
            Workload::HsummaBatch => "hsumma_batch",
            Workload::SimReplay => "sim_replay",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Test hook: corrupt one product so the correctness gate must fail.
    corrupt_one: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt_one = false;
    while let Some(flag) = it.next() {
        if flag == "--corrupt-one" {
            corrupt_one = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_one,
    })
}

/// Runs `f` [`SETUPS`] times, dropping each previous result first, and
/// returns the median set-up time with the last result. The first set-up
/// is timed from the start of the program.
fn timed_setups<T>(program_start: Instant, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t0 = if i == 0 {
            program_start
        } else {
            Instant::now()
        };
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn header(args: &Args) -> String {
    let serve_p = serve::GRID.size();
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(n, on)| on.then_some(n))
    .collect();
    format!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"serve_p\": {serve_p}, \"oversubscription\": {}, \
         \"target_cpu\": \"{}\", \"target_features\": \"{}\", \"git_rev\": \"{}\", \
         \"setups\": {SETUPS}, \"rel_tol\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        serve_p as f64 / nproc() as f64,
        env!("PERFBENCH_TARGET_CPU"),
        features.join(","),
        env!("PERFBENCH_GIT_REV"),
        gate::REL_TOL
    )
}

/// The workload's state after set-up.
enum State {
    Serve(serve::State),
    Batch(batch::State),
    Sim(hsumma_core::CosmaConfig),
}

fn setup(w: Workload, seed: u64) -> State {
    match w {
        Workload::ServeMixed => State::Serve(serve::setup(seed)),
        Workload::HsummaBatch => State::Batch(batch::setup(seed)),
        Workload::SimReplay => State::Sim(sim::setup()),
    }
}

fn run_workload(
    state: &State,
    args: &Args,
    seconds: f64,
    min_jobs: usize,
    spans: &Spans,
) -> Outcome {
    match state {
        State::Serve(s) => serve::run(s, args.seed, seconds, min_jobs, spans, args.corrupt_one),
        State::Batch(s) => batch::run(s, args.seed, seconds, spans, args.corrupt_one),
        State::Sim(cfg) => sim::run(args.seed, seconds, cfg, spans, args.corrupt_one),
    }
}

/// The headline number the trace overhead is measured on, oriented so
/// that larger is slower.
fn cost(w: Workload, o: &Outcome) -> f64 {
    match w {
        Workload::SimReplay => 1.0 / o.mops_s,
        _ => o.latency_p50_ms,
    }
}

/// Runs the benchmark; `Err` carries the reason for a failed run.
fn run(args: &Args, program_start: Instant) -> Result<(u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let (setup_s, state) = timed_setups(program_start, || setup(w, args.seed));

    if !args.trace {
        let out = run_workload(
            &state,
            args,
            args.seconds,
            serve::MIN_JOBS,
            &Spans::new(false),
        );
        print_params(&out);
        gate_failures(&out)?;
        let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("latency_p50_ms", out.latency_p50_ms, "ms"),
            Metric::new("latency_p99_ms", out.latency_p99_ms, "ms"),
            Metric::new("ok_frac", ok_frac, "ratio"),
            Metric::new("gflops", out.gflops, "GFLOP/s"),
            Metric::new("sim_mops_s", out.mops_s, "Mops/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        let expected: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        check_complete(&metrics, &expected)?;
        if let Some(m) = metrics.iter().find(|m| m.value <= 0.0) {
            return Err(format!(
                "{} read {}: no operation completed",
                m.name, m.value
            ));
        }
        return Ok((out.attempted, out.failed, metrics));
    }

    // Traced run: an untraced comparison phase of half the length, the
    // traced workload, then the layer probes.
    let untraced = run_workload(
        &state,
        args,
        args.seconds / 2.0,
        serve::MIN_JOBS / 2,
        &Spans::new(false),
    );
    let spans = Spans::new(true);
    let mut out = run_workload(&state, args, args.seconds, serve::MIN_JOBS, &spans);
    let overhead = (cost(w, &out) / cost(w, &untraced) - 1.0) * 100.0;
    out.absorb_counts(&untraced);

    let mut metrics = std::mem::take(&mut out.layer);
    metrics.extend(layers::matrix(&spans));
    metrics.extend(layers::runtime(&spans));
    let (core, times) = layers::core(&spans, args.seed, &mut out);
    metrics.extend(core);
    metrics.extend(layers::model_and_planner(&spans, &times));
    match w {
        Workload::SimReplay => {
            // No server in this workload: a short open-loop probe of the
            // serve_mixed mix supplies the serve.* numbers.
            let probe_state = serve::setup(args.seed);
            let probe = serve::run(&probe_state, args.seed, 3.0, 0, &spans, false);
            metrics.extend(probe.layer.iter().cloned());
            // Only the layer metrics' quantile notes: the probe's own
            // end-to-end numbers are not reported.
            let quantiles = probe.params.iter().filter(|(k, _)| {
                k.ends_with("_quantile") && (k.starts_with("serve.") || k.starts_with("bench."))
            });
            out.params.extend(quantiles.cloned());
            out.service = probe.service;
            out.absorb_counts(&probe);
        }
        _ => {
            let cfg = sim::cosma_config();
            let platform = hsumma_netsim::Platform::bluegene_p();
            let runs: Vec<sim::CaseRun> = sim::CASES
                .iter()
                .enumerate()
                .map(|(i, c)| sim::run_case(*c, &cfg, &platform, &spans, i as u64))
                .collect();
            let bad = sim::check_round(&runs, &cfg);
            out.attempted += runs.len() as u64;
            out.wrong += bad.len() as u64;
            out.failed += bad.len() as u64;
            out.failures.extend(bad);
            metrics.extend(sim::case_layer_metrics(&runs));
        }
    }
    print_params(&out);
    let (plan, shape) = match out.service {
        Some(("n1024", _)) => ("batch_auto", "n1024"),
        _ => ("serve_n256", "n256"),
    };
    let service_ms = out.service.map_or(0.0, |(_, ms)| ms);
    metrics.push(Metric::new(
        "serve.overhead_ms",
        service_ms - times.in_wall(plan, shape) * 1e3,
        "ms",
    ));
    metrics.push(Metric::new("bench.trace_overhead_pct", overhead, "%"));
    gate_failures(&out)?;

    let registry = layer_registry();
    let expected: Vec<(String, &str)> = registry.iter().map(|(n, u, _)| (n.clone(), *u)).collect();
    check_complete(&metrics, &expected)?;
    // Report in registry order; the labels go on a line of their own.
    metrics.sort_by_key(|m| registry.iter().position(|(n, _, _)| *n == m.name));
    let labels: Vec<String> = registry
        .iter()
        .map(|(n, _, moves)| format!("\"{n}\": \"{moves}\""))
        .collect();
    println!("{{\"layer_moves\": {{{}}}}}", labels.join(", "));
    write_spans(&spans, w);
    Ok((out.attempted, out.failed, metrics))
}

/// Prints the run's workload parameters as one JSON line.
fn print_params(out: &Outcome) {
    let kv: Vec<String> = out
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"run\": {{{}}}}}", kv.join(", "));
}

/// Any wrong product fails the run.
fn gate_failures(out: &Outcome) -> Result<(), String> {
    if out.wrong == 0 {
        return Ok(());
    }
    Err(format!(
        "{} result(s) failed the correctness gate: {}",
        out.wrong,
        out.failures.join("; ")
    ))
}

/// Writes the traced run's spans (Chrome trace format) into the
/// benchmark's `out/` directory and a per-name summary to stderr.
fn write_spans(spans: &Spans, w: Workload) {
    for (name, (count, total)) in spans.summary() {
        eprintln!("span {name}: {count} x, {total:.6} s");
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}.json", w.name());
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.chrome_json()))
    {
        eprintln!("could not write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let program_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_mixed|hsumma_batch|sim_replay \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&args));
    match run(&args, program_start) {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "sim_replay",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::SimReplay);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.corrupt_one),
            (3, 10.0, true, false)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "serve_mixed", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
