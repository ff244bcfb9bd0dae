//! `serve_mixed`: an open loop of Poisson arrivals into a default
//! `GemmServer` on a 4×4 grid.

use crate::gate::{check_product, corrupt, Operands};
use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{best_tail, median, tail};
use hsumma_matrix::GridShape;
use hsumma_serve::{GemmServer, JobError, JobSpec, ServerConfig, ServerStats, SubmitError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The serving grid: p = 16 rank threads.
pub const GRID: GridShape = GridShape { rows: 4, cols: 4 };
/// Fixed arrival rate, well below saturation.
pub const RATE: f64 = 25.0;
/// A run submits at least this many jobs, so p99 has ten samples
/// beyond it.
pub const MIN_JOBS: usize = 1000;
/// Distinct operand pairs per job class.
const POOL: usize = 4;

/// One job class of the mix.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    pub name: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub deadline: Option<Duration>,
    /// Share of arrivals.
    pub share: f64,
}

/// ~70% small square jobs, ~20% larger ones with a loose deadline, ~10%
/// a shape the grid does not tile (COSMA plus redistribution).
pub const CLASSES: [Class; 3] = [
    Class {
        name: "n256",
        m: 256,
        k: 256,
        n: 256,
        deadline: None,
        share: 0.7,
    },
    Class {
        name: "n512",
        m: 512,
        k: 512,
        n: 512,
        deadline: Some(Duration::from_secs(2)),
        share: 0.2,
    },
    Class {
        name: "odd301",
        m: 301,
        k: 499,
        n: 701,
        deadline: None,
        share: 0.1,
    },
];

impl Class {
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    pub fn spec(&self) -> JobSpec {
        let spec = JobSpec::gemm(self.m, self.k, self.n);
        match self.deadline {
            Some(d) => spec.with_deadline(d),
            None => spec,
        }
    }
}

/// One scheduled arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, relative to the start of the loop.
    pub at: Duration,
    pub class: usize,
    pub operands: usize,
}

/// The arrival schedule: a pure function of the seed.
pub fn schedule(seed: u64, jobs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0xa441_5e71);
    let mut t = 0.0;
    (0..jobs)
        .map(|_| {
            t += rng.exp(RATE);
            let u = rng.unit();
            let mut acc = 0.0;
            let class = CLASSES
                .iter()
                .position(|c| {
                    acc += c.share;
                    u < acc
                })
                .unwrap_or(CLASSES.len() - 1);
            Arrival {
                at: Duration::from_secs_f64(t),
                class,
                operands: rng.below(POOL),
            }
        })
        .collect()
}

/// A running server with its operand pool.
pub struct State {
    pub server: GemmServer,
    /// `pool[class][i]`.
    pub pool: Vec<Vec<Operands>>,
}

/// Set-up: spawn the server, generate operands and references, and run
/// one warm-up job per class (which also fills the plan cache).
pub fn setup(seed: u64) -> State {
    let server = GemmServer::new(ServerConfig::new(GRID)).expect("spawn the rank pool");
    let pool: Vec<Vec<Operands>> = CLASSES
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            (0..POOL)
                .map(|i| Operands::generate(c.m, c.k, c.n, seed * 1000 + (ci * POOL + i) as u64))
                .collect()
        })
        .collect();
    for (c, ops) in CLASSES.iter().zip(&pool) {
        let out = server
            .submit(c.spec(), ops[0].a.clone(), ops[0].b.clone())
            .expect("warm-up job admitted")
            .wait()
            .expect("warm-up job completed");
        check_product(out.c.dense(), &ops[0].c_ref).expect("warm-up product is correct");
    }
    State { server, pool }
}

/// What the submitter hands the collector for each arrival.
struct Submitted {
    arrival: Arrival,
    due: Instant,
    submitted: Instant,
    handle: Result<hsumma_serve::JobHandle, SubmitError>,
}

/// One completed job as the collector saw it.
struct Done {
    class: usize,
    finished: Instant,
    latency: f64,
    queue_wait: f64,
    wall: f64,
    ops: u64,
}

pub fn stats_delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        rejected: after.rejected - before.rejected,
        infeasible: after.infeasible - before.infeasible,
        queued: after.queued,
        gangs: after.gangs - before.gangs,
        gang_jobs: after.gang_jobs - before.gang_jobs,
    }
}

/// Runs the open loop: `max(min_jobs, RATE · seconds)` arrivals, one
/// submitter (this thread) and one collector thread that waits on the
/// handles in submission order. Each job is timed from its due time.
pub fn run(
    state: &State,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    spans: &Spans,
    corrupt_one: bool,
) -> Outcome {
    let jobs = min_jobs.max((RATE * seconds).ceil() as usize).max(1);
    let arrivals = schedule(seed, jobs);
    let before = state.server.stats();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut late = Vec::with_capacity(jobs);

    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(state, rx, spans, corrupt_one));
        for (i, arr) in arrivals.iter().enumerate() {
            let c = CLASSES[arr.class];
            let ops = &state.pool[arr.class][arr.operands];
            // The request is built before it is due.
            let (a, b) = (ops.a.clone(), ops.b.clone());
            let due = start + arr.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t = Instant::now();
            late.push(t.saturating_duration_since(due).as_secs_f64());
            let handle = spans.span("serve.submit", None, i as u64, |_| {
                state.server.submit(c.spec(), a, b)
            });
            let msg = Submitted {
                arrival: *arr,
                due,
                submitted: Instant::now(),
                handle,
            };
            tx.send(msg).expect("collector is alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (done, mut out) = collected;
    let stats = stats_delta(state.server.stats(), before);
    out.attempted = jobs as u64;

    let lat_ms: Vec<f64> = done.iter().map(|d| d.latency * 1e3).collect();
    let first_due = start + arrivals[0].at;
    let wall = done
        .iter()
        .map(|d| d.finished.duration_since(first_due).as_secs_f64())
        .fold(1e-9, f64::max);
    let flops: f64 = done.iter().map(|d| CLASSES[d.class].flops()).sum();
    let msgs: f64 = done.iter().map(|d| d.ops as f64).sum();
    if !lat_ms.is_empty() {
        out.latency_p50_ms = median(&lat_ms);
        out.latency_p99_ms = match tail(&lat_ms, 0.99) {
            Some(v) => v,
            None => {
                let (v, q) = best_tail(&lat_ms, 0.99);
                out.param("latency_p99_ms_quantile", format!("{q}"));
                v
            }
        };
    }
    out.gflops = flops / wall / 1e9;
    out.mops_s = msgs / wall / 1e6;

    let late_ms: Vec<f64> = late.iter().map(|s| s * 1e3).collect();
    let walls: Vec<f64> = done.iter().map(|d| d.wall * 1e3).collect();
    let waits: Vec<f64> = done.iter().map(|d| d.queue_wait * 1e3).collect();
    if !done.is_empty() {
        out.param("service_ms_p50", format!("{:.3}", median(&walls)));
        out.param("queue_wait_ms_p50", format!("{:.3}", median(&waits)));
        out.param("gen_late_ms_p50", format!("{:.3}", median(&late_ms)));
    }
    out.param("jobs", jobs.to_string());
    out.param("completed", done.len().to_string());
    out.param("rate_jobs_s", format!("{RATE}"));
    out.param("grid", format!("\"{}x{}\"", GRID.rows, GRID.cols));
    out.param(
        "mix",
        "\"70% n256, 20% n512 (deadline 2 s), 10% 301x499x701\"".to_string(),
    );
    out.param("latency_item", "\"one job, from its due time\"".to_string());

    let n256: Vec<f64> = done
        .iter()
        .filter(|d| d.class == 0)
        .map(|d| d.wall * 1e3)
        .collect();
    if !n256.is_empty() {
        out.service = Some((CLASSES[0].name, median(&n256)));
    }
    if spans.enabled() && !done.is_empty() {
        let submit_us: Vec<f64> = spans.secs("serve.submit").iter().map(|s| s * 1e6).collect();
        let (qw99, q) = best_tail(&waits, 0.99);
        let (gl99, gq) = best_tail(&late_ms, 0.99);
        out.param("serve.queue_wait_ms_p99_quantile", format!("{q}"));
        out.param("bench.gen_late_p99_ms_quantile", format!("{gq}"));
        out.layer.extend(serve_layer(
            &stats,
            &state.server,
            median(&submit_us),
            (median(&waits), qw99),
            median(&walls),
            out.deadline_misses,
            gl99,
        ));
    }
    out
}

/// The collector: waits on each handle in submission order, times the
/// completion, and checks the product.
fn collect(
    state: &State,
    rx: mpsc::Receiver<Submitted>,
    spans: &Spans,
    corrupt_one: bool,
) -> (Vec<Done>, Outcome) {
    let mut done = Vec::new();
    let mut out = Outcome::new(0);
    let mut corrupted = !corrupt_one;
    for (i, s) in rx.into_iter().enumerate() {
        let class = CLASSES[s.arrival.class];
        let handle = match s.handle {
            Ok(h) => h,
            Err(_) => {
                out.failed += 1;
                continue;
            }
        };
        let result = handle.wait();
        let finished = Instant::now();
        spans.record_interval("serve.job", None, i as u64, s.due, finished);
        match result {
            Ok(job) => {
                let latency = finished.duration_since(s.due).as_secs_f64();
                let since_submit = finished.duration_since(s.submitted).as_secs_f64();
                let wall = job.report.wall.as_secs_f64();
                let mut c = job.c.dense().clone();
                if !corrupted {
                    corrupt(&mut c);
                    corrupted = true;
                }
                let ops = &state.pool[s.arrival.class][s.arrival.operands];
                if let Err(e) = check_product(&c, &ops.c_ref) {
                    out.wrong += 1;
                    out.failed += 1;
                    out.failures
                        .push(format!("serve job {i} ({}): {e}", class.name));
                    continue;
                }
                if class
                    .deadline
                    .is_some_and(|d| since_submit > d.as_secs_f64())
                {
                    out.failed += 1;
                    out.deadline_misses += 1;
                    continue;
                }
                let merged = job.report.merged_stats();
                done.push(Done {
                    class: s.arrival.class,
                    finished,
                    latency,
                    queue_wait: (since_submit - wall).max(0.0),
                    wall,
                    ops: merged.msgs_sent + merged.msgs_recv,
                });
            }
            Err(e) => {
                out.failed += 1;
                if class.deadline.is_some() && matches!(e, JobError::Timeout { .. }) {
                    out.deadline_misses += 1;
                }
            }
        }
    }
    (done, out)
}

/// The `serve.*` layer metrics and submitter lateness.
pub fn serve_layer(
    stats: &ServerStats,
    server: &GemmServer,
    submit_us_p50: f64,
    (wait_p50, wait_p99): (f64, f64),
    service_p50: f64,
    misses: u64,
    gen_late_p99: f64,
) -> Vec<Metric> {
    let share = if stats.submitted == 0 {
        0.0
    } else {
        stats.gang_jobs as f64 / stats.submitted as f64
    };
    vec![
        Metric::new("serve.submit_us_p50", submit_us_p50, "us"),
        Metric::new("serve.queue_wait_ms_p50", wait_p50, "ms"),
        Metric::new("serve.queue_wait_ms_p99", wait_p99, "ms"),
        Metric::new("serve.service_ms_p50", service_p50, "ms"),
        Metric::new("serve.gang_share", share, "ratio"),
        Metric::new("serve.rejected", stats.rejected as f64, "count"),
        Metric::new("serve.infeasible", stats.infeasible as f64, "count"),
        Metric::new("serve.deadline_misses", misses as f64, "count"),
        Metric::new(
            "serve.calibration_ratio",
            server.calibration_ratio(),
            "ratio",
        ),
        Metric::new("bench.gen_late_p99_ms", gen_late_p99, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_are_a_pure_function_of_the_seed() {
        assert_eq!(schedule(7, 2000), schedule(7, 2000));
        assert_ne!(schedule(7, 2000), schedule(8, 2000));
        let s = schedule(11, 4000);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        let share = |c: usize| s.iter().filter(|a| a.class == c).count() as f64 / s.len() as f64;
        assert!((share(0) - 0.7).abs() < 0.03);
        assert!((share(1) - 0.2).abs() < 0.03);
        assert!((share(2) - 0.1).abs() < 0.03);
        let rate = s.len() as f64 / s.last().expect("non-empty").at.as_secs_f64();
        assert!((rate / RATE - 1.0).abs() < 0.05, "rate {rate}");
        assert!(s.iter().all(|a| a.operands < POOL));
    }

    #[test]
    fn the_odd_class_is_not_tiled_by_the_grid() {
        let c = CLASSES[2];
        assert!(
            !c.m.is_multiple_of(GRID.rows)
                || !c.n.is_multiple_of(GRID.cols)
                || !c.k.is_multiple_of(GRID.rows)
        );
    }
}
