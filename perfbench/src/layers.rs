//! Layer probes for the traced run: each times public calls of one
//! workspace module from outside, inside a harness span.

use crate::batch;
use crate::gate::{check_product, Operands};
use crate::report::{Metric, Outcome, BATCH_PLANS, SERVE_SHAPES};
use crate::serve::{self, GRID};
use crate::spans::Spans;
use crate::stats::median;
use hsumma_core::{run_planned_gemm, Distribution, PlannedAlgo};
use hsumma_matrix::{gemm, seeded_uniform, GemmKernel, Matrix};
use hsumma_model::{advise_gemm, BcastModel, ModelParams};
use hsumma_runtime::collectives::{barrier, bcast_f64};
use hsumma_runtime::{BcastAlgorithm, CommError, RankPool};
use hsumma_serve::{PlanHint, Planner, PlannerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median seconds of the spans named `name`.
fn med(spans: &Spans, name: &str) -> f64 {
    median(&spans.secs(name))
}

/// Repeats `f` until `budget` has passed (at least `min` times).
fn repeat(min: usize, budget: Duration, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || t0.elapsed() < budget {
        f();
        i += 1;
    }
}

/// `matrix`: packed-kernel GFLOP/s at the local tile shapes the jobs use
/// (n = 1024 on 4×4 with b = 64; n = 256 on 4×4 with b = 32).
pub fn matrix(spans: &Spans) -> Vec<Metric> {
    [("b64", 256, 64, 256), ("b32", 64, 32, 64)]
        .into_iter()
        .map(|(tag, m, k, n)| {
            let a = seeded_uniform(m, k, 1);
            let b = seeded_uniform(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            let name = format!("matrix.gemm.{tag}");
            repeat(20, Duration::from_millis(300), || {
                spans.span(&name, None, 0, |_| {
                    gemm(GemmKernel::Packed, std::hint::black_box(&a), &b, &mut c)
                })
            });
            std::hint::black_box(&c);
            let flops = 2.0 * (m * k * n) as f64;
            Metric::new(
                format!("matrix.tile_gflops_{tag}"),
                flops / med(spans, &name) / 1e9,
                "GFLOP/s",
            )
        })
        .collect()
}

/// The runtime's Hockney fit from a two-rank ping-pong.
pub struct Fit {
    /// Latency, seconds.
    pub alpha: f64,
    /// Seconds per byte.
    pub beta: f64,
}

const TAG: u64 = 7;

/// Half a round trip of `elems` f64s between two pool ranks. Each hop
/// materializes a fresh buffer and the receiver copies it out, as a
/// broadcast relay's root and leaves do.
fn ping_pong(pool: &mut RankPool, elems: usize, reps: usize) -> f64 {
    let run = pool
        .run(move |comm| -> Result<f64, CommError> {
            let mut buf = vec![1.0f64; elems];
            let peer = 1 - comm.rank();
            let t0 = Instant::now();
            for _ in 0..reps {
                if comm.rank() == 0 {
                    comm.send(peer, TAG, buf.to_vec())?;
                    let back: Vec<f64> = comm.recv(peer, TAG)?;
                    buf.copy_from_slice(&back);
                } else {
                    let v: Vec<f64> = comm.recv(peer, TAG)?;
                    buf.copy_from_slice(&v);
                    comm.send(peer, TAG, buf.to_vec())?;
                }
            }
            Ok(t0.elapsed().as_secs_f64() / (2 * reps) as f64)
        })
        .expect("ping-pong job");
    run.results[0].clone().expect("ping-pong completed")
}

/// Fits `t = α + β·bytes` by least squares on relative residuals
/// (weights 1/t²), so the small messages that fix α count as much as the
/// large ones that fix β.
pub fn hockney_fit(pts: &[(f64, f64)]) -> Fit {
    let (mut sw, mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y) in pts {
        let w = 1.0 / (y * y);
        sw += w;
        sx += w * x;
        sy += w * y;
        sxx += w * x * x;
        sxy += w * x * y;
    }
    let det = sw * sxx - sx * sx;
    let beta = ((sw * sxy - sx * sy) / det).max(1e-15);
    let alpha = ((sy - beta * sx) / sw).max(1e-9);
    Fit { alpha, beta }
}

/// `runtime`: α/β fit, a broadcast against its Hockney price, and the
/// cost of dispatching an empty job to a 16-rank pool.
pub fn runtime(spans: &Spans) -> Vec<Metric> {
    let mut pair = RankPool::new(2).expect("spawn a two-rank pool");
    let sizes = [1usize, 1024, 16_384, 131_072];
    let pts: Vec<(f64, f64)> = sizes
        .iter()
        .map(|&e| {
            let name = format!("runtime.pingpong.{e}");
            let reps = if e > 10_000 { 20 } else { 200 };
            let per: Vec<f64> = (0..7)
                .map(|_| spans.span(&name, None, 0, |_| ping_pong(&mut pair, e, reps)))
                .collect();
            ((e * 8) as f64, median(&per))
        })
        .collect();
    drop(pair);
    let fit = hockney_fit(&pts);

    let mut pool = RankPool::new(GRID.size()).expect("spawn a 16-rank pool");
    // A 256 × 64 panel over one 4-rank row communicator of the 4×4 grid.
    let elems = 256 * 64;
    let reps = 50;
    let per_bcast: Vec<f64> = (0..7)
        .map(|_| {
            spans.span("runtime.bcast_row", None, 0, |_| {
                let run = pool
                    .run(move |comm| -> Result<f64, CommError> {
                        let cols = GRID.cols;
                        let row =
                            comm.split((comm.rank() / cols) as u64, (comm.rank() % cols) as i64)?;
                        if comm.rank() / cols != 0 {
                            return Ok(0.0);
                        }
                        let mut buf = vec![0.5f64; elems];
                        barrier(&row)?;
                        let t0 = Instant::now();
                        for _ in 0..reps {
                            bcast_f64(&row, BcastAlgorithm::Binomial, 0, &mut buf)?;
                        }
                        barrier(&row)?;
                        Ok(t0.elapsed().as_secs_f64() / reps as f64)
                    })
                    .expect("broadcast job");
                run.results[0].clone().expect("broadcast completed")
            })
        })
        .collect();
    let bcast = median(&per_bcast);
    let hops = (GRID.cols as f64).log2().ceil();
    let hockney = hops * (fit.alpha + fit.beta * (elems * 8) as f64);

    repeat(200, Duration::from_millis(200), || {
        spans.span("runtime.pool_run", None, 0, |_| {
            pool.run(|_| ()).expect("empty job");
        })
    });
    vec![
        Metric::new("runtime.alpha_us", fit.alpha * 1e6, "us"),
        Metric::new("runtime.beta_gbs", 1.0 / fit.beta / 1e9, "GB/s"),
        Metric::new("runtime.bcast_us", bcast * 1e6, "us"),
        Metric::new("runtime.bcast_over_hockney", bcast / hockney, "ratio"),
        Metric::new(
            "runtime.pool_run_us",
            med(spans, "runtime.pool_run") * 1e6,
            "us",
        ),
    ]
}

/// One job shape of the core probe.
struct Job {
    /// Metric suffix: `batch_<plan>` or `serve_<shape>`.
    plan: String,
    /// Scatter/gather metric suffix.
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    hint: PlanHint,
    reps: usize,
}

fn jobs() -> Vec<Job> {
    let mut v: Vec<Job> = batch::plans()
        .iter()
        .zip(BATCH_PLANS)
        .map(|(p, name)| Job {
            plan: format!("batch_{name}"),
            shape: if p.m == 1024 { "n1024" } else { "odd1003" },
            m: p.m,
            k: p.k,
            n: p.n,
            hint: p.hint,
            reps: 3,
        })
        .collect();
    v.extend(
        serve::CLASSES
            .iter()
            .zip(SERVE_SHAPES)
            .map(|(c, name)| Job {
                plan: format!("serve_{name}"),
                shape: c.name,
                m: c.m,
                k: c.k,
                n: c.n,
                hint: PlanHint::Auto,
                reps: 10,
            }),
    );
    v
}

/// Median SPMD seconds per job plan and scatter seconds per shape, for
/// the metrics derived from them.
pub struct CoreTimes {
    pub spmd: Vec<(String, f64)>,
    pub scatter: Vec<(&'static str, f64)>,
}

impl CoreTimes {
    pub fn spmd(&self, plan: &str) -> f64 {
        self.spmd
            .iter()
            .find(|(p, _)| p == plan)
            .map_or(0.0, |(_, s)| *s)
    }

    /// The part of a job's `JobReport.wall` the core layer accounts for:
    /// scatter plus the pooled run. The wall closes before the gather.
    pub fn in_wall(&self, plan: &str, shape: &str) -> f64 {
        let scatter = self.scatter.iter().find(|(s, _)| *s == shape);
        self.spmd(plan) + scatter.map_or(0.0, |(_, s)| *s)
    }
}

/// `core`: `RankPool::run` + `run_planned_gemm` with the server's tiles
/// and plan for every workload job, and the scatter/gather around it.
/// Products are checked like served ones.
pub fn core(spans: &Spans, seed: u64, out: &mut Outcome) -> (Vec<Metric>, CoreTimes) {
    let mut pool = RankPool::new(GRID.size()).expect("spawn a 16-rank pool");
    let mut planner = Planner::new(GRID, PlannerConfig::default());
    let mut metrics = Vec::new();
    let mut times = CoreTimes {
        spmd: Vec::new(),
        scatter: Vec::new(),
    };
    for (ji, job) in jobs().into_iter().enumerate() {
        let (m, k, n) = (job.m, job.k, job.n);
        let plan: PlannedAlgo = match job.hint {
            PlanHint::Auto => planner.plan_gemm(m, k, n).plan,
            PlanHint::Force(p) => p,
        };
        let ops = Operands::generate(m, k, n, seed * 1000 + 900 + ji as u64);
        let mut counts = (0u64, 0u64);
        for rep in 0..job.reps {
            let (at, bt) = spans.span(&format!("core.scatter.{}", job.shape), None, 0, |_| {
                (
                    Distribution::grid2d(GRID, m, k).scatter(&ops.a),
                    Distribution::grid2d(GRID, k, n).scatter(&ops.b),
                )
            });
            let (at, bt) = (Arc::new(at), Arc::new(bt));
            let run = spans.span(&format!("core.spmd.{}", job.plan), None, 0, |_| {
                pool.run(move |comm| {
                    let (a, b) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
                    run_planned_gemm(comm, GRID, m, n, k, &a, &b, &plan)
                })
                .expect("planned job")
            });
            let tiles: Vec<Matrix> = run
                .results
                .into_iter()
                .map(|r| r.expect("rank completed"))
                .collect();
            let c = spans.span(&format!("core.gather.{}", job.shape), None, 0, |_| {
                Distribution::grid2d(GRID, m, n).gather(&tiles)
            });
            out.attempted += 1;
            if let Err(e) = check_product(&c, &ops.c_ref) {
                out.wrong += 1;
                out.failed += 1;
                out.failures.push(format!("core probe {}: {e}", job.plan));
            }
            let msgs = run.stats.iter().map(|s| s.msgs_sent).sum();
            let bytes = run.stats.iter().map(|s| s.bytes_sent).sum();
            if rep > 0 && (msgs, bytes) != counts {
                out.failures
                    .push(format!("core probe {}: counts vary", job.plan));
                out.wrong += 1;
                out.failed += 1;
            }
            counts = (msgs, bytes);
        }
        let spmd = med(spans, &format!("core.spmd.{}", job.plan));
        metrics.push(Metric::new(
            format!("core.spmd_ms.{}", job.plan),
            spmd * 1e3,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("core.msgs_per_job.{}", job.plan),
            counts.0 as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("core.bytes_per_job.{}", job.plan),
            counts.1 as f64,
            "B",
        ));
        times.spmd.push((job.plan.clone(), spmd));
    }
    for shape in crate::report::SHAPES {
        let sc = med(spans, &format!("core.scatter.{shape}"));
        let ga = med(spans, &format!("core.gather.{shape}"));
        metrics.push(Metric::new(
            format!("core.scatter_ms.{shape}"),
            sc * 1e3,
            "ms",
        ));
        metrics.push(Metric::new(
            format!("core.gather_ms.{shape}"),
            ga * 1e3,
            "ms",
        ));
        times.scatter.push((shape, sc));
    }
    (metrics, times)
}

/// `model` and the planner half of `serve`: advice, plan and estimate
/// costs per serve_mixed shape, and measured wall over modelled time.
pub fn model_and_planner(spans: &Spans, times: &CoreTimes) -> Vec<Metric> {
    let params = ModelParams::grid5000();
    let p = GRID.size() as f64;
    let mut metrics = Vec::new();
    let (mut cold, mut warm, mut est) = (Vec::new(), Vec::new(), Vec::new());
    for (c, name) in serve::CLASSES.iter().zip(SERVE_SHAPES) {
        let (m, k, n) = (c.m as f64, c.k as f64, c.n as f64);
        let advise = format!("model.advise.{name}");
        repeat(50, Duration::from_millis(50), || {
            spans.span(&advise, None, 0, |_| {
                std::hint::black_box(advise_gemm(&params, BcastModel::Binomial, m, n, k, p, 32.0))
            });
        });
        metrics.push(Metric::new(
            format!("model.advise_us.{name}"),
            med(spans, &advise) * 1e6,
            "us",
        ));
        let model_secs = Planner::new(GRID, PlannerConfig::default())
            .estimate(c.m, c.k, c.n)
            .model_secs;
        let spmd = times.spmd(&format!("serve_{name}"));
        metrics.push(Metric::new(
            format!("model.wall_over_model.{name}"),
            spmd / model_secs,
            "ratio",
        ));
        for _ in 0..5 {
            let mut planner = Planner::new(GRID, PlannerConfig::default());
            let cold_name = format!("serve.plan_cold.{name}");
            let warm_name = format!("serve.plan_warm.{name}");
            let est_name = format!("serve.estimate.{name}");
            spans.span(&cold_name, None, 0, |_| planner.plan_gemm(c.m, c.k, c.n));
            spans.span(&warm_name, None, 0, |_| planner.plan_gemm(c.m, c.k, c.n));
            let mut fresh = Planner::new(GRID, PlannerConfig::default());
            spans.span(&est_name, None, 0, |_| fresh.estimate(c.m, c.k, c.n));
        }
        cold.push(med(spans, &format!("serve.plan_cold.{name}")));
        warm.push(med(spans, &format!("serve.plan_warm.{name}")));
        est.push(med(spans, &format!("serve.estimate.{name}")));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    metrics.push(Metric::new("serve.plan_cold_us", mean(&cold) * 1e6, "us"));
    metrics.push(Metric::new("serve.plan_warm_us", mean(&warm) * 1e6, "us"));
    metrics.push(Metric::new("serve.estimate_us", mean(&est) * 1e6, "us"));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hockney_fit_recovers_alpha_and_beta() {
        let (alpha, beta) = (5e-6, 2e-10);
        let pts: Vec<(f64, f64)> = [8.0, 8192.0, 131072.0, 1048576.0]
            .iter()
            .map(|&x| (x, alpha + beta * x))
            .collect();
        let fit = hockney_fit(&pts);
        assert!((fit.alpha / alpha - 1.0).abs() < 1e-6);
        assert!((fit.beta / beta - 1.0).abs() < 1e-6);
    }
}
