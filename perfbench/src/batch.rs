//! `hsumma_batch`: one client sends n = 1024 jobs back to back to a 4×4
//! server, cycling through four plans.

use crate::gate::{check_product, corrupt, Operands};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::serve::{serve_layer, GRID};
use crate::spans::Spans;
use crate::stats::{best_tail, median};
use hsumma_core::{HsummaConfig, PlannedAlgo, SummaConfig};
use hsumma_matrix::GridShape;
use hsumma_serve::{GemmServer, JobSpec, PlanHint, ServerConfig};
use std::time::{Duration, Instant};

/// One plan of the cycle.
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    pub name: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub hint: PlanHint,
}

/// The n = 1024 panel width of the forced SUMMA and HSUMMA plans.
pub const BLOCK: usize = 64;

/// The four plans: the planner's own choice, forced SUMMA, forced
/// HSUMMA (G = 2×2, B = b = 64), and a ~1000³ shape the grid does not
/// tile (COSMA with redistribution).
pub fn plans() -> [BatchPlan; 4] {
    let square = |name, hint| BatchPlan {
        name,
        m: 1024,
        k: 1024,
        n: 1024,
        hint,
    };
    [
        square("auto", PlanHint::Auto),
        square(
            "summa",
            PlanHint::Force(PlannedAlgo::Summa(SummaConfig {
                block: BLOCK,
                ..SummaConfig::default()
            })),
        ),
        square(
            "hsumma",
            PlanHint::Force(PlannedAlgo::Hsumma(HsummaConfig::uniform(
                GridShape::new(2, 2),
                BLOCK,
            ))),
        ),
        BatchPlan {
            name: "cosma",
            m: 1003,
            k: 1001,
            n: 999,
            hint: PlanHint::Auto,
        },
    ]
}

impl BatchPlan {
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    fn spec(&self) -> JobSpec {
        JobSpec::gemm(self.m, self.k, self.n).with_hint(self.hint)
    }

    /// Square plans share the n = 1024 operand pool; the odd shape has
    /// its own.
    fn pool(&self) -> usize {
        usize::from(self.m != 1024)
    }
}

/// Distinct square operand pairs.
const SQUARE_POOL: usize = 2;

/// A running server with its operands.
pub struct State {
    pub server: GemmServer,
    /// `pool[0]`: n = 1024 pairs; `pool[1]`: the odd shape.
    pub pool: [Vec<Operands>; 2],
}

/// Set-up: spawn the server, generate operands and references, and run
/// one warm-up job per plan.
pub fn setup(seed: u64) -> State {
    let server = GemmServer::new(ServerConfig::new(GRID)).expect("spawn the rank pool");
    let odd = plans()[3];
    let pool = [
        (0..SQUARE_POOL)
            .map(|i| Operands::generate(1024, 1024, 1024, seed * 1000 + 500 + i as u64))
            .collect(),
        vec![Operands::generate(odd.m, odd.k, odd.n, seed * 1000 + 600)],
    ];
    let state = State { server, pool };
    for plan in plans() {
        let ops = &state.pool[plan.pool()][0];
        let out = state
            .server
            .submit(plan.spec(), ops.a.clone(), ops.b.clone())
            .expect("warm-up job admitted")
            .wait()
            .expect("warm-up job completed");
        check_product(out.c.dense(), &ops.c_ref).expect("warm-up product is correct");
    }
    state
}

/// Runs whole cycles of the four plans (seed-permuted order, seeded
/// operand choice) until `seconds` have passed, at least one cycle.
pub fn run(state: &State, seed: u64, seconds: f64, spans: &Spans, corrupt_one: bool) -> Outcome {
    let mut rng = Rng::new(seed ^ 0xb47c_0de5);
    let plans = plans();
    let before = state.server.stats();
    let start = Instant::now();
    let mut out = Outcome::new(0);
    // (plan index, latency s, wall s, msgs)
    let mut done: Vec<(usize, f64, f64, u64)> = Vec::new();
    let mut gaps = Vec::new();
    let mut last_done = Instant::now();
    let mut job = 0u64;
    while job == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let mut order: Vec<usize> = (0..plans.len()).collect();
        rng.shuffle(&mut order);
        for pi in order {
            let plan = plans[pi];
            let pool = &state.pool[plan.pool()];
            let ops = &pool[rng.below(pool.len())];
            let (a, b) = (ops.a.clone(), ops.b.clone());
            out.attempted += 1;
            let sent = Instant::now();
            gaps.push(sent.duration_since(last_done).as_secs_f64() * 1e3);
            let submitted = spans.span("serve.submit", None, job, |_| {
                state.server.submit(plan.spec(), a, b)
            });
            let result = submitted
                .map_err(|e| e.to_string())
                .and_then(|h| h.wait().map_err(|e| e.to_string()));
            last_done = Instant::now();
            spans.record_interval("serve.job", None, job, sent, last_done);
            job += 1;
            let output = match result {
                Ok(o) => o,
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            };
            let mut c = output.c.dense().clone();
            if corrupt_one && out.attempted == 1 {
                corrupt(&mut c);
            }
            if let Err(e) = check_product(&c, &ops.c_ref) {
                out.wrong += 1;
                out.failed += 1;
                out.failures
                    .push(format!("batch job {job} ({}): {e}", plan.name));
                continue;
            }
            let stats = output.report.merged_stats();
            done.push((
                pi,
                last_done.duration_since(sent).as_secs_f64(),
                output.report.wall.as_secs_f64(),
                stats.msgs_sent + stats.msgs_recv,
            ));
        }
    }
    let stats = crate::serve::stats_delta(state.server.stats(), before);

    let busy: f64 = done.iter().map(|d| d.1).sum::<f64>().max(1e-9);
    let flops: f64 = done.iter().map(|d| plans[d.0].flops()).sum();
    let msgs: f64 = done.iter().map(|d| d.3 as f64).sum();
    let plan_median = |pi: usize| {
        let v: Vec<f64> = done
            .iter()
            .filter(|d| d.0 == pi)
            .map(|d| d.1 * 1e3)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let medians: Vec<f64> = (0..plans.len()).filter_map(plan_median).collect();
    if !medians.is_empty() {
        // The plans alternate, so the pooled median would fall in the gap
        // between the fast and the slow plans and jump between them; the
        // median of the plan medians does not.
        out.latency_p50_ms = median(&medians);
        // Each plan is a fixed input, so the slowest plan's median is the
        // tail a client of this loop sees; a run is too short for p99.
        out.latency_p99_ms = medians.iter().copied().fold(0.0, f64::max);
    }
    out.gflops = flops / busy / 1e9;
    out.mops_s = msgs / busy / 1e6;
    out.param("jobs", out.attempted.to_string());
    out.param("clients", "1".to_string());
    out.param("grid", format!("\"{}x{}\"", GRID.rows, GRID.cols));
    out.param(
        "plans",
        "\"auto n1024, summa b=64, hsumma G=2x2 B=b=64, cosma 1003x1001x999\"".to_string(),
    );
    out.param(
        "latency_item",
        "\"one job, from its send to its observed completion\"".to_string(),
    );
    for (pi, plan) in plans.iter().enumerate() {
        if let Some(m) = plan_median(pi) {
            out.param(&format!("latency_p50_ms.{}", plan.name), format!("{m}"));
        }
    }
    let auto: Vec<f64> = done
        .iter()
        .filter(|d| d.0 == 0)
        .map(|d| d.2 * 1e3)
        .collect();
    if !auto.is_empty() {
        out.service = Some(("n1024", median(&auto)));
    }
    if spans.enabled() && !done.is_empty() {
        let waits: Vec<f64> = done.iter().map(|d| (d.1 - d.2).max(0.0) * 1e3).collect();
        let walls: Vec<f64> = done.iter().map(|d| d.2 * 1e3).collect();
        let submit_us: Vec<f64> = spans.secs("serve.submit").iter().map(|s| s * 1e6).collect();
        let (qw99, q) = best_tail(&waits, 0.99);
        let (gap99, gq) = best_tail(&gaps, 0.99);
        out.param("serve.queue_wait_ms_p99_quantile", format!("{q}"));
        out.param("bench.gen_late_p99_ms_quantile", format!("{gq}"));
        out.layer.extend(serve_layer(
            &stats,
            &state.server,
            median(&submit_us),
            (median(&waits), qw99),
            median(&walls),
            out.deadline_misses,
            gap99,
        ));
    }
    out
}
