//! `sim_replay`: record each paper-scale case once and replay it on the
//! threadless event-loop simulator with BlueGene/P parameters.

use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::median;
use hsumma_core::simdrive::{record_cosma, record_hsumma};
use hsumma_core::{CosmaConfig, HierGrid};
use hsumma_matrix::GridShape;
use hsumma_model::{cosma_volume, BrickShape};
use hsumma_netsim::{
    EventLoopSim, Op, Platform, RecordedProgram, SimBcast, SimNet, SimReport, SimRunOptions,
};
use std::time::Instant;

/// One recorded-and-replayed schedule.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// COSMA on an `n³` cube over `p` ranks.
    Cosma { p: usize, n: usize },
    /// HSUMMA on a square grid with `g` groups, `B = b`.
    Hsumma {
        grid: GridShape,
        n: usize,
        b: usize,
        g: usize,
        bcast: SimBcast,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub name: &'static str,
    pub schedule: Schedule,
}

/// The paper-reproduction cases (Figs. 8–10). Van de Geijn runs at
/// p = 2¹⁰: its ring allgather records O(p) ops per broadcast, so the
/// p = 2¹⁴ recording outgrows a shared host's memory.
pub const CASES: [Case; 5] = [
    Case {
        name: "cosma_p65536",
        schedule: Schedule::Cosma {
            p: 1 << 16,
            n: 1 << 18,
        },
    },
    Case {
        name: "bin_p16384_g1",
        schedule: Schedule::Hsumma {
            grid: GridShape {
                rows: 128,
                cols: 128,
            },
            n: 8192,
            b: 64,
            g: 1,
            bcast: SimBcast::Binomial,
        },
    },
    Case {
        name: "bin_p16384_g128",
        schedule: Schedule::Hsumma {
            grid: GridShape {
                rows: 128,
                cols: 128,
            },
            n: 8192,
            b: 64,
            g: 128,
            bcast: SimBcast::Binomial,
        },
    },
    Case {
        name: "vdg_p1024_g1",
        schedule: Schedule::Hsumma {
            grid: GridShape { rows: 32, cols: 32 },
            n: 4096,
            b: 64,
            g: 1,
            bcast: SimBcast::ScatterAllgather,
        },
    },
    Case {
        name: "vdg_p1024_g32",
        schedule: Schedule::Hsumma {
            grid: GridShape { rows: 32, cols: 32 },
            n: 4096,
            b: 64,
            g: 32,
            bcast: SimBcast::ScatterAllgather,
        },
    },
];

impl Schedule {
    fn ranks(&self) -> usize {
        match *self {
            Schedule::Cosma { p, .. } => p,
            Schedule::Hsumma { grid, .. } => grid.size(),
        }
    }

    /// Flops of the simulated product.
    fn flops(&self) -> f64 {
        let n = match *self {
            Schedule::Cosma { n, .. } | Schedule::Hsumma { n, .. } => n as f64,
        };
        2.0 * n * n * n
    }

    fn record(&self, cosma: &CosmaConfig) -> RecordedProgram {
        match *self {
            Schedule::Cosma { p, n } => record_cosma(p, n, n, n, cosma),
            Schedule::Hsumma {
                grid,
                n,
                b,
                g,
                bcast,
            } => {
                let groups = HierGrid::factor_groups(grid, g).expect("case G factors the grid");
                record_hsumma(grid, groups, n, b, b, bcast, bcast, false)
            }
        }
    }
}

/// One case's result.
pub struct CaseRun {
    pub case: Case,
    pub ops: usize,
    pub record_s: f64,
    pub replay_s: f64,
    pub report: SimReport,
}

/// Records and replays one case, with a span around each call.
pub fn run_case(
    case: Case,
    cosma: &CosmaConfig,
    platform: &Platform,
    spans: &Spans,
    request: u64,
) -> CaseRun {
    spans.span(
        &format!("netsim.case.{}", case.name),
        None,
        request,
        |parent| {
            let t0 = Instant::now();
            let prog = spans.span(
                &format!("netsim.record.{}", case.name),
                Some(parent),
                request,
                |_| case.schedule.record(cosma),
            );
            let record_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let report = spans.span(
                &format!("netsim.replay.{}", case.name),
                Some(parent),
                request,
                |_| {
                    let net = SimNet::new(case.schedule.ranks(), platform.net);
                    let (_, report) = EventLoopSim::new(net, platform.gamma)
                        .run(&prog, &SimRunOptions::unbounded())
                        .expect_clean();
                    report
                },
            );
            CaseRun {
                case,
                ops: prog.total_ops(),
                record_s,
                replay_s: t1.elapsed().as_secs_f64(),
                report,
            }
        },
    )
}

/// The COSMA configuration every round uses (the brick search is part
/// of set-up, not of the measured record/replay).
pub fn cosma_config() -> CosmaConfig {
    match CASES[0].schedule {
        Schedule::Cosma { p, n } => CosmaConfig::for_problem(p, n, n, n),
        Schedule::Hsumma { .. } => unreachable!("case 0 is the COSMA case"),
    }
}

/// Relative tolerance of the binomial G-identity check: the schedules
/// add the same hop times in different orders, which moves the last few
/// bits of the sum.
pub const IDENTITY_REL_TOL: f64 = 1e-9;

/// The three correctness checks on one round's results. Returns the
/// failed checks' descriptions.
pub fn check_round(runs: &[CaseRun], cosma: &CosmaConfig) -> Vec<String> {
    let by = |name: &str| runs.iter().find(|r| r.case.name == name);
    let mut bad = Vec::new();
    if let (Some(r), Schedule::Cosma { n, .. }) = (by("cosma_p65536"), CASES[0].schedule) {
        let d = cosma.decomp;
        let shape = BrickShape {
            a: d.a,
            b: d.b,
            c: d.c,
        };
        let want = cosma_volume(shape, n as f64, n as f64, n as f64);
        if r.report.bytes as f64 != want {
            bad.push(format!(
                "cosma wire bytes {} != cosma_volume {want}",
                r.report.bytes
            ));
        }
    }
    if let (Some(g1), Some(gq)) = (by("bin_p16384_g1"), by("bin_p16384_g128")) {
        // Equal up to the order the two schedules sum their hop times in.
        let (a, b) = (g1.report.comm_time, gq.report.comm_time);
        if (a - b).abs() > IDENTITY_REL_TOL * a.abs().max(b.abs()) {
            bad.push(format!(
                "binomial comm time G=1 {} != G=128 {} (Table I identity)",
                g1.report.comm_time, gq.report.comm_time
            ));
        }
    }
    if let (Some(g1), Some(g32)) = (by("vdg_p1024_g1"), by("vdg_p1024_g32")) {
        if g32.report.comm_time >= g1.report.comm_time {
            bad.push(format!(
                "van de Geijn comm time G=32 {} not below G=1 {}",
                g32.report.comm_time, g1.report.comm_time
            ));
        }
    }
    bad
}

/// Set-up: the brick search plus a small warm-up replay.
pub fn setup() -> CosmaConfig {
    let cfg = cosma_config();
    let platform = Platform::bluegene_p();
    let warm = Case {
        name: "warmup",
        schedule: Schedule::Hsumma {
            grid: GridShape::new(32, 32),
            n: 2048,
            b: 64,
            g: 4,
            bcast: SimBcast::Binomial,
        },
    };
    let _ = run_case(warm, &cfg, &platform, &Spans::new(false), 0);
    cfg
}

/// Runs whole rounds of the five cases, in a seed-permuted order, while
/// the next round is expected to end within `seconds` (at least one
/// round).
pub fn run(seed: u64, seconds: f64, cosma: &CosmaConfig, spans: &Spans, corrupt: bool) -> Outcome {
    let platform = Platform::bluegene_p();
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    let mut all: Vec<CaseRun> = Vec::new();
    let mut failures = Vec::new();
    let mut rounds = 0usize;
    let mut request = 0u64;
    let mut round_s = 0.0f64;
    // Start another round only if it is expected to end in time.
    while rounds == 0 || start.elapsed().as_secs_f64() + round_s <= seconds {
        let t0 = Instant::now();
        let mut order = CASES.to_vec();
        rng.shuffle(&mut order);
        let mut round: Vec<CaseRun> = order
            .into_iter()
            .map(|case| {
                request += 1;
                run_case(case, cosma, &platform, spans, request)
            })
            .collect();
        if corrupt && rounds == 0 {
            if let Some(r) = round
                .iter_mut()
                .find(|r| matches!(r.case.schedule, Schedule::Cosma { .. }))
            {
                r.report.bytes += 8;
            }
        }
        failures.extend(check_round(&round, cosma));
        all.extend(round);
        rounds += 1;
        round_s = t0.elapsed().as_secs_f64();
    }

    let ops: f64 = all.iter().map(|r| r.ops as f64).sum();
    let wall: f64 = all.iter().map(|r| r.record_s + r.replay_s).sum();
    let flops: f64 = all.iter().map(|r| r.case.schedule.flops()).sum();
    let per_case: Vec<(&str, f64)> = CASES
        .iter()
        .map(|c| {
            let v: Vec<f64> = all
                .iter()
                .filter(|r| r.case.name == c.name)
                .map(|r| (r.record_s + r.replay_s) * 1e3)
                .collect();
            (c.name, median(&v))
        })
        .collect();
    let slowest = per_case.iter().map(|c| c.1).fold(0.0f64, f64::max);

    let mut out = Outcome::new(all.len() as u64);
    out.wrong = failures.len() as u64;
    out.failed = out.wrong;
    out.failures = failures;
    out.latency_p50_ms = median(&per_case.iter().map(|c| c.1).collect::<Vec<_>>());
    // The slowest case's median: each case is a fixed input, so its
    // spread across rounds is host noise and the case median is the tail
    // a user of the simulator waits for.
    out.latency_p99_ms = slowest;
    out.gflops = flops / wall / 1e9;
    out.mops_s = ops / wall / 1e6;
    out.param("rounds", rounds.to_string());
    out.param("cases", format!("{}", CASES.len()));
    out.param("platform", "\"bluegene_p\"".to_string());
    out.param("latency_item", "\"one case: record + replay\"".to_string());
    for (name, ms) in per_case {
        out.param(&format!("case_ms.{name}"), format!("{ms:.1}"));
    }
    if spans.enabled() {
        out.layer.extend(case_layer_metrics(&all));
    }
    out
}

/// `netsim.*` layer metrics from the runs of each case.
pub fn case_layer_metrics(runs: &[CaseRun]) -> Vec<Metric> {
    let mut m = Vec::new();
    for c in CASES {
        let mine: Vec<&CaseRun> = runs.iter().filter(|r| r.case.name == c.name).collect();
        if mine.is_empty() {
            continue;
        }
        let ops = mine[0].ops as f64;
        let rec = median(
            &mine
                .iter()
                .map(|r| ops / r.record_s / 1e6)
                .collect::<Vec<_>>(),
        );
        let rep = median(
            &mine
                .iter()
                .map(|r| ops / r.replay_s / 1e6)
                .collect::<Vec<_>>(),
        );
        m.push(Metric::new(
            format!("netsim.record_mops_s.{}", c.name),
            rec,
            "Mops/s",
        ));
        m.push(Metric::new(
            format!("netsim.replay_mops_s.{}", c.name),
            rep,
            "Mops/s",
        ));
        m.push(Metric::new(format!("netsim.ops.{}", c.name), ops, "count"));
        m.push(Metric::new(
            format!("netsim.program_mb.{}", c.name),
            ops * std::mem::size_of::<Op>() as f64 / (1u64 << 20) as f64,
            "MB",
        ));
    }
    m
}
