//! Threadless event-loop execution of recorded op programs.
//!
//! [`EventLoopSim`] runs the p programs of a [`RecordedProgram`] over a
//! [`SimNet`] with a single host thread: per-rank program counters, a
//! stack of runnable ranks, and one inbox of in-flight mail per
//! destination rank. Every scheduling decision, send and in-order
//! receive is O(1); a receive that matches out of order scans its own
//! rank's in-flight mail, which is the inbox's worst case. Memory is
//! O(p) cursor state plus the in-flight mail — no stacks, which is what
//! lets p = 2²⁰ replays run under the default `vm.max_map_count`.
//!
//! **Parity contract.** Replay is bit-identical to the thread-per-rank
//! [`crate::spmd::SimWorld`] run of the same schedule: same
//! [`crate::SimReport`] (to the bit), same per-rank `(src, dst, bytes)`
//! trace multisets, same errors under deadlines and fault plans. The
//! argument: every [`SimNet`] operation moves only the acting rank's
//! clock, so each rank's float timeline is a function of its own op
//! order (fixed by the program) and of which messages it matched (fixed
//! by per-`(channel, src, dst)` FIFO order — the same non-overtaking
//! rule the SPMD mailboxes implement; an inbox keeps its mail in send
//! order, so the first entry matching `(channel, src)` is that pair's
//! FIFO head). Noise draws are keyed by `(sender, per-sender sequence)`,
//! both preserved here. The aggregate `msgs`/`bytes` are order-free
//! integer sums and the report's times are per-rank maxima, so the order
//! in which runnable ranks are taken is unobservable — which is why a
//! plain stack serves, with no clock-ordered queue. A rank runs until it
//! blocks or ends; the deadline quiescence below fires only once the
//! stack is empty, i.e. when every live rank is blocked, whatever order
//! got it there. Every deadline/fault decision point below cites the
//! `spmd.rs` behaviour it mirrors.
//!
//! One deliberate divergence, observably identical: a
//! `FaultAction::Duplicate` ghost message is not enqueued (the SPMD
//! world queues it on a reserved tag that no receive ever matches and
//! never counts it — pure leftover mail, and the leftover assert is
//! relaxed under faults on both engines).

use crate::fasthash::FastMap;
use crate::record::{Op, RecordedProgram};
use crate::sim::{PendingMsg, SimNet};
use crate::spmd::SimRunOptions;
use hsumma_trace::{CommEdge, CommError, FaultDecision, FaultState};
use std::collections::VecDeque;
use std::sync::Arc;

/// A drained inbox keeps its buffer only up to this capacity (in
/// messages): a `VecDeque` of 32-byte entries first allocates 4, so an
/// inbox that never held more than 4 messages at once allocates once.
const INBOX_KEEP: usize = 4;

const DEADLOCK_MSG: &str = "replayed program deadlocked: every live rank is blocked on a message \
     that can never arrive (set a deadline via SimRunOptions to turn stalls into timeouts)";

/// Outcome of a replay: the network with final accounting, the per-rank
/// errors (`None` = the rank's program completed), and the fault count —
/// all comparable one-to-one with [`crate::spmd::SimOutcome`].
pub struct ReplayOutcome {
    /// The network after the run, with clocks and accounting final.
    pub net: SimNet,
    /// Per-rank failure, if any: a rank that errors halts the remainder
    /// of its program, exactly as the SPMD closures `?`-propagate.
    pub errors: Vec<Option<CommError>>,
    /// Total faults injected across all ranks (kills count once).
    pub faults_injected: u64,
}

impl ReplayOutcome {
    /// The network's aggregate report.
    pub fn report(&self) -> crate::SimReport {
        self.net.report()
    }

    /// Asserts the replay was clean and returns the report.
    pub fn expect_clean(self) -> (SimNet, crate::SimReport) {
        for (r, e) in self.errors.iter().enumerate() {
            assert!(e.is_none(), "rank {r} failed during replay: {e:?}");
        }
        let report = self.net.report();
        (self.net, report)
    }
}

/// What a blocked rank is waiting on — enough to synthesize the same
/// `CommError::Timeout` the SPMD world produces when it quiesces.
#[derive(Clone, Copy)]
enum Blocked {
    /// Waiting for mail on `(chan, src)`.
    Recv { chan: u32, src: u32 },
    /// Waiting at a barrier on communicator `comm`.
    Barrier { comm: u32 },
    /// Waiting at a split rendezvous on communicator `comm`.
    Split { comm: u32 },
}

struct Replay<'p> {
    prog: &'p RecordedProgram,
    net: SimNet,
    gamma: f64,
    deadline: Option<f64>,
    faults: Option<Vec<FaultState>>,
    pc: Vec<usize>,
    blocked: Vec<Option<Blocked>>,
    finished: Vec<bool>,
    live: usize,
    errors: Vec<Option<CommError>>,
    /// Open pivot-step spans per rank: `(k, outer, inner, t0)`.
    steps: Vec<Vec<(u32, u32, u32, f64)>>,
    /// Per-destination in-flight mail, in send order: `(chan, src, msg)`.
    /// A `VecDeque` so the common in-order receive pops the front.
    inbox: Vec<VecDeque<(u32, u32, PendingMsg)>>,
    /// `(comm, seq, kind)` → members arrived so far; kind 0 = barrier,
    /// 1 = split.
    rendezvous: FastMap<(u32, u32, u8), usize>,
    /// Ranks that may run: not finished, not blocked. A rank is pushed
    /// once at the start and once per wake, and a wake only happens to
    /// a rank that is not on the stack (blocked, or the last arriver of
    /// a rendezvous), so no rank is on it twice. The order is free (see
    /// the module docs) but not its cost: ranks start lowest first and
    /// a rendezvous releases its members lowest rank first, because low
    /// ranks root the collective trees, and a sender that runs before
    /// its receivers saves them a block and a wake. A woken receiver
    /// goes on top and runs next, while its mail is still in cache.
    ready: Vec<usize>,
}

/// The threadless replay engine: prices a [`RecordedProgram`] on a
/// [`SimNet`] at `gamma` seconds per multiply-add pair. The network and
/// γ are supplied at replay time — recordings are platform-independent.
pub struct EventLoopSim {
    net: SimNet,
    gamma: f64,
}

impl EventLoopSim {
    /// Wraps a network (optionally carrying a tracer, topology or noise
    /// model) for replay.
    ///
    /// # Panics
    /// At `run` time, if the network does not span the program's ranks.
    pub fn new(net: SimNet, gamma: f64) -> Self {
        EventLoopSim { net, gamma }
    }

    /// Executes every rank's program to completion (or failure) under
    /// `opts`, consuming the engine and returning the final network.
    ///
    /// # Panics
    /// Panics if the program deadlocks with no deadline set, if a clean
    /// run leaves undelivered mail behind, or if kill faults are
    /// configured without a deadline — the same contracts as
    /// [`crate::spmd::SimWorld::run_with`].
    pub fn run(self, prog: &RecordedProgram, opts: &SimRunOptions) -> ReplayOutcome {
        let p = prog.ranks();
        assert_eq!(self.net.size(), p, "network must span the program's ranks");
        if let Some(plan) = &opts.faults {
            assert!(
                !plan.has_kills() || opts.deadline.is_some(),
                "kill faults require a deadline: a killed rank's peers can only unblock by timing out"
            );
        }
        let relaxed = opts.deadline.is_some() || opts.faults.is_some();
        let faults = opts.faults.as_ref().map(|plan| {
            (0..p)
                .map(|r| FaultState::new(Arc::clone(plan), r))
                .collect()
        });
        let mut rp = Replay {
            prog,
            net: self.net,
            gamma: self.gamma,
            deadline: opts.deadline,
            faults,
            pc: vec![0; p],
            blocked: vec![None; p],
            finished: vec![false; p],
            live: p,
            errors: (0..p).map(|_| None).collect(),
            steps: vec![Vec::new(); p],
            inbox: vec![VecDeque::new(); p],
            rendezvous: FastMap::default(),
            // Reversed so rank 0 runs first.
            ready: (0..p).rev().collect(),
        };
        rp.drive();
        if !relaxed {
            assert!(
                rp.inbox.iter().all(VecDeque::is_empty),
                "replayed program left undelivered messages behind"
            );
        }
        let faults_injected = rp
            .faults
            .as_ref()
            .map(|v| v.iter().map(FaultState::injected).sum())
            .unwrap_or(0);
        ReplayOutcome {
            net: rp.net,
            errors: rp.errors,
            faults_injected,
        }
    }
}

impl<'p> Replay<'p> {
    /// Unblocks `r` and makes it runnable.
    fn wake(&mut self, r: usize) {
        self.blocked[r] = None;
        self.ready.push(r);
    }

    fn drive(&mut self) {
        loop {
            while let Some(r) = self.ready.pop() {
                debug_assert!(!self.finished[r] && self.blocked[r].is_none());
                self.run_rank(r);
            }
            if self.live == 0 {
                return;
            }
            // Quiescence: no rank is runnable and some are still live —
            // every live rank is blocked on something that can never
            // resolve. Mirrors SimWorld::check_quiescence: with a
            // deadline every blocked wait becomes a Timeout *at* the
            // deadline; without one, the deadlock diagnosis panics.
            let Some(d) = self.deadline else {
                panic!("{DEADLOCK_MSG}");
            };
            for r in 0..self.prog.ranks() {
                if self.finished[r] {
                    continue;
                }
                let b = self.blocked[r].take().expect("live rank must be blocked");
                self.net.wait_until(r, d);
                let err = match b {
                    Blocked::Recv { chan, src } => self.chan_timeout(r, src, chan, "recv"),
                    Blocked::Barrier { comm } => timeout(r, r, comm, 0, "barrier"),
                    Blocked::Split { comm } => timeout(r, r, comm, 0, "split"),
                };
                self.fail(r, err);
            }
        }
    }

    /// The timeout `r` fails with in `op` on channel `chan` with `peer`.
    /// Only failures look a channel up: a clean replay never touches
    /// the channel table, which at COSMA scale is far out of cache.
    fn chan_timeout(&self, r: usize, peer: u32, chan: u32, op: &'static str) -> CommError {
        let (ctx, tag) = self.prog.chans[chan as usize];
        timeout(r, peer as usize, ctx, tag, op)
    }

    /// Fails `r`: record the error, close its open pivot-step spans
    /// (innermost first, spans ending at the rank's current clock —
    /// exactly what nested `trace_step`s record when their closure
    /// returns an `Err` the caller then `?`-propagates), and halt the
    /// rest of its program.
    fn fail(&mut self, r: usize, err: CommError) {
        while let Some((k, outer, inner, t0)) = self.steps[r].pop() {
            self.net.record_step(
                r,
                k as usize,
                outer as usize,
                inner as usize,
                t0,
                self.net.now(r),
            );
        }
        self.errors[r] = Some(err);
        self.finish(r);
    }

    fn finish(&mut self, r: usize) {
        if !self.finished[r] {
            self.finished[r] = true;
            self.live -= 1;
        }
    }

    /// Runs rank `r`'s program until it blocks, fails or completes.
    fn run_rank(&mut self, r: usize) {
        let program = &self.prog.programs[r];
        while let Some(&op) = program.get(self.pc[r]) {
            match op {
                Op::Send { chan, dst, size } => {
                    let bytes = self.prog.sizes[size as usize];
                    // spmd send_bytes: the deadline check precedes the
                    // fault cursor, which precedes the clock work.
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            self.fail(r, self.chan_timeout(r, dst, chan, "send"));
                            return;
                        }
                    }
                    let mut delay = None;
                    if let Some(faults) = self.faults.as_mut() {
                        let tag = self.prog.chans[chan as usize].1;
                        match faults[r].on_send(dst as usize, tag) {
                            FaultDecision::Deliver => {}
                            FaultDecision::Drop => {
                                // The sender does the work (clock, noise
                                // draw, busy time); the message vanishes
                                // from the ledger and from every mailbox.
                                let msg = self.net.isend(r, dst as usize, bytes);
                                self.net.uncount_send(msg.payload_bytes());
                                self.pc[r] += 1;
                                continue;
                            }
                            FaultDecision::DeliverDelayed(s) => delay = Some(s),
                            FaultDecision::DeliverTwice => {
                                // Ghost copy deliberately not enqueued —
                                // see module docs.
                            }
                            FaultDecision::Kill => {
                                self.fail(
                                    r,
                                    CommError::Shutdown {
                                        rank: r,
                                        detail: "killed by fault plan at send".to_string(),
                                    },
                                );
                                return;
                            }
                        }
                    }
                    let mut msg = self.net.isend(r, dst as usize, bytes);
                    if let Some(s) = delay {
                        msg.delay(s);
                    }
                    let dst = dst as usize;
                    self.inbox[dst].push_back((chan, r as u32, msg));
                    self.pc[r] += 1;
                    // Wake the receiver iff it is blocked on exactly
                    // this (chan, src) — the SPMD world's targeted wake.
                    if let Some(Blocked::Recv { chan: bc, src: bs }) = self.blocked[dst] {
                        if bc == chan && bs as usize == r {
                            self.wake(dst);
                        }
                    }
                }
                Op::Recv { chan, src, size } => {
                    // spmd recv_bytes: own-clock deadline check first
                    // (no wait charged) …
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            self.fail(r, self.chan_timeout(r, src, chan, "recv"));
                            return;
                        }
                    }
                    let head = self.inbox[r]
                        .iter()
                        .position(|&(c, s, _)| c == chan && s == src);
                    let Some(pos) = head else {
                        self.blocked[r] = Some(Blocked::Recv { chan, src });
                        return;
                    };
                    // … then the arrival-past-deadline check, which
                    // *does* advance the clock to the deadline.
                    if let Some(d) = self.deadline {
                        if self.inbox[r][pos].2.arrival() > d {
                            self.net.wait_until(r, d);
                            self.fail(r, self.chan_timeout(r, src, chan, "recv"));
                            return;
                        }
                    }
                    let inbox = &mut self.inbox[r];
                    let (_, _, msg) = inbox.remove(pos).expect("head mail vanished");
                    if inbox.is_empty() && inbox.capacity() > INBOX_KEEP {
                        // Senders run ahead of their receivers (a rank
                        // runs until it blocks), so an inbox can grow
                        // long. Releasing it once drained makes memory
                        // follow the mail in flight now rather than the
                        // sum of every rank's historical maximum (at
                        // COSMA p = 2¹⁸: 0.54 GB peak instead of 0.97).
                        // Growing past the threshold again takes more
                        // pushes than the regrowth allocates, so the
                        // cost stays O(1) per message.
                        *inbox = VecDeque::new();
                    }
                    let bytes = self.prog.sizes[size as usize];
                    if bytes != u64::MAX {
                        assert_eq!(msg.payload_bytes(), bytes, "phantom payload size mismatch");
                    }
                    self.net.deliver(r, msg);
                    self.pc[r] += 1;
                }
                Op::Compute { charge } => {
                    // spmd compute: no deadline check.
                    let (pairs, flops) = self.prog.charges[charge as usize];
                    self.net.compute_flops(r, self.gamma * pairs, flops);
                    self.pc[r] += 1;
                }
                Op::Barrier { comm, seq } => {
                    // spmd barrier: entry deadline check before the
                    // arrival deposit; the last arriver aligns the group
                    // unconditionally.
                    if let Some(d) = self.deadline {
                        if self.net.now(r) >= d {
                            self.fail(r, timeout(r, r, comm, 0, "barrier"));
                            return;
                        }
                    }
                    self.pc[r] += 1;
                    self.arrive(r, comm, seq, 0);
                    return;
                }
                Op::Split { comm, seq } => {
                    // spmd split: pure rendezvous — no entry deadline
                    // check, no clock effect. It must still hold ranks
                    // back so fault/deadline quiescence sees the same
                    // blocked set as the threaded world.
                    self.pc[r] += 1;
                    self.arrive(r, comm, seq, 1);
                    return;
                }
                Op::StepPush { k, outer, inner } => {
                    self.steps[r].push((k, outer, inner, self.net.now(r)));
                    self.pc[r] += 1;
                }
                Op::StepPop => {
                    let (k, outer, inner, t0) =
                        self.steps[r].pop().expect("unbalanced pivot-step spans");
                    self.net.record_step(
                        r,
                        k as usize,
                        outer as usize,
                        inner as usize,
                        t0,
                        self.net.now(r),
                    );
                    self.pc[r] += 1;
                }
            }
        }
        debug_assert!(self.steps[r].is_empty(), "unbalanced pivot-step spans");
        self.finish(r);
    }

    /// Deposits `r`'s arrival at rendezvous `(comm, seq, kind)`. The
    /// caller has already advanced `r`'s pc past the op, so `r` stops
    /// here either way: it waits for the remaining members, or — as the
    /// last arriver — releases the whole group, itself included.
    fn arrive(&mut self, r: usize, comm: u32, seq: u32, kind: u8) {
        let prog = self.prog;
        let members = &prog.comms[comm as usize];
        let arrived = self.rendezvous.entry((comm, seq, kind)).or_insert(0);
        *arrived += 1;
        if *arrived < members.len() {
            self.blocked[r] = Some(if kind == 0 {
                Blocked::Barrier { comm }
            } else {
                Blocked::Split { comm }
            });
            return;
        }
        self.rendezvous.remove(&(comm, seq, kind));
        if kind == 0 {
            self.net.barrier_group(members);
        }
        // Lowest communicator rank on top of the stack: the group
        // resumes in rank order (see `ready`).
        for &w in members.iter().rev() {
            self.wake(w);
        }
    }
}

fn timeout(rank: usize, peer: usize, ctx: u32, tag: u64, op: &'static str) -> CommError {
    CommError::Timeout {
        edge: CommEdge {
            rank,
            peer,
            ctx: ctx as u64,
            tag,
            epoch: 0,
        },
        op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Hockney;
    use crate::record::record;
    use crate::spmd::SimWorld;
    use hsumma_trace::{FaultPlan, TagClass};

    fn net(p: usize) -> SimNet {
        SimNet::new(p, Hockney::new(1e-3, 1e-6))
    }

    #[test]
    fn replay_matches_threaded_point_to_point_bitwise() {
        let spmd = |comm: &crate::spmd::SimComm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000).unwrap();
            } else {
                assert_eq!(comm.recv_bytes(0, 7).unwrap(), 1000);
            }
        };
        let (threaded, _) = SimWorld::run(net(2), 0.0, false, spmd);
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000)
            } else {
                comm.recv_bytes_expect(0, 7, 1000)
            }
        });
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    #[test]
    fn fifo_and_distinct_tags_behave_like_mailboxes() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 1, 10)?;
                comm.send_bytes(1, 1, 20)?;
                comm.send_bytes(1, 2, 99)?;
            } else {
                // Opposite-order tags, in-order FIFO within a tag.
                comm.recv_bytes_expect(0, 2, 99)?;
                comm.recv_bytes_expect(0, 1, 10)?;
                comm.recv_bytes_expect(0, 1, 20)?;
            }
            Ok(())
        });
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
        out.expect_clean();
    }

    fn report_bits(r: &crate::SimReport) -> [u64; 5] {
        [
            r.total_time.to_bits(),
            r.comm_time.to_bits(),
            r.comp_time.to_bits(),
            r.msgs,
            r.bytes,
        ]
    }

    #[test]
    fn inbox_matches_each_tag_in_send_order() {
        // 300 sends interleaved over three tags, every one a distinct
        // size: receiving tag by tag makes the inbox skip the other
        // tags' mail, and the size assert catches any wrong match.
        const SENDS: u64 = 300;
        let bytes = |i: u64| 8 * (i + 1);
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                for i in 0..SENDS {
                    comm.send_bytes(1, i % 3, bytes(i))?;
                }
            } else {
                for tag in 0..3 {
                    for i in (tag..SENDS).step_by(3) {
                        comm.recv_bytes_expect(0, tag, bytes(i))?;
                    }
                }
            }
            Ok(())
        });
        let (threaded, _) = SimWorld::run(net(2), 0.0, false, |comm| {
            if comm.rank() == 0 {
                for i in 0..SENDS {
                    comm.send_bytes(1, i % 3, bytes(i)).unwrap();
                }
            } else {
                for tag in 0..3 {
                    for i in (tag..SENDS).step_by(3) {
                        assert_eq!(comm.recv_bytes(0, tag).unwrap(), bytes(i));
                    }
                }
            }
        });
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report_bits(&report), report_bits(&threaded.report()));
    }

    #[test]
    fn many_to_one_in_reverse_rank_order_matches_threaded_bitwise() {
        // Every rank sends to rank 0, which receives in reverse rank
        // order: each receive scans past the mail of every lower rank.
        const P: usize = 1024;
        let bytes = |r: usize| 8 * r as u64;
        let prog = record(P, false, |comm| {
            if comm.rank() == 0 {
                for src in (1..P).rev() {
                    comm.recv_bytes_expect(src, 3, bytes(src))?;
                }
            } else {
                comm.send_bytes(0, 3, bytes(comm.rank()))?;
            }
            Ok(())
        });
        let (threaded, _) = SimWorld::run(net(P), 0.0, false, |comm| {
            if comm.rank() == 0 {
                for src in (1..P).rev() {
                    assert_eq!(comm.recv_bytes(src, 3).unwrap(), bytes(src));
                }
            } else {
                comm.send_bytes(0, 3, bytes(comm.rank())).unwrap();
            }
        });
        let out = EventLoopSim::new(net(P), 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report_bits(&report), report_bits(&threaded.report()));
    }

    #[test]
    fn barrier_aligns_clocks_like_threaded() {
        let gamma = 1e-6;
        let (threaded, _) = SimWorld::run(net(3), gamma, false, |comm| {
            if comm.rank() == 1 {
                comm.compute(1_000_000.0, 2_000_000);
            }
            comm.barrier().unwrap();
        });
        let prog = record(3, false, |comm| {
            if comm.rank() == 1 {
                comm.compute(1_000_000.0, 2_000_000);
            }
            comm.barrier()
        });
        let out = EventLoopSim::new(net(3), gamma).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    #[test]
    fn stalled_recv_times_out_naming_the_edge() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 1 {
                // Record against a phantom partner so the recv exists in
                // the program; replay under a plan that drops the send.
                comm.recv_bytes_unchecked(0, 9)?;
            } else {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(2.5)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(out.errors[0].is_none());
        match out.errors[1].as_ref().expect("receiver times out") {
            CommError::Timeout { edge, op } => {
                assert_eq!((edge.rank, edge.peer, edge.tag), (1, 0, 9));
                assert_eq!(*op, "recv");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(out.net.now(1), 2.5);
        assert_eq!(out.net.comm_of(1), 2.5);
        assert_eq!(out.faults_injected, 1);
        // The dropped message is not in the send ledger.
        assert_eq!(out.net.report().msgs, 0);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn unresolvable_stall_without_deadline_panics() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 1 {
                comm.recv_bytes_unchecked(0, 9)?;
            } else {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::App, 0));
        // No deadline: the dropped message leaves rank 1 stuck forever.
        let opts = SimRunOptions::unbounded().with_faults(plan);
        let _ = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
    }

    #[test]
    fn killed_rank_shuts_down_and_peer_times_out() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 100)?;
            } else {
                comm.recv_bytes_unchecked(0, 4)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().kill_rank(0, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(1.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(matches!(
            out.errors[0],
            Some(CommError::Shutdown { rank: 0, .. })
        ));
        assert!(matches!(out.errors[1], Some(CommError::Timeout { .. })));
        assert_eq!(out.faults_injected, 1);
    }

    #[test]
    fn delayed_message_beyond_deadline_times_out_at_the_deadline() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 1000)?;
            } else {
                comm.recv_bytes_unchecked(0, 4)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().delay_nth(Some(0), Some(1), TagClass::App, 0, 5.0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(2.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(matches!(out.errors[1], Some(CommError::Timeout { .. })));
        assert_eq!(out.net.now(1), 2.0, "failed at the deadline, not arrival");
    }

    #[test]
    fn duplicate_counts_as_injected_but_not_in_the_ledger() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 4, 50)?;
                comm.send_bytes(1, 4, 60)?;
            } else {
                comm.recv_bytes_expect(0, 4, 50)?;
                comm.recv_bytes_expect(0, 4, 60)?;
            }
            Ok(())
        });
        let plan = Arc::new(FaultPlan::new().duplicate_nth(Some(0), Some(1), TagClass::App, 0));
        let opts = SimRunOptions::unbounded()
            .with_deadline(10.0)
            .with_faults(plan);
        let out = EventLoopSim::new(net(2), 0.0).run(&prog, &opts);
        assert!(out.errors.iter().all(Option::is_none));
        assert_eq!(out.faults_injected, 1);
        assert_eq!(out.net.report().msgs, 2);
    }

    #[test]
    fn noise_draws_match_the_threaded_engine() {
        use crate::sim::NoiseModel;
        let spmd = |comm: &crate::spmd::SimComm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_bytes(1, i, 1000).unwrap();
                }
            } else {
                for i in 0..10u64 {
                    comm.recv_bytes(0, i).unwrap();
                }
            }
        };
        let mut tnet = net(2);
        tnet.set_noise(NoiseModel::new(42, 0.3));
        let (threaded, _) = SimWorld::run(tnet, 0.0, false, spmd);
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send_bytes(1, i, 1000)?;
                }
            } else {
                for i in 0..10u64 {
                    comm.recv_bytes_unchecked(0, i)?;
                }
            }
            Ok(())
        });
        let mut rnet = net(2);
        rnet.set_noise(NoiseModel::new(42, 0.3));
        let out = EventLoopSim::new(rnet, 0.0).run(&prog, &SimRunOptions::unbounded());
        let (_, report) = out.expect_clean();
        assert_eq!(report, threaded.report());
    }

    #[test]
    #[should_panic(expected = "undelivered messages")]
    fn leftover_mail_is_detected_on_clean_runs() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 9, 8)?;
            }
            Ok(())
        });
        let _ = EventLoopSim::new(net(2), 0.0).run(&prog, &SimRunOptions::unbounded());
    }
}
