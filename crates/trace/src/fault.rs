//! Fallible-communication vocabulary shared by both substrates.
//!
//! The paper's target platforms (a 16-rack BlueGene/P, Grid'5000) make
//! message loss and stragglers an operational reality; a serving layer on
//! top of either substrate needs every blocking wait to be bounded and
//! every stall to be diagnosable. This module holds the pieces both the
//! threaded runtime and the discrete-event simulator agree on:
//!
//! * [`CommError`] / [`CommEdge`] — what a failed communication operation
//!   returns. Every variant (except a self-inflicted [`CommError::Shutdown`])
//!   names the exact `(rank, peer, ctx, tag, epoch)` edge that stalled, so
//!   a hung-job report reads "rank 2 timed out waiting on rank 0, tag
//!   0x…11" instead of "recv failed".
//! * [`FaultPlan`] / [`FaultState`] — a deterministic fault schedule
//!   (drop / delay / duplicate the n-th matching message, kill a rank
//!   after its k-th send) that plugs into the send path of *both*
//!   substrates. Because the runtime and the simulator emit identical
//!   per-rank send sequences for every collective (the PR 2/3 parity
//!   property), the same plan injects the same faults on both, and a
//!   simulated failure can be replayed on real threads.
//!
//! This crate is dependency-free and sits below both substrates, which is
//! why the error type lives here rather than in `hsumma-runtime` (the
//! same reason [`crate::BcastAlgorithm`] does).

use std::fmt;
use std::sync::Arc;

/// Both substrates reserve tags at and above this bit for internal /
/// collective traffic (the simulator's collective tags start at `1 << 62`,
/// the runtime's internal tags at `1 << 63`); application point-to-point
/// tags live below it. [`TagClass`] uses this boundary so a fault rule
/// written against "collective traffic" matches the same messages on
/// either substrate.
pub const COLLECTIVE_TAG_FLOOR: u64 = 1 << 62;

/// The communication edge a failed operation was blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommEdge {
    /// World rank of the side reporting the error.
    pub rank: usize,
    /// World rank of the partner (the expected sender for a receive, the
    /// destination for a send; for a peer death, the rank that died).
    pub peer: usize,
    /// Communicator context the operation ran on.
    pub ctx: u64,
    /// Message tag.
    pub tag: u64,
    /// Job epoch (always 0 on the simulator and one-shot runtime).
    pub epoch: u64,
}

impl fmt::Display for CommEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} <-> rank {} (ctx={:#x}, tag={:#x}, epoch={})",
            self.rank, self.peer, self.ctx, self.tag, self.epoch
        )
    }
}

/// Why a communication operation failed. Ordered by severity for
/// [`primary_comm_error`]: a timeout outranks a cancellation outranks a
/// peer death outranks a self-shutdown when summarising a whole job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The job deadline passed while this operation was blocked on `edge`.
    Timeout {
        /// The edge the operation was waiting on when the deadline hit.
        edge: CommEdge,
        /// The operation that was blocked (`"recv"`, `"send"`, …).
        op: &'static str,
    },
    /// The job was cancelled (by the pool watchdog or a caller-held
    /// cancel token) while this operation waited.
    Cancelled {
        /// The edge the operation was waiting on when cancelled.
        edge: CommEdge,
        /// The operation that was blocked.
        op: &'static str,
    },
    /// A peer rank died (panicked or was killed by a fault plan) while
    /// this rank waited on it.
    PeerDead {
        /// `edge.peer` is the rank that died.
        edge: CommEdge,
        /// The operation that was blocked.
        op: &'static str,
    },
    /// This rank itself was taken down — killed by a [`FaultPlan`] or
    /// caught in a pool shutdown — and must stop communicating.
    Shutdown {
        /// World rank of the dying side.
        rank: usize,
        /// Human-readable cause ("killed by fault plan after 3 sends").
        detail: String,
    },
}

/// Discriminant of a [`CommError`], for outcome-parity comparisons that
/// should ignore the substrate-specific edge details.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommErrorKind {
    /// See [`CommError::Timeout`].
    Timeout,
    /// See [`CommError::Cancelled`].
    Cancelled,
    /// See [`CommError::PeerDead`].
    PeerDead,
    /// See [`CommError::Shutdown`].
    Shutdown,
}

impl CommError {
    /// The variant, with edge details stripped.
    pub fn kind(&self) -> CommErrorKind {
        match self {
            CommError::Timeout { .. } => CommErrorKind::Timeout,
            CommError::Cancelled { .. } => CommErrorKind::Cancelled,
            CommError::PeerDead { .. } => CommErrorKind::PeerDead,
            CommError::Shutdown { .. } => CommErrorKind::Shutdown,
        }
    }

    /// The stalled edge, when the error has one.
    pub fn edge(&self) -> Option<&CommEdge> {
        match self {
            CommError::Timeout { edge, .. }
            | CommError::Cancelled { edge, .. }
            | CommError::PeerDead { edge, .. } => Some(edge),
            CommError::Shutdown { .. } => None,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { edge, op } => {
                write!(
                    f,
                    "deadline passed while rank {} waited in {op} on {edge}",
                    edge.rank
                )
            }
            CommError::Cancelled { edge, op } => {
                write!(
                    f,
                    "job cancelled while rank {} waited in {op} on {edge}",
                    edge.rank
                )
            }
            CommError::PeerDead { edge, op } => {
                write!(
                    f,
                    "peer rank {} died while rank {} waited in {op} on {edge}",
                    edge.peer, edge.rank
                )
            }
            CommError::Shutdown { rank, detail } => {
                write!(f, "rank {rank} shut down: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Picks the error that best summarises a job from the per-rank failures,
/// preferring `Timeout > Cancelled > PeerDead > Shutdown` (a timeout names
/// the stalled edge; the peers' secondary deaths are cascade noise).
pub fn primary_comm_error<'a, I>(errors: I) -> Option<&'a CommError>
where
    I: IntoIterator<Item = &'a CommError>,
{
    errors.into_iter().min_by_key(|e| e.kind())
}

/// Which tag band a fault rule applies to; see [`COLLECTIVE_TAG_FLOOR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagClass {
    /// Match every eligible message.
    #[default]
    Any,
    /// Application point-to-point tags (below [`COLLECTIVE_TAG_FLOOR`]).
    App,
    /// Internal / collective tags (at or above [`COLLECTIVE_TAG_FLOOR`]).
    Collective,
}

impl TagClass {
    /// Whether `tag` falls in this class.
    pub fn matches(self, tag: u64) -> bool {
        match self {
            TagClass::Any => true,
            TagClass::App => tag < COLLECTIVE_TAG_FLOOR,
            TagClass::Collective => tag >= COLLECTIVE_TAG_FLOOR,
        }
    }
}

/// What to do to a matched message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The message vanishes at the send path — never enqueued, never
    /// counted as sent. The receiver blocks until its deadline.
    Drop,
    /// The message is delivered, but only after the given extra delay
    /// (wall seconds on the runtime, virtual seconds on the simulator).
    Delay(f64),
    /// The message is enqueued twice. The duplicate is absorbed by the
    /// receiver's epoch purge (runtime) or left-over-mail tolerance (sim).
    Duplicate,
}

/// One deterministic injection: apply `action` to the `nth` message
/// (0-based) this plan sees that matches the `(src, dst, tag_class)`
/// filter. `None` filters are wildcards.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Only messages sent by this world rank (any sender when `None`).
    pub src: Option<usize>,
    /// Only messages addressed to this world rank (any when `None`).
    pub dst: Option<usize>,
    /// Only tags in this band.
    pub tag_class: TagClass,
    /// 0-based index among matching messages *per sending rank*: rule
    /// counters live in the sender's [`FaultState`], so `nth = 2` means
    /// "the third matching message that sender emits".
    pub nth: u64,
    /// What to do to it.
    pub action: FaultAction,
}

/// Kill a rank: its `after_sends`-th eligible send (0-based) returns
/// [`CommError::Shutdown`] instead of delivering, and the rank's job
/// closure is expected to propagate the error and die silently. Peers
/// then time out at the job deadline — identically on both substrates —
/// so plans with kills require a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRule {
    /// World rank to kill.
    pub rank: usize,
    /// How many eligible sends the rank completes before dying.
    pub after_sends: u64,
}

/// A deterministic, replayable fault schedule. Build one with the
/// fluent constructors, hand the same plan (via `Arc`) to the simulator
/// and the threaded runtime, and both will inject the same faults at the
/// same points in the communication schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Message-level injections; the first matching rule wins.
    pub rules: Vec<FaultRule>,
    /// Rank kills.
    pub kills: Vec<KillRule>,
    /// Seed reserved for probabilistic extensions; today's rules are
    /// count-deterministic and ignore it, but it is part of the plan's
    /// identity so replays carry it along.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drops the `nth` message from `src` to `dst` in `tag_class`.
    pub fn drop_nth(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag_class: TagClass,
        nth: u64,
    ) -> Self {
        self.rules.push(FaultRule {
            src,
            dst,
            tag_class,
            nth,
            action: FaultAction::Drop,
        });
        self
    }

    /// Delays the `nth` matching message by `seconds`.
    pub fn delay_nth(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag_class: TagClass,
        nth: u64,
        seconds: f64,
    ) -> Self {
        self.rules.push(FaultRule {
            src,
            dst,
            tag_class,
            nth,
            action: FaultAction::Delay(seconds),
        });
        self
    }

    /// Duplicates the `nth` matching message.
    pub fn duplicate_nth(
        mut self,
        src: Option<usize>,
        dst: Option<usize>,
        tag_class: TagClass,
        nth: u64,
    ) -> Self {
        self.rules.push(FaultRule {
            src,
            dst,
            tag_class,
            nth,
            action: FaultAction::Duplicate,
        });
        self
    }

    /// Kills `rank` after `after_sends` eligible sends.
    pub fn kill_rank(mut self, rank: usize, after_sends: u64) -> Self {
        self.kills.push(KillRule { rank, after_sends });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.kills.is_empty()
    }

    /// Whether the plan kills any rank (such plans require a deadline so
    /// the victim's peers resolve to `Timeout` instead of hanging).
    pub fn has_kills(&self) -> bool {
        !self.kills.is_empty()
    }
}

/// The decision [`FaultState::on_send`] hands back to the send path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Swallow the message (count a fault, not a send).
    Drop,
    /// Deliver after the given extra seconds.
    DeliverDelayed(f64),
    /// Deliver the message and an identical duplicate.
    DeliverTwice,
    /// The sending rank dies here: return [`CommError::Shutdown`].
    Kill,
}

/// Per-sending-rank replay cursor over a [`FaultPlan`]. Each substrate
/// creates one per rank and consults it on every *eligible* send (the
/// runtime excludes its split/barrier bookkeeping messages, which have no
/// simulator counterpart, so the counters advance in lockstep on both).
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: Arc<FaultPlan>,
    rank: usize,
    /// Per-rule count of messages (from this rank) that matched the
    /// rule's static filter so far.
    rule_hits: Vec<u64>,
    /// Eligible sends completed (or faulted) so far.
    sends: u64,
    /// Faults injected by this rank so far (kills included).
    injected: u64,
    killed: bool,
}

impl FaultState {
    /// A cursor for world rank `rank` over `plan`.
    pub fn new(plan: Arc<FaultPlan>, rank: usize) -> Self {
        let rule_hits = vec![0; plan.rules.len()];
        FaultState {
            plan,
            rank,
            rule_hits,
            sends: 0,
            injected: 0,
            killed: false,
        }
    }

    /// Consulted by the send path for every eligible send from this rank
    /// to world rank `dst` with message tag `tag`. Advances the replay
    /// cursors; the first matching rule wins.
    pub fn on_send(&mut self, dst: usize, tag: u64) -> FaultDecision {
        if self.killed {
            return FaultDecision::Kill;
        }
        for kill in &self.plan.kills {
            if kill.rank == self.rank && self.sends == kill.after_sends {
                self.killed = true;
                self.injected += 1;
                return FaultDecision::Kill;
            }
        }
        self.sends += 1;
        // Advance EVERY matching rule's cursor (so counters are
        // independent of which rule fires), then apply the first rule
        // whose nth slot this send landed on.
        let plan = Arc::clone(&self.plan);
        let mut decision = FaultDecision::Deliver;
        for (i, rule) in plan.rules.iter().enumerate() {
            let src_ok = rule.src.is_none_or(|s| s == self.rank);
            let dst_ok = rule.dst.is_none_or(|d| d == dst);
            if !(src_ok && dst_ok && rule.tag_class.matches(tag)) {
                continue;
            }
            let hit = self.rule_hits[i];
            self.rule_hits[i] += 1;
            if hit == rule.nth && decision == FaultDecision::Deliver {
                self.injected += 1;
                decision = match rule.action {
                    FaultAction::Drop => FaultDecision::Drop,
                    FaultAction::Delay(s) => FaultDecision::DeliverDelayed(s),
                    FaultAction::Duplicate => FaultDecision::DeliverTwice,
                };
            }
        }
        decision
    }

    /// Faults injected by this rank so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Whether the kill rule has fired for this rank.
    pub fn killed(&self) -> bool {
        self.killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge() -> CommEdge {
        CommEdge {
            rank: 2,
            peer: 0,
            ctx: 0x11,
            tag: COLLECTIVE_TAG_FLOOR + 17,
            epoch: 3,
        }
    }

    #[test]
    fn errors_name_the_stalled_edge() {
        let e = CommError::Timeout {
            edge: edge(),
            op: "recv",
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("epoch=3"), "{msg}");
        assert!(msg.contains("recv"), "{msg}");
    }

    #[test]
    fn primary_error_prefers_timeout_over_cascade() {
        let timeout = CommError::Timeout {
            edge: edge(),
            op: "recv",
        };
        let dead = CommError::PeerDead {
            edge: edge(),
            op: "recv",
        };
        let shut = CommError::Shutdown {
            rank: 1,
            detail: "killed by fault plan".into(),
        };
        let errs = [shut, dead, timeout.clone()];
        assert_eq!(primary_comm_error(errs.iter()), Some(&timeout));
    }

    #[test]
    fn tag_class_boundary_matches_both_substrates() {
        assert!(TagClass::App.matches(41));
        assert!(!TagClass::App.matches(1 << 62)); // sim collective tags
        assert!(TagClass::Collective.matches(1 << 62));
        assert!(TagClass::Collective.matches((1 << 63) + 17)); // runtime internal
        assert!(TagClass::Any.matches(0));
        assert!(TagClass::Any.matches(u64::MAX));
    }

    #[test]
    fn nth_rule_fires_exactly_once() {
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(0), Some(1), TagClass::Any, 2));
        let mut st = FaultState::new(plan, 0);
        assert_eq!(st.on_send(1, 5), FaultDecision::Deliver);
        assert_eq!(st.on_send(2, 5), FaultDecision::Deliver); // dst mismatch: no hit
        assert_eq!(st.on_send(1, 5), FaultDecision::Deliver);
        assert_eq!(st.on_send(1, 5), FaultDecision::Drop); // 3rd match (nth=2)
        assert_eq!(st.on_send(1, 5), FaultDecision::Deliver);
        assert_eq!(st.injected(), 1);
    }

    #[test]
    fn rules_are_scoped_to_their_sender() {
        let plan = Arc::new(FaultPlan::new().drop_nth(Some(3), None, TagClass::Any, 0));
        let mut not_me = FaultState::new(Arc::clone(&plan), 1);
        assert_eq!(not_me.on_send(0, 9), FaultDecision::Deliver);
        assert_eq!(not_me.injected(), 0);
        let mut me = FaultState::new(plan, 3);
        assert_eq!(me.on_send(0, 9), FaultDecision::Drop);
        assert_eq!(me.injected(), 1);
    }

    #[test]
    fn kill_fires_after_counted_sends_and_sticks() {
        let plan = Arc::new(FaultPlan::new().kill_rank(2, 2));
        let mut st = FaultState::new(plan, 2);
        assert_eq!(st.on_send(0, 1), FaultDecision::Deliver);
        assert_eq!(st.on_send(0, 1), FaultDecision::Deliver);
        assert_eq!(st.on_send(0, 1), FaultDecision::Kill);
        assert!(st.killed());
        assert_eq!(st.on_send(0, 1), FaultDecision::Kill, "kill is sticky");
        assert_eq!(st.injected(), 1, "a kill counts once");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = Arc::new(
            FaultPlan::new()
                .delay_nth(None, None, TagClass::Any, 0, 0.5)
                .drop_nth(None, None, TagClass::Any, 0),
        );
        let mut st = FaultState::new(plan, 0);
        assert_eq!(st.on_send(1, 0), FaultDecision::DeliverDelayed(0.5));
        // Both rules' cursors advanced on the first send, so the drop
        // rule's nth=0 slot is spent too.
        assert_eq!(st.on_send(1, 0), FaultDecision::Deliver);
    }

    #[test]
    fn duplicate_decision_counts_one_fault() {
        let plan = Arc::new(FaultPlan::new().duplicate_nth(None, None, TagClass::Collective, 0));
        let mut st = FaultState::new(plan, 0);
        assert_eq!(st.on_send(1, 3), FaultDecision::Deliver, "app tag skipped");
        assert_eq!(
            st.on_send(1, COLLECTIVE_TAG_FLOOR),
            FaultDecision::DeliverTwice
        );
        assert_eq!(st.injected(), 1);
    }
}
