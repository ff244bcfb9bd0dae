//! Schedule-as-data: record each rank's communication program once.
//!
//! The SPMD simulator ([`crate::spmd`]) runs one thread per simulated
//! rank, which caps validated scale at p ≈ 8192 under the default
//! `vm.max_map_count` (each thread maps a stack). The schedules being
//! simulated, however, are *deterministic and data-independent*: every
//! send, receive, collective edge and compute charge is a function of
//! (rank, problem shape, configuration) alone — never of payload values
//! or timing. That determinism is what makes phantom payloads sound, and
//! it makes something stronger possible: run each rank's SPMD closure
//! **sequentially**, once, against a [`RecordComm`] that performs no
//! synchronization at all and simply writes down the rank's operations as
//! a flat [`Op`] program. The p recorded programs are then executed by
//! the threadless event loop in [`crate::replay`] — O(p) cursor state,
//! zero threads, p = 2²⁰ within reach.
//!
//! Recording is a *clean* run by construction: no deadline, no faults.
//! Deadlines and fault plans are applied at replay time, where the exact
//! per-operation semantics of the threaded world are mirrored (see
//! `replay.rs`), so one recording serves every failure scenario.
//!
//! The one collective that needs care is `split`: its result (child
//! membership and rank order) depends on every member's `(color, key)`
//! deposit, which a sequential recorder does not have until the *other*
//! ranks have run. The recorder therefore runs in passes: a rank that
//! reaches an unresolved split rendezvous aborts its pass with a sentinel
//! error (the deposit is kept), and once all members of a rendezvous have
//! deposited, the split is resolved exactly the way the SPMD world
//! resolves it — colors sorted, members ordered by `(key, parent rank)` —
//! and the aborted ranks re-run from the top. Re-runs are deterministic,
//! so re-deposits are asserted identical. Dense schedules split a handful
//! of times before their step loops, so recording converges in a few
//! passes (SUMMA: 3, HSUMMA: 5, COSMA: 4).
//!
//! What is *not* recordable: schedules whose control flow depends on the
//! outcome of a non-blocking probe (`ibcast_test`), i.e. the polling
//! variant of the overlap pipelines (`hsumma_overlap`). The probe's
//! answer depends on virtual arrival times the recorder does not know.
//! The blocking-wait pipeline (`summa_overlap`) records fine — its
//! schedule is a fixed sequence of starts and waits.

use crate::fasthash::FastMap;
use hsumma_trace::{CommEdge, CommError};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// One recorded operation of one rank's program. Peers are **world**
/// ranks (communicator-local ranks are resolved at record time), and
/// point-to-point endpoints are addressed through a channel id that
/// interns the `(communicator, tag)` pair. Payload sizes and compute
/// charges are interned too, as `u32` indices into
/// [`RecordedProgram`]'s tables, so every variant fits in 16 bytes —
/// which is what bounds recording memory at `total ops · 16 B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Send the payload of size-table entry `size` to world rank `dst`
    /// on channel `chan`.
    Send { chan: u32, dst: u32, size: u32 },
    /// Receive the next message from world rank `src` on channel `chan`.
    /// Size-table entry `size` is the expected payload size, checked at
    /// replay — an entry of `u64::MAX` means unchecked (collective
    /// internals discard sizes).
    Recv { chan: u32, src: u32, size: u32 },
    /// Charge-table entry `charge`: `γ · pairs` seconds of local compute
    /// (stamped `flops`).
    Compute { charge: u32 },
    /// Group barrier number `seq` on communicator `comm`.
    Barrier { comm: u32, seq: u32 },
    /// Split rendezvous number `seq` on communicator `comm`. Pure
    /// synchronization at replay: membership was resolved at record
    /// time, but the rendezvous itself must still hold ranks back so
    /// deadline/fault quiescence matches the threaded world.
    Split { comm: u32, seq: u32 },
    /// Open a pivot-step trace span (`k`, outer, inner block sizes).
    StepPush { k: u32, outer: u32, inner: u32 },
    /// Close the innermost open pivot-step span.
    StepPop,
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// The output of [`record`]: one flat op program per world rank, plus the
/// interning tables the ops index into. Platform-independent — the same
/// recording replays under any Hockney parameters, topology, noise seed,
/// deadline or fault plan.
pub struct RecordedProgram {
    /// `programs[r]` is world rank `r`'s complete op sequence.
    pub(crate) programs: Vec<Vec<Op>>,
    /// Channel id → `(communicator id, wire tag)`. The original tag is
    /// retained so fault-plan rules (which match on tag class) apply at
    /// replay exactly as they would on the live substrates.
    pub(crate) chans: Vec<(u32, u64)>,
    /// Size id → payload bytes (`u64::MAX`: an unchecked receive).
    pub(crate) sizes: Vec<u64>,
    /// Charge id → `(multiply-add pairs, flops)` of a compute op.
    pub(crate) charges: Vec<(f64, u64)>,
    /// Communicator id → world ranks of its members, in rank order.
    /// Id 0 is the world.
    pub(crate) comms: Vec<Arc<Vec<usize>>>,
}

impl RecordedProgram {
    /// Number of world ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// Total recorded operations across all ranks — the recording's
    /// memory footprint is this times `size_of::<Op>()` (16 bytes), plus
    /// the small interning tables.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }

    /// Number of distinct communicators the program created (including
    /// the world).
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }
}

/// Assigns dense `u32` ids to distinct keys, in first-seen order.
struct Interner<K> {
    ids: FastMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Copy + Eq + std::hash::Hash> Interner<K> {
    fn new() -> Self {
        Interner {
            ids: FastMap::default(),
            keys: Vec::new(),
        }
    }

    fn id(&mut self, key: K) -> u32 {
        let keys = &mut self.keys;
        *self.ids.entry(key).or_insert_with(|| {
            let id = u32::try_from(keys.len()).expect("interning table outgrew u32 ids");
            keys.push(key);
            id
        })
    }
}

/// One in-progress split rendezvous: `(color, key)` deposits by parent
/// rank, and (once every member has deposited and a pass boundary
/// resolved it) each parent rank's place in its child communicator.
struct SplitRec {
    deposits: Vec<Option<(u64, i64)>>,
    /// Members that have not deposited yet.
    missing: usize,
    /// Parent rank → `(child communicator id, rank in the child)`.
    placement: Option<Vec<(u32, u32)>>,
}

/// Shared recording state, threaded through every [`RecordComm`] handle
/// of the rank currently being recorded.
struct RecordState {
    step_sync: bool,
    /// The current rank's op buffer (cleared per pass, capacity kept).
    ops: Vec<Op>,
    /// Raised when the current rank aborted at an unresolved split; the
    /// driver distinguishes this expected abort from a real error.
    stalled: bool,
    /// Channel id → `(communicator id, wire tag)`.
    chans: Vec<(u32, u64)>,
    /// Communicator id → (wire tag → channel id). One small map per
    /// communicator keeps a rank's lookups within the maps of its own
    /// few communicators; a single table of every channel (COSMA at
    /// p = 2¹⁶ has 130K) misses cache on nearly every op.
    chan_ids: Vec<FastMap<u64, u32>>,
    sizes: Interner<u64>,
    /// Keyed by the bits of `pairs`, so interning is bit-exact.
    charges: Interner<(u64, u64)>,
    comms: Vec<Arc<Vec<usize>>>,
    splits: FastMap<(u32, u64), SplitRec>,
}

impl RecordState {
    fn chan(&mut self, comm: u32, tag: u64) -> u32 {
        let chans = &mut self.chans;
        *self.chan_ids[comm as usize].entry(tag).or_insert_with(|| {
            let id = u32::try_from(chans.len()).expect("too many channels");
            chans.push((comm, tag));
            id
        })
    }

    /// Registers the next communicator id's members.
    fn add_comm(&mut self, members: Vec<usize>) {
        self.comms.push(Arc::new(members));
        self.chan_ids.push(FastMap::default());
    }

    /// Resolves every fully-deposited, still-unresolved split, in
    /// deterministic `(parent communicator, epoch)` order so child
    /// communicator ids do not depend on the pass's rank iteration.
    /// Mirrors the SPMD world's resolution exactly: colors sorted and
    /// deduplicated, members ordered by `(key, parent rank)`, one fresh
    /// communicator per color in color order — obtained by sorting the
    /// `(color, key, parent rank)` triples once and cutting the sorted
    /// run at each color change, O(p log p) per rendezvous. Returns how
    /// many rendezvous were resolved.
    fn resolve_splits(&mut self) -> usize {
        let mut ready: Vec<(u32, u64)> = self
            .splits
            .iter()
            .filter(|(_, s)| s.placement.is_none() && s.missing == 0)
            .map(|(&k, _)| k)
            .collect();
        ready.sort_unstable();
        for &(parent, epoch) in &ready {
            let parent_members = Arc::clone(&self.comms[parent as usize]);
            let rec = &self.splits[&(parent, epoch)];
            let mut order: Vec<(u64, i64, usize)> = rec
                .deposits
                .iter()
                .enumerate()
                .map(|(parent_rank, d)| {
                    let (color, key) = d.expect("resolved split has every deposit");
                    (color, key, parent_rank)
                })
                .collect();
            order.sort_unstable();
            let mut placement = vec![(0, 0); order.len()];
            for group in order.chunk_by(|a, b| a.0 == b.0) {
                let id = u32::try_from(self.comms.len()).expect("too many communicators");
                let world: Vec<usize> = group
                    .iter()
                    .enumerate()
                    .map(|(child_rank, &(_, _, parent_rank))| {
                        placement[parent_rank] = (id, child_rank as u32);
                        parent_members[parent_rank]
                    })
                    .collect();
                self.add_comm(world);
            }
            self.splits
                .get_mut(&(parent, epoch))
                .expect("rendezvous vanished")
                .placement = Some(placement);
        }
        ready.len()
    }
}

/// One rank's recording handle: the third `Communicator` substrate.
/// Every operation appends to the shared op buffer and returns
/// immediately — no clocks, no blocking, no other ranks.
pub struct RecordComm<'r> {
    st: &'r RefCell<RecordState>,
    comm: u32,
    /// World ranks of this communicator's members, in rank order.
    members: Arc<Vec<usize>>,
    my_rank: usize,
    /// Per-communicator split counter, mirroring [`crate::spmd::SimComm`].
    epoch: Cell<u64>,
    /// Per-communicator barrier counter.
    barrier_seq: Cell<u64>,
}

impl<'r> RecordComm<'r> {
    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn world_me(&self) -> usize {
        self.members[self.my_rank]
    }

    /// Records a send of `bytes` to `dst` (communicator rank).
    pub fn send_bytes(&self, dst: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        let dst_w = self.members[dst] as u32;
        let mut st = self.st.borrow_mut();
        let chan = st.chan(self.comm, tag);
        let size = st.sizes.id(bytes);
        st.ops.push(Op::Send {
            chan,
            dst: dst_w,
            size,
        });
        Ok(())
    }

    /// Records a receive from `src` with no payload-size expectation
    /// (the returned size is a placeholder — collective internals
    /// discard it). The replay delivers whatever the matching send
    /// carried.
    pub fn recv_bytes_unchecked(&self, src: usize, tag: u64) -> Result<u64, CommError> {
        self.record_recv(src, tag, u64::MAX);
        Ok(0)
    }

    /// Records a receive from `src` expecting exactly `bytes`; the
    /// replay asserts the matching message's size.
    pub fn recv_bytes_expect(&self, src: usize, tag: u64, bytes: u64) -> Result<(), CommError> {
        assert_ne!(bytes, u64::MAX, "u64::MAX is the unchecked sentinel");
        self.record_recv(src, tag, bytes);
        Ok(())
    }

    fn record_recv(&self, src: usize, tag: u64, bytes: u64) {
        let src_w = self.members[src] as u32;
        let mut st = self.st.borrow_mut();
        let chan = st.chan(self.comm, tag);
        let size = st.sizes.id(bytes);
        st.ops.push(Op::Recv {
            chan,
            src: src_w,
            size,
        });
    }

    /// Records a compute charge of `pairs` multiply-add pairs (stamped
    /// with `flops` for the trace), mirroring `SimComm::compute`.
    pub fn compute(&self, pairs: f64, flops: u64) {
        let mut st = self.st.borrow_mut();
        let charge = st.charges.id((pairs.to_bits(), flops));
        st.ops.push(Op::Compute { charge });
    }

    /// Records a pivot-step span around `f`.
    pub fn trace_step<R>(&self, k: usize, outer: usize, inner: usize, f: impl FnOnce() -> R) -> R {
        self.st.borrow_mut().ops.push(Op::StepPush {
            k: k as u32,
            outer: outer as u32,
            inner: inner as u32,
        });
        let out = f();
        self.st.borrow_mut().ops.push(Op::StepPop);
        out
    }

    /// Records a group barrier.
    pub fn barrier(&self) -> Result<(), CommError> {
        let seq = self.barrier_seq.get();
        self.barrier_seq.set(seq + 1);
        self.st.borrow_mut().ops.push(Op::Barrier {
            comm: self.comm,
            seq: seq as u32,
        });
        Ok(())
    }

    /// Records a world-wide clock alignment when the recording was made
    /// with `step_sync`, mirroring `SimComm::maybe_step_sync`.
    pub fn maybe_step_sync(&self) -> Result<(), CommError> {
        if self.st.borrow().step_sync {
            assert_eq!(
                self.members.len(),
                self.st.borrow().programs_len_hint(),
                "maybe_step_sync must be called on the world communicator"
            );
            self.barrier()?;
        }
        Ok(())
    }

    /// Splits this communicator by `color`, members ordered by
    /// `(key, parent rank)` — same contract as the live substrates.
    ///
    /// If the rendezvous is not yet resolved (some member has not
    /// deposited in an earlier pass), the deposit is kept and the pass
    /// aborts with a sentinel error the driver recognizes; the rank
    /// re-runs after the next resolution round.
    pub fn split(&self, color: u64, key: i64) -> Result<RecordComm<'r>, CommError> {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        let rkey = (self.comm, epoch);
        let me_w = self.world_me();
        let group = self.members.len();
        let mut st = self.st.borrow_mut();
        let entry = st.splits.entry(rkey).or_insert_with(|| SplitRec {
            deposits: vec![None; group],
            missing: group,
            placement: None,
        });
        match entry.deposits[self.my_rank] {
            None => {
                entry.deposits[self.my_rank] = Some((color, key));
                entry.missing -= 1;
            }
            Some(prev) => assert_eq!(
                prev,
                (color, key),
                "rank {me_w} deposited a different (color, key) on re-run: \
                 the schedule is not deterministic and cannot be recorded"
            ),
        }
        let Some(placement) = entry.placement.as_ref() else {
            st.stalled = true;
            // Sentinel abort: the driver re-runs this rank once the
            // rendezvous resolves. `Cancelled` (not `Timeout`) so a
            // buggy non-collective split that never resolves is
            // distinguishable in the panic message.
            return Err(CommError::Cancelled {
                edge: CommEdge {
                    rank: me_w,
                    peer: me_w,
                    ctx: self.comm as u64,
                    tag: 0,
                    epoch,
                },
                op: "split",
            });
        };
        let (child, my_rank) = placement[self.my_rank];
        st.ops.push(Op::Split {
            comm: self.comm,
            seq: epoch as u32,
        });
        let members = Arc::clone(&st.comms[child as usize]);
        drop(st);
        let my_rank = my_rank as usize;
        debug_assert_eq!(members[my_rank], me_w);
        Ok(RecordComm {
            st: self.st,
            comm: child,
            members,
            my_rank,
            epoch: Cell::new(0),
            barrier_seq: Cell::new(0),
        })
    }
}

impl RecordState {
    /// World size, for the `maybe_step_sync` world-communicator assert.
    fn programs_len_hint(&self) -> usize {
        self.comms[0].len()
    }
}

/// Records the SPMD program `f` for a `p`-rank world: runs each rank's
/// closure to completion sequentially (re-running ranks that stall at
/// split rendezvous, see module docs) and returns the per-rank op
/// programs.
///
/// `step_sync` selects the per-step-synchronized semantics, exactly like
/// the `step_sync` flag of [`crate::spmd::SimWorld::run`].
///
/// # Panics
/// Panics if a rank's closure returns a real error (recording is a clean
/// run: deadlines and faults belong to replay), or if recording cannot
/// make progress (a split that is not collective over its communicator).
pub fn record<F>(p: usize, step_sync: bool, f: F) -> RecordedProgram
where
    F: for<'r> Fn(&RecordComm<'r>) -> Result<(), CommError>,
{
    assert!(p > 0, "need at least one rank");
    let world: Arc<Vec<usize>> = Arc::new((0..p).collect());
    let st = RefCell::new(RecordState {
        step_sync,
        ops: Vec::new(),
        stalled: false,
        chans: Vec::new(),
        chan_ids: vec![FastMap::default()],
        sizes: Interner::new(),
        charges: Interner::new(),
        comms: vec![Arc::clone(&world)],
        splits: FastMap::default(),
    });
    let mut programs: Vec<Option<Vec<Op>>> = (0..p).map(|_| None).collect();
    loop {
        let mut completed_this_pass = 0usize;
        for (rank, slot) in programs.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            {
                let mut s = st.borrow_mut();
                s.ops.clear();
                s.stalled = false;
            }
            let comm = RecordComm {
                st: &st,
                comm: 0,
                members: Arc::clone(&world),
                my_rank: rank,
                epoch: Cell::new(0),
                barrier_seq: Cell::new(0),
            };
            match f(&comm) {
                Ok(()) => {
                    // A clone is allocated at exactly the program's
                    // length; the scratch buffer keeps its capacity.
                    *slot = Some(st.borrow().ops.clone());
                    completed_this_pass += 1;
                }
                Err(e) => {
                    assert!(
                        st.borrow().stalled,
                        "recording must be a clean run, but rank {rank} failed: {e:?}"
                    );
                }
            }
        }
        if programs.iter().all(Option::is_some) {
            break;
        }
        let resolved = st.borrow_mut().resolve_splits();
        assert!(
            resolved > 0 || completed_this_pass > 0,
            "recording made no progress: a split rendezvous never completed \
             (is the split collective over its communicator?)"
        );
    }
    let st = st.into_inner();
    RecordedProgram {
        programs: programs.into_iter().map(Option::unwrap).collect(),
        chans: st.chans,
        sizes: st.sizes.keys,
        charges: st
            .charges
            .keys
            .into_iter()
            .map(|(pairs, flops)| (f64::from_bits(pairs), flops))
            .collect(),
        comms: st.comms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An op with its size and charge indices looked up in the
    /// program's tables.
    #[derive(Debug, PartialEq)]
    enum Decoded {
        Send { chan: u32, dst: u32, bytes: u64 },
        Recv { chan: u32, src: u32, bytes: u64 },
        Compute { pairs: f64, flops: u64 },
        Other(Op),
    }

    /// Rank `r`'s program, decoded through the interning tables.
    fn decoded(prog: &RecordedProgram, r: usize) -> Vec<Decoded> {
        prog.programs[r]
            .iter()
            .map(|&op| match op {
                Op::Send { chan, dst, size } => Decoded::Send {
                    chan,
                    dst,
                    bytes: prog.sizes[size as usize],
                },
                Op::Recv { chan, src, size } => Decoded::Recv {
                    chan,
                    src,
                    bytes: prog.sizes[size as usize],
                },
                Op::Compute { charge } => {
                    let (pairs, flops) = prog.charges[charge as usize];
                    Decoded::Compute { pairs, flops }
                }
                other => Decoded::Other(other),
            })
            .collect()
    }

    #[test]
    fn point_to_point_records_world_ranks_and_bytes() {
        let prog = record(2, false, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, 1000)?;
            } else {
                comm.recv_bytes_expect(0, 7, 1000)?;
            }
            Ok(())
        });
        assert_eq!(prog.ranks(), 2);
        assert_eq!(
            decoded(&prog, 0),
            vec![Decoded::Send {
                chan: 0,
                dst: 1,
                bytes: 1000
            }]
        );
        assert_eq!(
            decoded(&prog, 1),
            vec![Decoded::Recv {
                chan: 0,
                src: 0,
                bytes: 1000
            }]
        );
        assert_eq!(prog.chans, vec![(0, 7)]);
        // Both sides share the one interned size.
        assert_eq!(prog.sizes, vec![1000]);
    }

    #[test]
    fn split_resolves_like_the_spmd_world() {
        // Mirrors spmd's split_is_free_and_orders_by_key_then_parent_rank.
        let prog = record(4, false, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, -(comm.rank() as i64))?;
            // Color 0 = world {0, 2}, keys {0, -2}: order [2, 0].
            // Color 1 = world {1, 3}, keys {-1, -3}: order [3, 1].
            match comm.rank() {
                0 => assert_eq!((sub.rank(), sub.size()), (1, 2)),
                2 => assert_eq!((sub.rank(), sub.size()), (0, 2)),
                1 => assert_eq!((sub.rank(), sub.size()), (1, 2)),
                3 => assert_eq!((sub.rank(), sub.size()), (0, 2)),
                _ => unreachable!(),
            }
            sub.send_bytes((sub.rank() + 1) % 2, 5, 8)?;
            sub.recv_bytes_unchecked((sub.rank() + 1) % 2, 5)?;
            Ok(())
        });
        // Two children after the world: colors 0 and 1 in sorted order.
        assert_eq!(prog.comm_count(), 3);
        assert_eq!(*prog.comms[1], vec![2, 0]);
        assert_eq!(*prog.comms[2], vec![3, 1]);
    }

    #[test]
    fn nested_splits_converge_over_passes() {
        let prog = record(4, false, |comm| {
            let half = comm.split((comm.rank() / 2) as u64, comm.rank() as i64)?;
            let single = half.split(half.rank() as u64, 0)?;
            assert_eq!(single.size(), 1);
            Ok(())
        });
        // World + 2 halves + 4 singletons.
        assert_eq!(prog.comm_count(), 7);
        for p in &prog.programs {
            assert_eq!(
                p.iter().filter(|o| matches!(o, Op::Split { .. })).count(),
                2
            );
        }
    }

    #[test]
    fn step_sync_inserts_world_barriers() {
        let prog = record(2, true, |comm| {
            comm.compute(10.0, 20);
            comm.maybe_step_sync()?;
            Ok(())
        });
        assert_eq!(
            decoded(&prog, 0),
            vec![
                Decoded::Compute {
                    pairs: 10.0,
                    flops: 20
                },
                Decoded::Other(Op::Barrier { comm: 0, seq: 0 })
            ]
        );
    }

    /// The resolution the SPMD world specifies, written the obvious
    /// way: colors sorted, each color's members ordered by
    /// `(key, parent rank)`, one child per color in color order.
    /// Returns each child's members as parent ranks.
    fn naive_split(deposits: &[(u64, i64)]) -> Vec<Vec<usize>> {
        let mut colors: Vec<u64> = deposits.iter().map(|d| d.0).collect();
        colors.sort_unstable();
        colors.dedup();
        colors
            .iter()
            .map(|&c| {
                let mut members: Vec<(i64, usize)> = deposits
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.0 == c)
                    .map(|(r, d)| (d.1, r))
                    .collect();
                members.sort_unstable();
                members.into_iter().map(|(_, r)| r).collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn split_resolution_matches_the_naive_reference(
            raw in prop::collection::vec((0u64..u64::MAX, -4i64..4), 1..4097),
            spread in 1u64..4097,
        ) {
            // At most `spread` distinct colors, scattered over the whole
            // u64 range; keys collide often, so ties fall to the parent
            // rank.
            let deposit = |w: usize| {
                let (c, k) = raw[w];
                ((c % spread).wrapping_mul(0x9E37_79B9_7F4A_7C15), k)
            };
            let p = raw.len();
            // Split the world into reversed even/odd halves, then split
            // each half by the random deposits: the second level checks
            // parent-rank → world-rank mapping and the id order across
            // rendezvous resolved in the same pass.
            let prog = record(p, false, |comm| {
                let half = comm.split((comm.rank() % 2) as u64, -(comm.rank() as i64))?;
                let (color, key) = deposit(comm.rank());
                half.split(color, key)?;
                Ok(())
            });
            let halves =
                naive_split(&(0..p).map(|w| ((w % 2) as u64, -(w as i64))).collect::<Vec<_>>());
            let mut expected = halves.clone();
            for half in &halves {
                let deposits: Vec<(u64, i64)> = half.iter().map(|&w| deposit(w)).collect();
                for child in naive_split(&deposits) {
                    expected.push(child.into_iter().map(|i| half[i]).collect());
                }
            }
            let got: Vec<Vec<usize>> = prog.comms[1..].iter().map(|c| c.to_vec()).collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    #[should_panic(expected = "clean run")]
    fn real_errors_panic_the_recorder() {
        let _ = record(1, false, |_| {
            Err(CommError::Shutdown {
                rank: 0,
                detail: "boom".into(),
            })
        });
    }
}
