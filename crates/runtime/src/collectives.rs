//! Collective operations built message-by-message over point-to-point.
//!
//! The paper (§II-B) surveys the broadcast algorithms MPI implementations
//! choose from — trees for short messages, pipelined or scatter/allgather
//! schemes for long ones — and analyses SUMMA/HSUMMA under two of them
//! (binomial tree and van de Geijn's scatter + allgather, §IV). This module
//! implements the full menu over the runtime's point-to-point layer so the
//! distributed algorithms can be parameterized by broadcast algorithm, just
//! as the analysis is:
//!
//! | [`BcastAlgorithm`] | messages on the critical path | model cost |
//! |---|---|---|
//! | `Flat` | root sends `p−1` copies | `(p−1)(α+mβ)` |
//! | `Binomial` | `⌈log₂p⌉` rounds of full copies | `log₂(p)(α+mβ)` |
//! | `Binary` | depth `⌊log₂p⌋` tree, 2 sends per node | `≈2log₂(p)(α+mβ)` |
//! | `Ring` | chain of `p−1` full copies | `(p−1)(α+mβ)` |
//! | `Pipelined{s}` | chain of `p−1+s−1` segments | `(p+s−2)(α+mβ/s)` |
//! | `ScatterAllgather` | binomial scatter + ring allgather | `(log₂p+p−1)α + 2((p−1)/p)mβ` |
//!
//! Reductions, gathers and barriers follow the textbook constructions
//! (binomial reduce, flat gather, dissemination barrier).
//!
//! The broadcast trees and the binomial reduce are written once, in
//! [`bcast_tree`] and [`reduce_tree`], over the small [`TreeP2p`] link.
//! The runtime runs them with `Arc`-sharing links below; the simulator,
//! the schedule recorder and the sparse subsystem run the same trees
//! with links of their own.
//!
//! Every collective returns `Result<_, CommError>`: a blocked rank whose
//! job deadline passes (or whose job is cancelled, or whose peer dies)
//! unwinds out of the schedule with the stalled edge named instead of
//! hanging the world.

use crate::comm::{Comm, INTERNAL_TAG_BASE};
use crate::message::Tag;
use hsumma_trace::{CommError, WirePayload};
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

mod tree;
pub use tree::{bcast_tree, reduce_tree, Phase, TreeP2p};

pub(crate) const TAG_BARRIER: Tag = INTERNAL_TAG_BASE + 16;
const TAG_BCAST: Tag = INTERNAL_TAG_BASE + 17;
const TAG_GATHER: Tag = INTERNAL_TAG_BASE + 18;
const TAG_REDUCE: Tag = INTERNAL_TAG_BASE + 19;
const TAG_SCATTER: Tag = INTERNAL_TAG_BASE + 20;
const TAG_ALLGATHER: Tag = INTERNAL_TAG_BASE + 21;
const TAG_PIPELINE: Tag = INTERNAL_TAG_BASE + 22;
const TAG_ALLTOALL: Tag = INTERNAL_TAG_BASE + 23;
const TAG_ALLREDUCE: Tag = INTERNAL_TAG_BASE + 24;

// The algorithm selector itself lives in `hsumma-trace` (the leaf crate
// both substrates depend on) so the runtime and the simulator cannot
// drift; this module provides the executable schedules for it.
pub use hsumma_trace::{auto_bcast, BcastAlgorithm};

/// Dissemination barrier: `⌈log₂ p⌉` rounds, no root.
pub fn barrier(comm: &Comm) -> Result<(), CommError> {
    comm.trace_collective("barrier", "dissemination", 0, || {
        let p = comm.size();
        let r = comm.rank();
        let mut round = 1usize;
        while round < p {
            let dst = (r + round) % p;
            let src = (r + p - round % p) % p;
            comm.send_internal(dst, TAG_BARRIER, ())?;
            comm.recv_internal::<()>(src, TAG_BARRIER)?;
            round <<= 1;
        }
        Ok(())
    })
}

/// Broadcasts `value` from `root` using a whole-message algorithm.
///
/// `value` is read at the root only (other ranks may pass `None`); every
/// rank returns the broadcast value.
///
/// # Panics
/// Panics if the root passes `None`, or if `algo` requires segmentation
/// (use [`bcast_f64`] for those), or if `root >= comm.size()`.
pub fn bcast<T: Any + Send + Clone>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    value: Option<T>,
) -> Result<T, CommError> {
    assert!(root < comm.size(), "root out of range");
    assert!(
        !algo.needs_segmentation(),
        "{algo:?} needs a sliceable payload; use bcast_f64"
    );
    assert!(
        value.is_some() || comm.rank() != root,
        "root must supply the value"
    );
    comm.trace_collective("bcast", algo.name(), root, || {
        bcast_value(comm, algo, root, TAG_BCAST, value)
    })
}

/// Broadcasts a whole value under `tag`: the body of [`bcast`] and of
/// the internal protocols (split, allgather, allreduce). The root
/// passes `Some`; every rank returns the value.
pub(crate) fn bcast_value<T: Any + Send + Clone>(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    tag: Tag,
    value: Option<T>,
) -> Result<T, CommError> {
    let mut link = WholeValue { comm, tag, value };
    bcast_tree(&mut link, (comm.size(), comm.rank()), algo, root, 0)?;
    Ok(link.value.expect("bcast delivered no value"))
}

/// Runtime wire tag of each tree phase.
fn phase_tag(phase: Phase) -> Tag {
    match phase {
        Phase::Bcast => TAG_BCAST,
        Phase::Pipeline => TAG_PIPELINE,
        Phase::Scatter => TAG_SCATTER,
        Phase::Allgather => TAG_ALLGATHER,
        Phase::Reduce => TAG_REDUCE,
    }
}

/// Tree link that moves one whole value under a fixed tag: every edge
/// ships a clone of the value, and a receive replaces it.
struct WholeValue<'c, T> {
    comm: &'c Comm,
    tag: Tag,
    value: Option<T>,
}

impl<T: Any + Send + Clone> TreeP2p for WholeValue<'_, T> {
    fn send(&mut self, _: Phase, peer: usize, _: Range<usize>) -> Result<(), CommError> {
        let value = self.value.clone().expect("tree sent before it received");
        self.comm.send_internal(peer, self.tag, value)
    }
    fn recv(&mut self, _: Phase, peer: usize, _: Range<usize>) -> Result<(), CommError> {
        self.value = Some(self.comm.recv_internal(peer, self.tag)?);
        Ok(())
    }
}

/// Element range of chunk `i` when `len` elements are dealt over `p`
/// near-equal chunks (first `len % p` chunks get one extra element).
pub fn chunk_range(len: usize, p: usize, i: usize) -> (usize, usize) {
    let base = len / p;
    let rem = len % p;
    let start = i * base + i.min(rem);
    let extent = base + usize::from(i < rem);
    (start, start + extent)
}

/// Broadcasts the `f64` buffer from `root` in place. All ranks must pass a
/// buffer of identical length (the algorithms distribute *panels of known
/// shape*, so lengths are globally known — MPI's contract as well).
///
/// Supports every [`BcastAlgorithm`] including the segmenting ones.
pub fn bcast_f64(
    comm: &Comm,
    algo: BcastAlgorithm,
    root: usize,
    data: &mut [f64],
) -> Result<(), CommError> {
    assert!(root < comm.size(), "root out of range");
    if comm.size() == 1 {
        return Ok(());
    }
    comm.trace_collective("bcast", algo.name(), root, || {
        let len = data.len();
        let mut link = SharedF64 {
            comm,
            data,
            held: None,
        };
        bcast_tree(&mut link, (comm.size(), comm.rank()), algo, root, len)
    })
}

/// A window onto an `Arc`-shared snapshot: `buf[i]` is element `off + i`
/// of the broadcast buffer, and the message carries elements `range`.
/// Its wire size is the range's, however much of the buffer it shares.
#[derive(Clone)]
pub(crate) struct SharedRange {
    buf: Arc<Vec<f64>>,
    off: usize,
    range: Range<usize>,
}

impl SharedRange {
    fn covers(&self, r: &Range<usize>) -> bool {
        self.range.start <= r.start && r.end <= self.range.end
    }
    fn narrowed(&self, range: Range<usize>) -> SharedRange {
        SharedRange {
            buf: Arc::clone(&self.buf),
            off: self.off,
            range,
        }
    }
    fn as_slice(&self) -> &[f64] {
        &self.buf[self.range.start - self.off..self.range.end - self.off]
    }
}

impl WirePayload for SharedRange {
    fn payload_bytes(&self) -> u64 {
        (self.range.len() * 8) as u64
    }
}

/// Tree link for [`bcast_f64`]: edges carry [`SharedRange`] views, so a
/// relay forwards the buffer it received with a reference-count bump
/// instead of a deep copy. A rank copies out of `data` only when nothing
/// it received in the current phase covers the range: the root takes
/// one whole-buffer snapshot, and each allgather ring contribution
/// materializes just its own chunk.
struct SharedF64<'c, 'd> {
    comm: &'c Comm,
    data: &'d mut [f64],
    held: Option<(Phase, SharedRange)>,
}

impl TreeP2p for SharedF64<'_, '_> {
    fn send(&mut self, phase: Phase, peer: usize, range: Range<usize>) -> Result<(), CommError> {
        let msg = match &self.held {
            Some((held_phase, held)) if *held_phase == phase && held.covers(&range) => {
                held.narrowed(range)
            }
            _ => {
                let span = if phase == Phase::Allgather {
                    range.clone()
                } else {
                    0..self.data.len()
                };
                self.comm.count_payload_clone((span.len() * 8) as u64);
                let snapshot = SharedRange {
                    buf: Arc::new(self.data[span.clone()].to_vec()),
                    off: span.start,
                    range: span,
                };
                let msg = snapshot.narrowed(range);
                self.held = Some((phase, snapshot));
                msg
            }
        };
        self.comm.send_internal(peer, phase_tag(phase), msg)
    }
    fn recv(&mut self, phase: Phase, peer: usize, range: Range<usize>) -> Result<(), CommError> {
        let msg: SharedRange = self.comm.recv_internal(peer, phase_tag(phase))?;
        debug_assert_eq!(msg.range, range, "tree edge carried the wrong range");
        self.data[range].copy_from_slice(msg.as_slice());
        self.held = Some((phase, msg));
        Ok(())
    }
}

/// Flat gather: every rank's `value` collected at `root` in rank order.
/// Returns `Some(values)` at the root, `None` elsewhere.
pub fn gather<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
) -> Result<Option<Vec<T>>, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("gather", "flat", root, || gather_inner(comm, root, value))
}

fn gather_inner<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
) -> Result<Option<Vec<T>>, CommError> {
    if comm.rank() == root {
        let mut out: Vec<Option<T>> = (0..comm.size()).map(|_| None).collect();
        out[root] = Some(value);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = Some(comm.recv_internal(src, TAG_GATHER)?);
            }
        }
        Ok(Some(
            out.into_iter()
                .map(|v| v.expect("gather slot filled"))
                .collect(),
        ))
    } else {
        comm.send_internal(root, TAG_GATHER, value)?;
        Ok(None)
    }
}

/// Gather to rank 0 followed by a binomial broadcast of the table.
pub fn allgather<T: Any + Send + Clone>(comm: &Comm, value: T) -> Result<Vec<T>, CommError> {
    comm.trace_collective("allgather", "gather_bcast", 0, || {
        let gathered = gather_inner(comm, 0, value)?;
        bcast_value(comm, BcastAlgorithm::Binomial, 0, TAG_ALLGATHER, gathered)
    })
}

/// Binomial-tree reduction with a caller-supplied associative combiner.
/// Returns `Some(result)` at the root, `None` elsewhere.
pub fn reduce<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce", "binomial", root, || {
        reduce_inner(comm, root, value, combine)
    })
}

fn reduce_inner<T: Any + Send>(
    comm: &Comm,
    root: usize,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Result<Option<T>, CommError> {
    let mut link = Combine {
        comm,
        acc: Some(value),
        combine,
    };
    reduce_tree(&mut link, (comm.size(), comm.rank()), root, 0)?;
    Ok(link.acc)
}

/// Tree link for [`reduce`]: a receive folds the child's partial result
/// into the accumulator (in rank order relative to the root), a send
/// hands the accumulator up.
struct Combine<'c, T, F> {
    comm: &'c Comm,
    acc: Option<T>,
    combine: F,
}

impl<T: Any + Send, F: FnMut(T, T) -> T> TreeP2p for Combine<'_, T, F> {
    fn send(&mut self, phase: Phase, peer: usize, _: Range<usize>) -> Result<(), CommError> {
        let acc = self.acc.take().expect("reduce sent twice");
        self.comm.send_internal(peer, phase_tag(phase), acc)
    }
    fn recv(&mut self, phase: Phase, peer: usize, _: Range<usize>) -> Result<(), CommError> {
        let child: T = self.comm.recv_internal(peer, phase_tag(phase))?;
        let acc = self.acc.take().expect("reduce received after sending");
        self.acc = Some((self.combine)(acc, child));
        Ok(())
    }
}

/// Reduce to rank 0 then broadcast the result to everyone.
pub fn allreduce<T: Any + Send + Clone>(
    comm: &Comm,
    value: T,
    combine: impl FnMut(T, T) -> T,
) -> Result<T, CommError> {
    comm.trace_collective("allreduce", "reduce_bcast", 0, || {
        let reduced = reduce(comm, 0, value, combine)?;
        bcast_value(comm, BcastAlgorithm::Binomial, 0, TAG_REDUCE, reduced)
    })
}

/// Simultaneous send and receive (an `MPI_Sendrecv`): deadlock-free
/// because sends are eager.
pub fn sendrecv<T: Any + Send>(
    comm: &Comm,
    dst: usize,
    send_value: T,
    src: usize,
    tag: crate::message::Tag,
) -> Result<T, CommError> {
    comm.send(dst, tag, send_value)?;
    comm.recv(src, tag)
}

/// Flat scatter: the root deals `values[i]` to local rank `i` (the root
/// keeps its own slot). Non-roots pass `None`. Returns this rank's value.
///
/// # Panics
/// Panics if the root's vector length differs from the communicator size.
pub fn scatter<T: Any + Send>(
    comm: &Comm,
    root: usize,
    values: Option<Vec<T>>,
) -> Result<T, CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("scatter", "flat", root, || {
        scatter_inner(comm, root, values)
    })
}

fn scatter_inner<T: Any + Send>(
    comm: &Comm,
    root: usize,
    values: Option<Vec<T>>,
) -> Result<T, CommError> {
    if comm.rank() == root {
        let values = values.expect("root must supply the values");
        assert_eq!(values.len(), comm.size(), "one value per rank required");
        let mut mine = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == root {
                mine = Some(v);
            } else {
                comm.send_internal(dst, TAG_SCATTER, v)?;
            }
        }
        Ok(mine.expect("root keeps its own slot"))
    } else {
        assert!(values.is_none(), "only the root supplies values");
        comm.recv_internal(root, TAG_SCATTER)
    }
}

/// Personalized all-to-all exchange: rank `r` sends `values[d]` to rank
/// `d` and returns the vector of values received, indexed by source.
///
/// # Panics
/// Panics if `values.len() != comm.size()`.
pub fn alltoall<T: Any + Send>(comm: &Comm, values: Vec<T>) -> Result<Vec<T>, CommError> {
    let p = comm.size();
    assert_eq!(values.len(), p, "one value per destination required");
    comm.trace_collective("alltoall", "pairwise", 0, || {
        let me = comm.rank();
        let mut mine = None;
        for (dst, v) in values.into_iter().enumerate() {
            if dst == me {
                mine = Some(v);
            } else {
                comm.send_internal(dst, TAG_ALLTOALL, v)?;
            }
        }
        (0..p)
            .map(|src| {
                if src == me {
                    Ok(mine.take().expect("own slot present"))
                } else {
                    comm.recv_internal(src, TAG_ALLTOALL)
                }
            })
            .collect()
    })
}

/// Element-wise sum reduction of equal-length `f64` buffers to `root`
/// over a binomial tree. On return the root's buffer holds the sum;
/// other buffers are left in an unspecified partial state (like an MPI
/// send buffer).
pub fn reduce_sum_f64(comm: &Comm, root: usize, data: &mut [f64]) -> Result<(), CommError> {
    assert!(root < comm.size(), "root out of range");
    comm.trace_collective("reduce_sum", "binomial", root, || {
        let sum = reduce_inner(comm, root, data.to_vec(), |mut acc, child: Vec<f64>| {
            assert_eq!(
                child.len(),
                acc.len(),
                "reduce buffers must match in length"
            );
            for (a, b) in acc.iter_mut().zip(&child) {
                *a += b;
            }
            acc
        })?;
        if let Some(sum) = sum {
            data.copy_from_slice(&sum);
        }
        Ok(())
    })
}

/// Bandwidth-optimal all-reduce of `f64` buffers à la Rabenseifner:
/// ring reduce-scatter (each rank ends owning the sum of one chunk) then
/// ring allgather. Bandwidth `≈ 2(p−1)/p · m·β`, like the van de Geijn
/// broadcast — the long-vector algorithm MPI implementations use.
pub fn allreduce_sum_f64(comm: &Comm, data: &mut [f64]) -> Result<(), CommError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    comm.trace_collective("allreduce_sum", "ring", 0, || {
        allreduce_sum_f64_inner(comm, data)
    })
}

fn allreduce_sum_f64_inner(comm: &Comm, data: &mut [f64]) -> Result<(), CommError> {
    let p = comm.size();
    let me = comm.rank();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let len = data.len();

    // Reduce-scatter: after p−1 rounds, rank r owns the full sum of
    // chunk (r+1) mod p.
    for k in 0..p - 1 {
        let send_chunk = (me + p - k) % p;
        let recv_chunk = (me + p - k - 1) % p;
        let (slo, shi) = chunk_range(len, p, send_chunk);
        comm.send_internal(next, TAG_ALLREDUCE, data[slo..shi].to_vec())?;
        let seg: Vec<f64> = comm.recv_internal(prev, TAG_ALLREDUCE)?;
        let (rlo, rhi) = chunk_range(len, p, recv_chunk);
        for (a, b) in data[rlo..rhi].iter_mut().zip(&seg) {
            *a += b;
        }
    }
    // Allgather of the owned chunks around the ring.
    for k in 0..p - 1 {
        let send_chunk = (me + 1 + p - k) % p;
        let recv_chunk = (me + p - k) % p;
        let (slo, shi) = chunk_range(len, p, send_chunk);
        comm.send_internal(next, TAG_ALLREDUCE, data[slo..shi].to_vec())?;
        let seg: Vec<f64> = comm.recv_internal(prev, TAG_ALLREDUCE)?;
        let (rlo, rhi) = chunk_range(len, p, recv_chunk);
        data[rlo..rhi].copy_from_slice(&seg);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use proptest::prelude::*;

    const ALGOS: [BcastAlgorithm; 6] = [
        BcastAlgorithm::Flat,
        BcastAlgorithm::Binomial,
        BcastAlgorithm::Binary,
        BcastAlgorithm::Ring,
        BcastAlgorithm::Pipelined { segments: 4 },
        BcastAlgorithm::ScatterAllgather,
    ];

    #[test]
    fn chunk_ranges_partition_the_buffer() {
        for len in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let mut cursor = 0;
                for i in 0..p {
                    let (lo, hi) = chunk_range(len, p, i);
                    assert_eq!(lo, cursor, "len={len} p={p} i={i}");
                    assert!(hi >= lo);
                    cursor = hi;
                }
                assert_eq!(cursor, len);
            }
        }
    }

    proptest! {
        // The segment-dealing edge cases the scatter-allgather and
        // pipelined broadcasts rely on: chunks tile [0, len) in order,
        // sizes differ by at most one, and the first len % p chunks get
        // the extra element. Covers p > len (zero-length chunks) and
        // non-divisible splits by construction.
        #[test]
        fn chunk_range_tiles_exactly(len in 0usize..10_000, p in 1usize..256) {
            let mut cursor = 0;
            for i in 0..p {
                let (lo, hi) = chunk_range(len, p, i);
                prop_assert_eq!(lo, cursor);
                prop_assert!(hi >= lo);
                cursor = hi;
            }
            prop_assert_eq!(cursor, len);
        }

        #[test]
        fn chunk_range_sizes_are_balanced(len in 0usize..10_000, p in 1usize..256) {
            let sizes: Vec<usize> = (0..p)
                .map(|i| {
                    let (lo, hi) = chunk_range(len, p, i);
                    hi - lo
                })
                .collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "sizes differ by more than one: {:?}", sizes);
            // The first len % p chunks carry the extra element.
            for (i, s) in sizes.iter().enumerate() {
                prop_assert_eq!(*s, len / p + usize::from(i < len % p));
            }
        }

        #[test]
        fn chunk_range_more_ranks_than_elements(len in 0usize..16, p in 16usize..512) {
            // p > len: exactly `len` chunks are non-empty, the rest are
            // zero-length slices sitting at the end of the buffer.
            let nonempty = (0..p)
                .filter(|&i| {
                    let (lo, hi) = chunk_range(len, p, i);
                    hi > lo
                })
                .count();
            prop_assert_eq!(nonempty, len.min(p));
            for i in len..p {
                let (lo, hi) = chunk_range(len, p, i);
                prop_assert_eq!((lo, hi), (len, len), "tail chunk {} not empty", i);
            }
        }
    }

    #[test]
    fn whole_message_bcast_delivers_to_all_ranks_and_roots() {
        for p in [1usize, 2, 5, 8] {
            for algo in [
                BcastAlgorithm::Flat,
                BcastAlgorithm::Binomial,
                BcastAlgorithm::Binary,
                BcastAlgorithm::Ring,
            ] {
                for root in [0, p - 1, p / 2] {
                    let out = Runtime::run(p, |comm| {
                        let v = if comm.rank() == root {
                            Some(42u64)
                        } else {
                            None
                        };
                        bcast(comm, algo, root, v).unwrap()
                    });
                    assert_eq!(out, vec![42u64; p], "p={p} algo={algo:?} root={root}");
                }
            }
        }
    }

    #[test]
    fn f64_bcast_all_algorithms_all_roots() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for algo in ALGOS {
                for root in 0..p {
                    let out = Runtime::run(p, |comm| {
                        let mut buf = if comm.rank() == root {
                            (0..37).map(|i| i as f64 * 1.5).collect::<Vec<_>>()
                        } else {
                            vec![0.0; 37]
                        };
                        bcast_f64(comm, algo, root, &mut buf).unwrap();
                        buf
                    });
                    let want: Vec<f64> = (0..37).map(|i| i as f64 * 1.5).collect();
                    for (rank, buf) in out.iter().enumerate() {
                        assert_eq!(buf, &want, "p={p} algo={algo:?} root={root} rank={rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn f64_bcast_payload_shorter_than_comm() {
        // Fewer elements than ranks: some scatter chunks are empty.
        let out = Runtime::run(8, |comm| {
            let mut buf = if comm.rank() == 0 {
                vec![3.25, -1.5, 7.0]
            } else {
                vec![0.0; 3]
            };
            bcast_f64(comm, BcastAlgorithm::ScatterAllgather, 0, &mut buf).unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![3.25, -1.5, 7.0]);
        }
    }

    #[test]
    fn pipelined_with_more_segments_than_elements() {
        let out = Runtime::run(4, |comm| {
            let mut buf = if comm.rank() == 0 {
                vec![1.0, 2.0]
            } else {
                vec![0.0; 2]
            };
            bcast_f64(
                comm,
                BcastAlgorithm::Pipelined { segments: 16 },
                0,
                &mut buf,
            )
            .unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Runtime::run(5, |comm| gather(comm, 2, comm.rank() as u32).unwrap());
        for (rank, res) in out.iter().enumerate() {
            if rank == 2 {
                assert_eq!(res.as_deref(), Some(&[0u32, 1, 2, 3, 4][..]));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn allgather_gives_everyone_the_table() {
        let out = Runtime::run(4, |comm| {
            allgather(comm, (comm.rank() * 10) as u32).unwrap()
        });
        for table in out {
            assert_eq!(table, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn reduce_sums_at_root_only() {
        let out = Runtime::run(6, |comm| {
            reduce(comm, 1, comm.rank() as u64, |a, b| a + b).unwrap()
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == 1 {
                assert_eq!(*res, Some(15));
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn reduce_respects_non_commutative_order() {
        // String concatenation is associative but not commutative; the
        // binomial tree must still produce rank order relative to the root.
        let out = Runtime::run(4, |comm| {
            reduce(comm, 0, comm.rank().to_string(), |a, b| format!("{a}{b}")).unwrap()
        });
        assert_eq!(out[0].as_deref(), Some("0123"));
    }

    #[test]
    fn allreduce_delivers_everywhere() {
        let out = Runtime::run(7, |comm| allreduce(comm, 1u64, |a, b| a + b).unwrap());
        assert_eq!(out, vec![7u64; 7]);
    }

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let out = Runtime::run(p, |comm| {
                barrier(comm).unwrap();
                barrier(comm).unwrap();
                true
            });
            assert_eq!(out, vec![true; p]);
        }
    }

    #[test]
    fn auto_bcast_picks_tree_for_short_and_vdg_for_long() {
        assert_eq!(auto_bcast(100, 64), BcastAlgorithm::Binomial);
        assert_eq!(auto_bcast(1 << 20, 64), BcastAlgorithm::ScatterAllgather);
        // Small communicators stay on the tree even for long messages.
        assert_eq!(auto_bcast(1 << 20, 4), BcastAlgorithm::Binomial);
    }

    #[test]
    fn auto_bcast_delivers_correctly_on_both_sides_of_the_threshold() {
        for elems in [64usize, 4096] {
            let out = Runtime::run(8, |comm| {
                let algo = auto_bcast(elems * 8, comm.size());
                let mut buf = if comm.rank() == 3 {
                    vec![2.5f64; elems]
                } else {
                    vec![0.0; elems]
                };
                bcast_f64(comm, algo, 3, &mut buf).unwrap();
                buf[elems - 1]
            });
            assert_eq!(out, vec![2.5; 8]);
        }
    }

    #[test]
    fn sendrecv_swaps_values() {
        let out = Runtime::run(2, |comm| {
            let peer = 1 - comm.rank();
            sendrecv(comm, peer, comm.rank() as u32 * 100, peer, 7).unwrap()
        });
        assert_eq!(out, vec![100, 0]);
    }

    #[test]
    fn scatter_deals_one_value_per_rank() {
        let out = Runtime::run(4, |comm| {
            let values = (comm.rank() == 1).then(|| vec![10u32, 11, 12, 13]);
            scatter(comm, 1, values).unwrap()
        });
        assert_eq!(out, vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "one value per rank")]
    fn scatter_rejects_wrong_count() {
        let _ = Runtime::run(2, |comm| {
            let values = (comm.rank() == 0).then(|| vec![1u8]);
            scatter(comm, 0, values).unwrap()
        });
    }

    #[test]
    fn alltoall_transposes_the_exchange_matrix() {
        let p = 4;
        let out = Runtime::run(p, |comm| {
            // Rank r sends (r, d) to rank d.
            let values: Vec<(usize, usize)> = (0..p).map(|d| (comm.rank(), d)).collect();
            alltoall(comm, values).unwrap()
        });
        for (rank, received) in out.iter().enumerate() {
            for (src, pair) in received.iter().enumerate() {
                assert_eq!(*pair, (src, rank));
            }
        }
    }

    #[test]
    fn reduce_sum_f64_sums_at_root() {
        let out = Runtime::run(5, |comm| {
            let mut buf = vec![comm.rank() as f64; 16];
            reduce_sum_f64(comm, 2, &mut buf).unwrap();
            if comm.rank() == 2 {
                Some(buf)
            } else {
                None
            }
        });
        let sum = (0..5).sum::<usize>() as f64;
        assert_eq!(out[2].as_ref().expect("root holds result"), &vec![sum; 16]);
    }

    #[test]
    fn allreduce_sum_f64_everywhere_matches_binomial_reduce() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let out = Runtime::run(p, |comm| {
                let mut buf: Vec<f64> = (0..23).map(|i| (comm.rank() * 31 + i) as f64).collect();
                allreduce_sum_f64(comm, &mut buf).unwrap();
                buf
            });
            let want: Vec<f64> = (0..23)
                .map(|i| (0..p).map(|r| (r * 31 + i) as f64).sum())
                .collect();
            for (rank, buf) in out.iter().enumerate() {
                for (a, b) in buf.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9, "p={p} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn allreduce_handles_short_buffers() {
        // Fewer elements than ranks: some ring chunks are empty.
        let out = Runtime::run(8, |comm| {
            let mut buf = vec![1.0f64, 2.0];
            allreduce_sum_f64(comm, &mut buf).unwrap();
            buf
        });
        for buf in out {
            assert_eq!(buf, vec![8.0, 16.0]);
        }
    }

    #[test]
    fn bcast_counts_bytes_at_root() {
        let out = Runtime::run(2, |comm| {
            comm.reset_stats();
            let mut buf = if comm.rank() == 0 {
                vec![1.0; 100]
            } else {
                vec![0.0; 100]
            };
            bcast_f64(comm, BcastAlgorithm::Binomial, 0, &mut buf).unwrap();
            comm.stats().bytes_sent
        });
        assert_eq!(out[0], 800);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn ledgers_balance_for_every_collective_algorithm() {
        // Whatever one rank's ledger says went out must show up on some
        // other rank's receive ledger: Σ msgs_sent == Σ msgs_recv and
        // Σ bytes_sent == Σ bytes_recv over the world, per collective.
        let p = 8;
        let check = |label: &str, run: &(dyn Fn(&Comm) + Sync)| {
            let stats = Runtime::run(p, |comm| {
                comm.reset_stats();
                run(comm);
                comm.stats()
            });
            let total = stats
                .iter()
                .fold(crate::stats::CommStats::default(), |acc, s| acc.merge(s));
            assert_eq!(total.msgs_sent, total.msgs_recv, "{label}: message count");
            assert_eq!(total.bytes_sent, total.bytes_recv, "{label}: byte count");
            assert!(total.msgs_sent > 0, "{label}: nothing happened");
            // A clean run must not touch the failure counters.
            assert_eq!(
                (total.timeouts, total.cancelled, total.faults_injected),
                (0, 0, 0),
                "{label}: failure counters on a clean run"
            );
        };
        for algo in ALGOS {
            check(algo.name(), &move |comm: &Comm| {
                let mut buf = if comm.rank() == 1 {
                    vec![1.5; 96]
                } else {
                    vec![0.0; 96]
                };
                bcast_f64(comm, algo, 1, &mut buf).unwrap();
            });
        }
        check("barrier", &|comm: &Comm| barrier(comm).unwrap());
        check("gather", &|comm: &Comm| {
            let _ = gather(comm, 0, vec![comm.rank() as f64; 4]).unwrap();
        });
        check("allgather", &|comm: &Comm| {
            let _ = allgather(comm, comm.rank() as u64).unwrap();
        });
        check("reduce_sum", &|comm: &Comm| {
            let mut buf = vec![1.0; 32];
            reduce_sum_f64(comm, 2, &mut buf).unwrap();
        });
        check("allreduce_sum", &|comm: &Comm| {
            let mut buf = vec![1.0; 32];
            allreduce_sum_f64(comm, &mut buf).unwrap();
        });
        check("alltoall", &|comm: &Comm| {
            let vals: Vec<Vec<f64>> = (0..comm.size()).map(|d| vec![d as f64; 3]).collect();
            let _ = alltoall(comm, vals).unwrap();
        });
        check("scatter", &|comm: &Comm| {
            let vals =
                (comm.rank() == 0).then(|| (0..comm.size()).map(|d| vec![d as f64; 5]).collect());
            let _ = scatter::<Vec<f64>>(comm, 0, vals).unwrap();
        });
    }

    #[test]
    fn bcast_relays_forward_shared_payloads_without_copying() {
        const ELEMS: usize = 4096;
        const ROOT: usize = 2;
        let payload_bytes = (ELEMS * 8) as u64;
        for algo in [
            BcastAlgorithm::Flat,
            BcastAlgorithm::Binomial,
            BcastAlgorithm::Binary,
            BcastAlgorithm::Ring,
            BcastAlgorithm::Pipelined { segments: 4 },
        ] {
            let out = Runtime::run(8, |comm| {
                comm.reset_stats();
                let mut buf = if comm.rank() == ROOT {
                    vec![1.25; ELEMS]
                } else {
                    vec![0.0; ELEMS]
                };
                bcast_f64(comm, algo, ROOT, &mut buf).unwrap();
                let s = comm.stats();
                (s.payload_clones, s.payload_clone_bytes, buf)
            });
            for (rank, (clones, bytes, buf)) in out.iter().enumerate() {
                assert_eq!(buf, &vec![1.25; ELEMS], "algo={algo:?} rank={rank}");
                if rank == ROOT {
                    // The root materializes the payload exactly once —
                    // as a whole, or segment by segment when pipelining.
                    assert_eq!(*bytes, payload_bytes, "algo={algo:?}");
                } else {
                    // Relays bump an `Arc` refcount per hop; a nonzero
                    // count means a deep copy crept back in.
                    assert_eq!(
                        (*clones, *bytes),
                        (0, 0),
                        "relay deep-copied: algo={algo:?} rank={rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_ranks_materialize_at_most_one_chunk() {
        const ELEMS: usize = 4096;
        let p = 8;
        let chunk_bytes = (ELEMS / p * 8) as u64;
        let payload_bytes = (ELEMS * 8) as u64;
        let out = Runtime::run(p, |comm| {
            comm.reset_stats();
            let mut buf = if comm.rank() == 0 {
                vec![0.5; ELEMS]
            } else {
                vec![0.0; ELEMS]
            };
            bcast_f64(comm, BcastAlgorithm::ScatterAllgather, 0, &mut buf).unwrap();
            let s = comm.stats();
            (s.payload_clone_bytes, buf)
        });
        for (rank, (bytes, buf)) in out.iter().enumerate() {
            assert_eq!(buf, &vec![0.5; ELEMS], "rank={rank}");
            if rank == 0 {
                // Snapshot for the scatter tree + its own allgather chunk.
                assert_eq!(*bytes, payload_bytes + chunk_bytes);
            } else {
                // Ring contribution only — never the full payload.
                assert_eq!(*bytes, chunk_bytes, "rank={rank}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a sliceable payload")]
    fn generic_bcast_rejects_segmenting_algorithms() {
        let _ = Runtime::run(2, |comm| {
            bcast(comm, BcastAlgorithm::ScatterAllgather, 0, Some(1u8)).unwrap()
        });
    }
}
