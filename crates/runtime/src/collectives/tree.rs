//! The collective trees, each written exactly once.
//!
//! Every broadcast of the [`BcastAlgorithm`] menu and the binomial reduce
//! is defined here as a sequence of point-to-point edges over a
//! [`TreeP2p`] link: *which* peer, in *which* order, carrying *which*
//! element range, in *which* phase of the collective. The substrates
//! supply only a thin link that turns an edge into a message:
//!
//! * the threaded runtime moves `Arc`-shared `f64` buffers (or whole
//!   values) under its internal collective tags;
//! * the simulator and the schedule recorder (`hsumma-core`) send
//!   phantom byte counts under the simulator's collective tags;
//! * the sparse subsystem moves whole CSR panels under a user-level tag.
//!
//! Because no substrate owns a copy of a tree, real, simulated, recorded
//! and sparse traffic follow the same edges with the same wire sizes by
//! construction.

use super::chunk_range;
use hsumma_trace::{BcastAlgorithm, CommError};
use std::ops::Range;

/// Which leg of a collective an edge belongs to. Links map it to the
/// wire tag their substrate uses for that leg; the discriminant is the
/// offset of the simulator's tag above `COLLECTIVE_TAG_FLOOR`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A whole-message broadcast edge (flat, binomial, binary, ring).
    Bcast = 0,
    /// One segment on the pipelined chain.
    Pipeline = 1,
    /// A subtree's chunks on van de Geijn's binomial scatter.
    Scatter = 2,
    /// One chunk on van de Geijn's ring allgather.
    Allgather = 3,
    /// A partial result climbing the binomial reduce tree.
    Reduce = 4,
}

/// The point-to-point surface the trees run over. Peers are
/// communicator-local ranks; `range` is the slice of the collective's
/// `len`-element payload the edge carries (links that move whole values
/// ignore it). A link decides what a receive means: store the payload
/// for a broadcast, combine it for a reduce.
pub trait TreeP2p {
    /// Sends elements `range` to `peer`.
    fn send(&mut self, phase: Phase, peer: usize, range: Range<usize>) -> Result<(), CommError>;
    /// Receives elements `range` from `peer`.
    fn recv(&mut self, phase: Phase, peer: usize, range: Range<usize>) -> Result<(), CommError>;
}

/// Elements of chunk `i` when `len` elements are dealt over `parts`.
fn chunk(len: usize, parts: usize, i: usize) -> Range<usize> {
    let (lo, hi) = chunk_range(len, parts, i);
    lo..hi
}

/// Broadcasts `len` elements from `root` with `algo`, as rank `me` of
/// the `p` ranks `link` reaches.
///
/// Ranks are re-indexed so the root is virtual rank 0. Segmenting
/// algorithms deal elements with [`chunk_range`]; the others send the
/// whole range `0..len` on every edge.
///
/// # Panics
/// Panics if `root` is out of range or a pipeline has zero segments.
pub fn bcast_tree<L: TreeP2p>(
    link: &mut L,
    (p, me): (usize, usize),
    algo: BcastAlgorithm,
    root: usize,
    len: usize,
) -> Result<(), CommError> {
    assert!(root < p, "root out of range");
    let v = (me + p - root) % p;
    let world = |u: usize| (u + root) % p;
    match algo {
        BcastAlgorithm::Flat => {
            // The root sends in local-rank order, not virtual order.
            if v == 0 {
                for dst in (0..p).filter(|&d| d != root) {
                    link.send(Phase::Bcast, dst, 0..len)?;
                }
            } else {
                link.recv(Phase::Bcast, root, 0..len)?;
            }
        }
        BcastAlgorithm::Binomial => {
            // Virtual rank v receives from v with its highest set bit
            // cleared, then relays at every larger mask, nearest first.
            if v != 0 {
                let high = 1usize << (usize::BITS - 1 - v.leading_zeros());
                link.recv(Phase::Bcast, world(v - high), 0..len)?;
            }
            let mut mask = 1usize;
            while mask < p {
                if mask > v && v + mask < p {
                    link.send(Phase::Bcast, world(v + mask), 0..len)?;
                }
                mask <<= 1;
            }
        }
        BcastAlgorithm::Binary => {
            if v != 0 {
                link.recv(Phase::Bcast, world((v - 1) / 2), 0..len)?;
            }
            for child in [2 * v + 1, 2 * v + 2] {
                if child < p {
                    link.send(Phase::Bcast, world(child), 0..len)?;
                }
            }
        }
        BcastAlgorithm::Ring => {
            if v != 0 {
                link.recv(Phase::Bcast, world(v - 1), 0..len)?;
            }
            if v + 1 < p {
                link.send(Phase::Bcast, world(v + 1), 0..len)?;
            }
        }
        BcastAlgorithm::Pipelined { segments } => {
            // Chain: virtual rank k receives each segment from k−1 and
            // forwards it to k+1 before taking the next one.
            assert!(segments >= 1, "need at least one segment");
            let segments = segments.min(len.max(1));
            for s in 0..segments {
                if v > 0 {
                    link.recv(Phase::Pipeline, world(v - 1), chunk(len, segments, s))?;
                }
                if v + 1 < p {
                    link.send(Phase::Pipeline, world(v + 1), chunk(len, segments, s))?;
                }
            }
        }
        BcastAlgorithm::ScatterAllgather => {
            // Binomial scatter: virtual rank u relays the chunks of
            // virtual ranks [u, u + extent), extent = u's lowest set bit
            // (the whole clipped range for the root), so each edge
            // carries its subtree's chunks, largest subtree first.
            let subtree = |u: usize, extent: usize| {
                chunk(len, p, u).start..chunk(len, p, (u + extent).min(p) - 1).end
            };
            let extent = if v == 0 {
                p.next_power_of_two()
            } else {
                v & v.wrapping_neg()
            };
            if v != 0 {
                link.recv(Phase::Scatter, world(v - extent), subtree(v, extent))?;
            }
            let mut mask = extent >> 1;
            while mask > 0 {
                if v + mask < p {
                    link.send(Phase::Scatter, world(v + mask), subtree(v + mask, mask))?;
                }
                mask >>= 1;
            }
            // Ring allgather: round k sends chunk v−k to the next rank
            // and receives chunk v−k−1 from the previous one (mod p), so
            // the chunk received in round k is the one sent in round k+1.
            for k in 0..p - 1 {
                link.send(
                    Phase::Allgather,
                    world(v + 1),
                    chunk(len, p, (v + p - k) % p),
                )?;
                let from = world(v + p - 1);
                link.recv(Phase::Allgather, from, chunk(len, p, (v + p - k - 1) % p))?;
            }
        }
    }
    Ok(())
}

/// Reduces `len` elements to `root`, as rank `me` of the `p` ranks
/// `link` reaches, over a binomial tree: leaves send
/// first, and virtual rank `v` hands its partial result to `v` with its
/// lowest set bit cleared after combining the children below it.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn reduce_tree<L: TreeP2p>(
    link: &mut L,
    (p, me): (usize, usize),
    root: usize,
    len: usize,
) -> Result<(), CommError> {
    assert!(root < p, "root out of range");
    let v = (me + p - root) % p;
    let world = |u: usize| (u + root) % p;
    let mut mask = 1usize;
    while mask < p {
        if v & mask != 0 {
            return link.send(Phase::Reduce, world(v ^ mask), 0..len);
        }
        if v + mask < p {
            link.recv(Phase::Reduce, world(v + mask), 0..len)?;
        }
        mask <<= 1;
    }
    Ok(())
}
