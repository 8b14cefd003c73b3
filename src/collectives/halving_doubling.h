// Recursive halving-doubling All-Reduce (Thakur et al. 2005), built for the
// latency-bound regime.
//
// A ring All-Reduce costs 2(G-1) message latencies; for the small gradient
// buckets of the paper's layer-wise pipeline on a 25us-alpha cloud fabric,
// those latencies dominate and the ring loses to anything with fewer
// rounds.  Recursive halving-doubling runs 2*log2(G) rounds: reduce-scatter
// by pairwise exchange with partner p XOR 2^t (each round halves the active
// range), then all-gather by the mirrored doubling.
//
// Two deliberate departures from the textbook formulation:
//
//   ascending distance — rounds run h = 1, 2, 4, ... with the *largest*
//     exchanges first, so with ranks in topology order the elems/2-sized
//     round stays on intra-node NVLink and only the geometrically shrinking
//     tails cross nodes and pods.  The kept range is selected by bit t of
//     the rank (low half for 0), so rank p ends owning the chunk at the
//     bit-reversal of p; the all-gather mirrors in descending-t order,
//     finishing with the bulk intra-node round.  On a high-oversubscription
//     fat tree this sends only O(elems / 2^(depth)) bytes through the
//     uplinks — the latency- *and* uplink-suppressing shape the planner
//     wants there.
//
//   fold/unfold for non-powers-of-two — the r = G - 2^floor(log2 G) extra
//     ranks fold their full contribution into partners 0..r-1 up front and
//     receive the finished result back at the end (the gTop-k fold idiom),
//     keeping the core exchange a clean hypercube.
//
// Float order: each round adds the received partial into the kept range
// (dst += src), a fixed serial order per element — deterministic, but a
// *different* association than the ring; differential tests use
// integer-valued inputs where float addition is exact.
#pragma once

#include "collectives/schedule.h"

namespace hitopk::coll {

// Appends the full All-Reduce over `group` to `sched`.  data may be empty
// (timing-only) or hold one span of `elems` floats per group rank.
void build_halving_doubling(Schedule& sched, const Group& group,
                            const RankData& data, size_t elems,
                            WireDtype wire);

}  // namespace hitopk::coll
