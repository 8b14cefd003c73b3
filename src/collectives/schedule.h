// Unified collective-schedule engine.
//
// Every collective in this repo — ring, double-binary tree, hierarchical,
// 2D-torus, parameter server, and HiTopKComm's dense legs — is at heart a
// *schedule* of point-to-point transfers (Sergeev & Del Balso 2018; Cho et
// al. 2019): step s moves range R from rank a to rank b, either copying or
// reducing.  Recording the schedule once, instead of re-deriving it inline
// next to the port-clock arithmetic, keeps the timing model apart from the
// data movement: a new topology is a new builder, not a new simulator.
//
// The Schedule class runs one recorded schedule as two passes:
//
//   timing pass (run_timing) — one serial replay of the recorded sends
//     against the Cluster port clocks, in recorded issue order, with
//     snapshot ("next = ready") semantics at step boundaries.  Issue order and
//     readiness slots are recorded explicitly, so the clocks depend only on
//     the record, never on the data pass.
//
//   data pass (run_data) — the functional movement, freed from the clock.
//     Within a step, moves are grouped into buckets (by destination buffer
//     unless the builder overrides — see move()): buckets run concurrently
//     on the parallel_for pool, moves inside a bucket apply in recorded
//     order.  Element-wise float adds commute across *disjoint*
//     destinations and stay ordered within one, so the pass is bitwise
//     identical to applying every move serially in recorded order (the
//     same argument as core/parallel.h).  tests/collective_golden.inc pins
//     each collective's buffers and clocks.
//
// Because the data pass no longer has to mirror the wire protocol, builders
// may *resolve* pure-forwarding chains: a ring All-Gather records G-1
// timed hops per chunk but a single origin->destination copy per receiver,
// and an All-Reduce reuses the Reduce-Scatter result in place, feeding the
// resolved gather from each chunk's final owner.
//
// Readiness model: `slots` are data-readiness clocks (one per group rank,
// or per (node, chunk) for pipelined trees — builders allocate what they
// need).  A send starts no earlier than its src slot and max-combines its
// completion into its dst slot.  Slot updates within a step become visible
// at the next step boundary (a double-buffered `ready`/`next` swap);
// chained dependencies are expressed by putting the dependent send in a
// later step.  sync() records a phase boundary: it captures the running
// clock maximum (phase breakdowns) and optionally collapses every slot to
// that maximum (the scalar hand-off between phases, e.g. Reduce-Scatter
// "mid" -> All-Gather start).
#pragma once

#include <cstdint>
#include <vector>

#include "collectives/common.h"

namespace hitopk::coll {

// kCopy / kReduce act pairwise: dst[range] = / += src[range].
//
// kChain* runs one destination chunk's whole reduction as a chain through a
// worker-local scratch accumulator: kChainFirst loads src into the
// accumulator, kChainMid adds further sources, kChainLast adds the
// accumulator into the destination, so the destination's own contribution
// is the chain's last addition.  Per element the float adds run
// src0 + src1 + ... left-associated, then dst + sum — the order a
// step-by-step ring reduce-scatter of pairwise kReduce moves produces — so
// results are bitwise identical to that form for any non-NaN input, but
// the partial sums never touch the intermediate buffers: (G-1) chunk reads
// and one chunk write instead of (G-1) read-modify-writes.  Builders use chains
// only where the partials are dead (an All-Reduce's scatter leg, or a
// phase whose non-owned chunks a later resolved gather overwrites);
// standalone Reduce-Scatter keeps pairwise moves so the documented
// partial-sum layout stays bit-exact.
enum class TransferOp : uint8_t {
  kCopy,
  kReduce,
  kChainFirst,
  kChainMid,
  kChainLast,
};

// Outcome of a timed replay (run_timing).
struct ScheduleOutcome {
  double finish = 0.0;              // the last slot's completion
  std::vector<double> sync_times;   // one per recorded sync, in order
};

class Schedule {
 public:
  // Recorded primitives, exposed read-only through sends()/moves()/syncs()
  // so static checkers (collectives/validator.h) can audit a schedule
  // without replaying it.
  struct Send {
    uint32_t step;
    int src;
    int dst;
    uint32_t src_slot;
    uint32_t dst_slot;
    size_t bytes;
    double extra_seconds;
  };
  struct Move {
    uint32_t step;
    TransferOp op;
    uint32_t src_buf;
    uint32_t dst_buf;
    uint32_t bucket;
    size_t begin;
    size_t count;
  };
  struct Sync {
    uint32_t step;
    bool collapse;
  };

  // ---- recording ------------------------------------------------------
  // Allocates `n` readiness slots, returns the first id.  Slots start at
  // the run_timing start time.
  uint32_t add_slots(uint32_t n = 1);

  // Registers a functional buffer for the data pass, returns its id.  The
  // wire dtype is the representation the buffer's chunks travel in: every
  // move whose destination is this buffer rounds the range that crosses the
  // wire through the codec (compress/wire_codec.h) — a copy stores rt(src),
  // a reduce adds rt(src) at fp32, a chain rounds its accumulator after
  // every forwarded link (see run_data).  kFp32 is the identity and keeps
  // the data pass bitwise-unchanged.  Chained transfers must agree on the
  // wire dtype end to end (collectives/validator.h enforces it).
  uint32_t add_buffer(RankSpan span,
                      WireDtype wire = WireDtype::kFp32);

  // Records one timed message of `bytes` from world rank src to dst.
  // extra_seconds is the per-message protocol overhead forwarded to
  // Cluster::submit as Flow::extra_seconds.
  void send(int src, int dst, size_t bytes, uint32_t src_slot,
            uint32_t dst_slot, double extra_seconds = 0.0);

  // Records one data movement: dst_buf[begin, begin+count) op=
  // src_buf[begin, begin+count) (ranges coincide — all converted
  // collectives move chunks in place).
  //
  // `bucket` keys the data pass's execution units: within a step, moves
  // sharing a bucket run serially in recorded order on one worker, and
  // distinct buckets run concurrently.  It defaults to the destination
  // buffer (ordered reductions).  Builders may override it — a resolved
  // gather buckets by *source* so each owner chunk is read once and stays
  // cache-hot across its fan-out (measurably faster than destination-major
  // even single-threaded).  Buckets of one step must write disjoint
  // (buffer, range) destinations, and nothing a concurrent bucket reads.
  static constexpr uint32_t kBucketDst = UINT32_MAX;
  void move(TransferOp op, uint32_t src_buf, uint32_t dst_buf, size_t begin,
            size_t count, uint32_t bucket = kBucketDst);
  void copy(uint32_t src_buf, uint32_t dst_buf, size_t begin, size_t count,
            uint32_t bucket = kBucketDst) {
    move(TransferOp::kCopy, src_buf, dst_buf, begin, count, bucket);
  }
  void reduce(uint32_t src_buf, uint32_t dst_buf, size_t begin, size_t count) {
    move(TransferOp::kReduce, src_buf, dst_buf, begin, count);
  }

  // Closes the current step: sends recorded after this see the slot updates
  // of sends before it, and the data pass inserts a bucket boundary.
  void end_step();

  // Records a phase boundary at the current step.  The timing pass stores
  // the running clock maximum into ScheduleOutcome::sync_times (in recording
  // order); with collapse=true it also sets every slot to that maximum —
  // the scalar "phase done, next phase starts for everyone" hand-off.
  void sync(bool collapse);

  // ---- execution ------------------------------------------------------
  // Timing replay via Cluster::submit, the one loop every collective's
  // clock comes from.  Does not touch data buffers.  `job` is the tenant
  // context the recorded sends are submitted under: on a shared
  // multi-tenant cluster the replay's flows processor-share contended ports
  // with other jobs' reservations, while on an idle cluster every job id
  // replays to identical clocks (the single-tenant compatibility pin).
  ScheduleOutcome run_timing(simnet::Cluster& cluster, double start,
                             int job = simnet::kDefaultJob) const;

  // Functional data pass (no clocks).  No-op for timing-only schedules.
  void run_data() const;

  bool empty() const { return sends_.empty() && moves_.empty(); }

  // ---- introspection (read-only, for validators / planners) -----------
  const std::vector<Send>& sends() const { return sends_; }
  const std::vector<Move>& moves() const { return moves_; }
  const std::vector<Sync>& syncs() const { return syncs_; }
  const std::vector<RankSpan>& buffers() const { return buffers_; }
  const std::vector<WireDtype>& buffer_wires() const { return buffer_wires_; }
  uint32_t num_slots() const { return num_slots_; }

 private:
  uint32_t step_ = 0;
  uint32_t num_slots_ = 0;
  std::vector<RankSpan> buffers_;
  std::vector<WireDtype> buffer_wires_;
  std::vector<Send> sends_;
  std::vector<Move> moves_;
  std::vector<Sync> syncs_;
};

}  // namespace hitopk::coll
