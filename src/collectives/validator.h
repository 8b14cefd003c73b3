// Static schedule-validity checking.
//
// A recorded Schedule is a claim: "replaying these sends against the port
// clocks and these moves against the buffers implements the collective".
// The planner (collectives/planner.h) scores machine-enumerated candidate
// schedules, so that claim needs an auditor that does not depend on running
// the schedule.  ScheduleValidator walks the recorded primitives and checks
// the invariants every legal schedule satisfies:
//
//   sends    — endpoints are in-range, distinct world ranks; readiness
//              slots exist.
//   ordering — step indices are nondecreasing in record order for sends,
//              moves, and syncs (the engine replays in record order, so
//              record order *is* port order; a step that jumps backwards
//              would replay under the wrong snapshot clock).
//   moves    — buffer ids exist and [begin, begin+count) lies inside both
//              endpoint buffers; zero-count moves never reach the record.
//   races    — within one step, the data pass runs buckets concurrently:
//              writes of distinct buckets must be disjoint, and no bucket
//              may read what another bucket writes.  Ranges compare by raw
//              element address, because builders legitimately register
//              aliased buffers (BlueConnect re-registers the same span for
//              every nested stage).
//   chains   — kChainFirst/Mid/Last sequences (the serial-float-order
//              reduction chains) are contiguous within their bucket, agree
//              on [begin, count), close before the step ends, and never
//              start mid-chain — the thread-local accumulator contract.
//   dtypes   — typed transfer payloads: a move's source and destination
//              buffers agree on the wire dtype, and every link of a
//              reduction chain shares the chain head's dtype.  The codec
//              applies per hop at the destination's dtype; a dtype flip
//              mid-path would re-encode an already-rounded shard at a
//              different grid and break the idempotence that resolved
//              multi-hop schedules rely on (compress/wire_codec.h).
//   coverage — optionally (all-reduce schedules), the union of write ranges
//              covers every element of every functional buffer: no rank is
//              left holding a partial sum.
//
// Violations throw the recoverable hitopk::ConfigError: a schedule arrives
// from a planner/builder configuration, and a scheduling layer may catch
// the rejection and fall back to another candidate.
//
// The checks run on a ScheduleView — bare spans over the recorded
// primitives — so tests can hand-assemble broken records that the Schedule
// recording API itself refuses to produce.
#pragma once

#include <span>

#include "collectives/schedule.h"

namespace hitopk::coll {

// Read-only view of a recorded schedule (see Schedule's accessors).
struct ScheduleView {
  std::span<const Schedule::Send> sends;
  std::span<const Schedule::Move> moves;
  std::span<const Schedule::Sync> syncs;
  std::span<const RankSpan> buffers;
  // Wire dtype per buffer; empty means all-fp32 (hand-assembled views).
  std::span<const WireDtype> buffer_wires;
  uint32_t num_slots = 0;
};

inline ScheduleView view_of(const Schedule& sched) {
  return ScheduleView{sched.sends(),   sched.moves(),
                      sched.syncs(),   sched.buffers(),
                      sched.buffer_wires(), sched.num_slots()};
}

struct ValidatorOptions {
  // World size the sends' ranks must lie in; <= 0 skips the range check
  // (schedules recorded against an abstract group).
  int world_size = 0;
  // All-reduce contract: every element of every functional buffer is
  // written at least once (no rank ends with an untouched partial).  Leave
  // false for standalone reduce-scatter / all-gather legs, whose outputs
  // legitimately cover only part of each buffer.
  bool require_full_coverage = false;
};

class ScheduleValidator {
 public:
  explicit ScheduleValidator(ValidatorOptions options = {})
      : options_(std::move(options)) {}

  // Throws hitopk::ConfigError on the first violated invariant.
  void validate(const ScheduleView& view) const;
  void validate(const Schedule& sched) const { validate(view_of(sched)); }

 private:
  ValidatorOptions options_;
};

}  // namespace hitopk::coll
