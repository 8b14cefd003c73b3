// Tenant job bodies for the multi-tenant JobScheduler.
//
// simnet::JobScheduler (simnet/job_scheduler.h) is collective-agnostic: it
// places gangs and interleaves per-iteration callbacks.  This is the train
// layer's hook that turns a JobSpec into a real synchronous data-parallel
// training iteration:
//
//   compute — one forward/backward pass priced by models::PerfModel for the
//     workload's model/resolution/batch (no ports occupied, every rank in
//     parallel), then
//   communicate — a bandwidth-optimal ring All-Reduce of the job's gradient
//     payload over its placed gang, recorded once per distinct rank set by
//     the schedule engine and replayed under the job's id via run_timing,
//     so concurrent tenants processor-share NICs and uplinks.  The body
//     never reports an abort: the transfer engine is fault-free, and the
//     scheduler's abort path (JobIteration::aborted) serves bodies that
//     model their own failures.
//
// The gang is locality-sorted before the ring is built (pod, node, rank),
// so a spread placement still crosses each pod boundary a minimal number of
// times — placement policy decides *where* the ranks are, the collective
// layer keeps the ring sane over them.
#pragma once

#include <string>

#include "collectives/common.h"
#include "simnet/job_scheduler.h"

namespace hitopk::train {

// Per-job workload shape shared by every job of a replay (the per-job gang
// size, payload, and iteration count live in JobSpec).
struct TenantWorkload {
  std::string model = "resnet50";
  int resolution = 224;
  int local_batch = 64;
  // Wire dtype of the gradient transfers (compress/wire_codec.h).  The
  // job's payload (JobSpec::bytes) counts fp32 gradient elements; fp16
  // halves the bytes each iteration actually places on the ports.
  coll::WireDtype wire = coll::WireDtype::kFp32;
};

// Builds a JobBody running compute + ring All-Reduce iterations.  The
// returned callable caches one recorded Schedule per distinct gang, is
// deterministic, and must only be used from one thread (the scheduler's
// event loop is single-threaded by design).
simnet::JobBody make_tenant_body(const TenantWorkload& workload);

}  // namespace hitopk::train
