// Shared thread pool for the functional hot paths.
//
// The collectives simulate many independent GPUs on one host: the per-rank
// MSTopK/error-feedback/scatter-add loops in HiTopKComm and the per-step data
// movement in the ring collectives are embarrassingly parallel (every
// iteration touches a disjoint buffer region), so they run on a process-wide
// pool via parallel_for.  Callers are responsible for that disjointness;
// parallel_for guarantees only that fn(i) runs exactly once for every i and
// that all iterations have finished when it returns.  Because iterations are
// independent, the result is bitwise identical to the serial loop regardless
// of thread count or scheduling (the determinism test in
// parallel_determinism_test.cpp pins this down).
#pragma once

#include <cstddef>
#include <functional>

namespace hitopk {

// Number of worker threads the pool runs with (including the calling thread).
// Defaults to std::thread::hardware_concurrency(); the HITOPK_THREADS
// environment variable overrides it at first use.
int parallel_threads();

// Overrides the thread count for subsequent parallel_for calls.  n <= 1
// forces serial execution (useful for A/B determinism tests).  Safe to call
// between parallel_for invocations, not from inside one.
void set_parallel_threads(int n);

// Runs fn(i) for every i in [begin, end), partitioned into contiguous blocks
// of at least `grain` iterations across the pool.  Blocks until every
// iteration has completed.  The calling thread participates, so nested calls
// from inside a worker degrade gracefully to inline execution.  The first
// exception thrown by any iteration is rethrown on the caller.
void parallel_for(size_t begin, size_t end,
                  const std::function<void(size_t)>& fn, size_t grain = 1);

// Element count of one parallel_chunks chunk: 64 Ki floats (256 KiB).  A
// multiple of 16, so a kernel that works in blocks of 4, 8 or 16 elements
// sees the same block boundaries in every chunk as over the whole span.
inline constexpr size_t kParallelChunk = size_t{1} << 16;

// Number of parallel_chunks chunks covering `count` elements.
inline size_t parallel_chunk_count(size_t count) {
  return (count + kParallelChunk - 1) / kParallelChunk;
}

// Runs fn(lo, hi) once for each fixed chunk [lo, hi) of [0, count): chunk c
// covers [c * kParallelChunk, min(count, (c + 1) * kParallelChunk)).  Chunks
// run on the pool; a span of one chunk or less, a 1-thread pool and a call
// nested inside a parallel region run inline.  The chunk boundaries do not
// depend on the thread count, so an elementwise kernel (or one that combines
// per-chunk results in chunk order) is bitwise identical at every pool
// width.  For the bulk kernels over whole gradients: the wire codec and the
// optimizer step.
void parallel_chunks(size_t count,
                     const std::function<void(size_t, size_t)>& fn);

}  // namespace hitopk
