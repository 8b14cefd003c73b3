// The instruction-set builds of the library's hot kernels, and the one probe
// of the host CPU that picks between them.
//
// A kernel with an ISA build compiles one more copy of itself under a GCC
// `target` attribute and picks it once per process through host_build().
// Today those are the autodiff GEMM (core/gemm.h) and the fp16 wire codec
// (core/half.h).  Every build of a kernel gives the same bits: none enables
// FMA, and a build that cannot match the baseline on some input hands that
// input to the baseline.  Nothing outside the probe selects a build — no
// flag, environment variable or CMake option.  Each kernel's tests run every
// build the host supports through that kernel's detail:: entry point.
#pragma once

namespace hitopk::isa {

enum class Build {
  kBaseline,  // baseline x86-64 (SSE2), or the target's default vector width
  kAvx2,      // x86-64 with AVX2 and F16C, no FMA
};

// Every build, baseline first.
inline constexpr Build kBuilds[] = {Build::kBaseline, Build::kAvx2};

// "baseline" or "avx2".
const char* build_name(Build build);

// Whether `build` is compiled in and the host can run it.  The CPU is
// probed once per process.
bool build_supported(Build build);

// The widest build the host runs.
Build host_build();

}  // namespace hitopk::isa
