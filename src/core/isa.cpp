#include "core/isa.h"

namespace hitopk::isa {
namespace {

bool probe_avx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

}  // namespace

const char* build_name(Build build) {
  return build == Build::kAvx2 ? "avx2" : "baseline";
}

bool build_supported(Build build) {
  static const bool avx2 = probe_avx2();
  return build == Build::kBaseline || avx2;
}

Build host_build() {
  return build_supported(Build::kAvx2) ? Build::kAvx2 : Build::kBaseline;
}

}  // namespace hitopk::isa
