// gtest support for the tests that run every ISA build of a kernel
// (core/isa.h): the builds print by name, and a build the host cannot run
// skips itself.
#pragma once

#include <gtest/gtest.h>

#include <ostream>

#include "core/isa.h"

namespace hitopk {
namespace isa {

// Names the build in gtest output ("baseline", "avx2").
inline void PrintTo(Build build, std::ostream* os) { *os << build_name(build); }

}  // namespace isa

// Fixture of a suite instantiated over isa::kBuilds.
class IsaBuildTest : public ::testing::TestWithParam<isa::Build> {
 protected:
  void SetUp() override {
    if (!isa::build_supported(GetParam())) {
      GTEST_SKIP() << "build not supported on this host";
    }
  }
};

}  // namespace hitopk
