// The one entry wrapper of every bench and example binary:
//
//   int main(int argc, char** argv) {
//     return hitopk::run_main([&] { return run(argc, argv); });
//   }
//
// Bad input — a ConfigError from a malformed flag, an unknown model name or
// an option a library entry point rejects — prints its message to stderr
// and exits 2.  A CheckError marks a broken internal invariant, not bad
// input, so it is not caught: it still reaches std::terminate and aborts.
#pragma once

#include <cstdio>

#include "core/check.h"

namespace hitopk {

template <class Body>
int run_main(Body body) {
  try {
    return body();
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

}  // namespace hitopk
