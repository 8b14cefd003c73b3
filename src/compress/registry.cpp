#include "compress/compressor.h"
#include "compress/dgc_topk.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "compress/other_compressors.h"
#include "core/check.h"

namespace hitopk::compress {

std::unique_ptr<Compressor> make_compressor(const std::string& name,
                                            uint64_t seed) {
  if (name == "exact_topk") return std::make_unique<ExactTopK>();
  if (name == "dgc") return std::make_unique<DgcTopK>(0.01, seed);
  if (name == "mstopk") return std::make_unique<MsTopK>(30, seed);
  if (name == "mstopk_legacy") {
    return std::make_unique<MsTopK>(30, seed, MsTopKMode::kMultiPass);
  }
  if (name == "random_k") return std::make_unique<RandomK>(seed);
  HITOPK_CHECK(false) << "unknown compressor:" << name;
  return nullptr;  // Unreachable.
}

}  // namespace hitopk::compress
