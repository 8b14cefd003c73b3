// Fig. 9: single-GPU iteration time w/o (Naive) and w/ DataCache, training
// ResNet-50 at 96x96 with batch 256.
//
// Paper claims: I/O time drops by more than 10x; end-to-end throughput
// roughly doubles.
#include <iostream>
#include <numeric>

#include "core/cli.h"
#include "core/table.h"
#include "data/datacache.h"
#include "models/perf_model.h"
#include "core/table.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::data;

  std::cout << "=== Fig. 9: iteration time without / with DataCache "
               "(1 GPU, ResNet-50 @96x96, batch 256) ===\n\n";
  const double others =  // FF&BP + update on one V100
      hitopk::models::PerfModel::ffbp_seconds("resnet50", 96, 256) + 0.004;

  DataCacheConfig config;
  config.dataset = DatasetSpec::imagenet();
  config.nodes = 1;
  std::vector<uint64_t> ids(256);
  std::iota(ids.begin(), ids.end(), uint64_t{0});

  // Naive: every epoch pays the NFS + decode path.
  DataCacheConfig naive_config = config;
  naive_config.use_memory_cache = false;
  naive_config.use_ssd_cache = false;
  DataCache naive(naive_config);
  naive.fetch_batch(ids, 96);
  const double naive_io = naive.fetch_batch(ids, 96).seconds;

  // DataCache: steady state hits the pre-processed memory tier.
  DataCache cached(config);
  cached.fetch_batch(ids, 96);  // first epoch populates the caches
  const double cached_io = cached.fetch_batch(ids, 96).seconds;

  TablePrinter table({"Scheme", "I/O (s)", "Others (s)", "Total (s)",
                      "Throughput (samples/s)"});
  table.add_row({"Naive", TablePrinter::fmt(naive_io, 4),
                 TablePrinter::fmt(others, 4),
                 TablePrinter::fmt(naive_io + others, 4),
                 TablePrinter::fmt(256.0 / (naive_io + others), 0)});
  table.add_row({"DataCache", TablePrinter::fmt(cached_io, 4),
                 TablePrinter::fmt(others, 4),
                 TablePrinter::fmt(cached_io + others, 4),
                 TablePrinter::fmt(256.0 / (cached_io + others), 0)});
  table.print(std::cout);

  std::cout << "\nI/O reduction: " << TablePrinter::fmt(naive_io / cached_io, 1)
            << "x (paper: >10x);  end-to-end speedup: "
            << TablePrinter::fmt((naive_io + others) / (cached_io + others), 2)
            << "x (paper: ~2x)\n";

  // Fig. 5's three paths, for reference.
  DataCache paths(config);
  const double first_run = paths.fetch_batch(ids, 96).seconds;
  const double warm = paths.fetch_batch(ids, 96).seconds;
  paths.new_run();
  const double second_run = paths.fetch_batch(ids, 96).seconds;
  std::cout << "\nFig. 5 fetch paths per 256-batch: first run (NFS+decode) "
            << TablePrinter::fmt(first_run, 4) << " s; second+ epochs (memory) "
            << TablePrinter::fmt(warm, 4) << " s; second+ runs (SSD+decode) "
            << TablePrinter::fmt(second_run, 4) << " s\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
