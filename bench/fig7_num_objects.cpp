// Reproduces paper Fig. 7 (a-e): throughput vs number of objects.
//
// Paper shape: growing the population *increases* contention for SList and
// Hashmap (longer chains / search paths -> larger overlapping read-sets)
// and *decreases* it for Bank, RBTree and Vacation (accesses spread over
// more objects); closed nesting's lead widens wherever contention rises.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Fig. 7 reproduction: throughput (txn/s) vs number of objects\n"
      "13-node cluster, 8 clients, 3 nested calls, 20%% reads\n");

  const std::uint32_t sizes[] = {8, 16, 32, 64, 128};

  for (const std::string& app : paper_apps()) {
    std::vector<ExperimentConfig> configs;
    for (std::uint32_t size : sizes) {
      for (core::NestingMode mode : paper_modes()) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.cluster.runtime.mode = mode;
        cfg.params.read_ratio = 0.2;
        cfg.params.nested_calls = 3;
        cfg.params.num_objects = size;
        cfg.duration = point_duration();
        cfg.cluster.seed = 44;
        configs.push_back(cfg);
      }
    }
    auto results = run_sweep(configs);

    print_header("Fig 7: " + app,
                 "objs    flat(QR)  closed(CN)  chk(CHK)   CN-gain%  "
                 "CHK-delta%");
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      const auto& flat = results[i * 3 + 0];
      const auto& cn = results[i * 3 + 1];
      const auto& chk = results[i * 3 + 2];
      for (const auto* r : {&flat, &cn, &chk}) {
        warn_if_corrupt(*r, app);
      }
      std::printf("%5u %s %s %s  %s %s\n", sizes[i],
                  fmt(flat.throughput).c_str(), fmt(cn.throughput, 11).c_str(),
                  fmt(chk.throughput).c_str(),
                  fmt(pct_change(cn.throughput, flat.throughput)).c_str(),
                  fmt(pct_change(chk.throughput, flat.throughput), 11).c_str());
    }
  }
  return 0;
}
