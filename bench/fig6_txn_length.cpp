// Reproduces paper Fig. 6 (a-e): throughput vs transaction length (number
// of nested calls per root transaction, 1..5) for the five benchmarks.
//
// Paper shape: closed nesting's advantage grows with transaction length --
// longer transactions have more pre-conflict work for a partial abort to
// save.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Fig. 6 reproduction: throughput (txn/s) vs nested calls per "
      "transaction\n13-node cluster, 8 clients, 20%% read workload\n");

  for (const std::string& app : paper_apps()) {
    std::vector<ExperimentConfig> configs;
    for (std::uint32_t calls = 1; calls <= 5; ++calls) {
      for (core::NestingMode mode : paper_modes()) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.cluster.runtime.mode = mode;
        cfg.params.read_ratio = 0.2;
        cfg.params.nested_calls = calls;
        cfg.params.num_objects = default_objects(app);
        cfg.duration = point_duration();
        cfg.cluster.seed = 43;
        configs.push_back(cfg);
      }
    }
    auto results = run_sweep(configs);

    print_header("Fig 6: " + app,
                 "calls   flat(QR)  closed(CN)  chk(CHK)   CN-gain%  "
                 "CHK-delta%");
    for (std::uint32_t calls = 1; calls <= 5; ++calls) {
      std::size_t i = calls - 1;
      const auto& flat = results[i * 3 + 0];
      const auto& cn = results[i * 3 + 1];
      const auto& chk = results[i * 3 + 2];
      for (const auto* r : {&flat, &cn, &chk}) {
        warn_if_corrupt(*r, app);
      }
      std::printf("%5u %s %s %s  %s %s\n", calls,
                  fmt(flat.throughput).c_str(), fmt(cn.throughput, 11).c_str(),
                  fmt(chk.throughput).c_str(),
                  fmt(pct_change(cn.throughput, flat.throughput)).c_str(),
                  fmt(pct_change(chk.throughput, flat.throughput), 11).c_str());
    }
  }
  return 0;
}
