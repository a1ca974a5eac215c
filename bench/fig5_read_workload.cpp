// Reproduces paper Fig. 5 (a-e): throughput of flat nesting (QR), closed
// nesting (QR-CN) and checkpointing (QR-CHK) as the read workload varies
// from 0 % to 100 %, for Bank, Hashmap, SList, RBTree and Vacation.
//
// Paper shape to reproduce: closed nesting outperforms flat everywhere,
// with the largest gap at write-heavy workloads (gap narrows as reads
// dominate); checkpointing trails flat nesting.
//
// A fourth series adds this repo's QR-Q extension (queued speculative batch
// commit).  Its points run with clients co-located on 4 nodes -- batches
// only form when a node submits several transactions per window, so the
// spread placement the paper modes use would degenerate QR-Q to flat plus
// formation-window latency.  See bench/contention_modes.cpp for the
// like-for-like four-mode comparison.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Fig. 5 reproduction: throughput (txn/s) vs read workload\n"
      "13-node ternary-tree quorum cluster, %u clients, 3 nested calls\n",
      8u);

  const double ratios[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

  for (const std::string& app : paper_apps()) {
    std::vector<ExperimentConfig> configs;
    const auto modes = all_modes();
    for (double ratio : ratios) {
      for (core::NestingMode mode : modes) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.cluster.runtime.mode = mode;
        cfg.params.read_ratio = ratio;
        cfg.params.nested_calls = 3;
        cfg.params.num_objects = default_objects(app);
        cfg.duration = point_duration();
        cfg.cluster.seed = 42;
        if (mode == core::NestingMode::kQueued) cfg.client_nodes = 4;
        configs.push_back(cfg);
      }
    }
    auto results = run_sweep(configs);

    print_header("Fig 5: " + app,
                 "read%   flat(QR)  closed(CN)  chk(CHK)  queued(Q)"
                 "   CN-gain%  CHK-delta%");
    for (std::size_t i = 0; i < std::size(ratios); ++i) {
      const auto& flat = results[i * modes.size() + 0];
      const auto& cn = results[i * modes.size() + 1];
      const auto& chk = results[i * modes.size() + 2];
      const auto& q = results[i * modes.size() + 3];
      for (const auto* r : {&flat, &cn, &chk, &q}) {
        warn_if_corrupt(*r, app);
      }
      std::printf("%5.0f %s %s %s %s  %s %s\n", ratios[i] * 100,
                  fmt(flat.throughput).c_str(), fmt(cn.throughput, 11).c_str(),
                  fmt(chk.throughput).c_str(), fmt(q.throughput, 10).c_str(),
                  fmt(pct_change(cn.throughput, flat.throughput)).c_str(),
                  fmt(pct_change(chk.throughput, flat.throughput), 11).c_str());
    }
  }
  return 0;
}
