// Ablation: QR-CN's zero-message read-only commit.
//
// Rqv lets a read-only root transaction commit locally (paper §III-A).
// This sweep isolates that optimisation's contribution to QR-CN's gains by
// disabling it (read-only roots then validate via 2PC like flat QR): the
// delta grows with the read ratio and explains why our short-transaction
// benchmarks peak at read-heavy workloads (EXPERIMENTS.md, deviation 4).
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Ablation: QR-CN read-only local commit (13 nodes, 8 clients, bank)\n");

  const double ratios[] = {0.2, 0.5, 0.8, 1.0};

  print_header("bank", "read%   flat     CN(no-RO-opt)  CN(full)   "
                       "opt-share-of-gain");
  for (double ratio : ratios) {
    // variant 0 = flat, 1 = CN without the optimisation, 2 = full CN.
    std::vector<ExperimentConfig> configs;
    for (int variant = 0; variant < 3; ++variant) {
      ExperimentConfig cfg;
      cfg.app = "bank";
      cfg.cluster.runtime.mode = variant == 0 ? core::NestingMode::kFlat
                                              : core::NestingMode::kClosed;
      cfg.cluster.runtime.cn_local_readonly_commit = variant != 1;
      cfg.params.read_ratio = ratio;
      cfg.params.num_objects = default_objects("bank");
      cfg.duration = point_duration();
      cfg.cluster.seed = 55;
      configs.push_back(cfg);
    }
    auto results = run_sweep(configs);
    for (const ExperimentResult& r : results) warn_if_corrupt(r, "bank");
    double flat = results[0].throughput;
    double cn_no_opt = results[1].throughput;
    double cn_full = results[2].throughput;
    double gain_full = cn_full - flat;
    double share = gain_full > 0 ? 100.0 * (cn_full - cn_no_opt) / gain_full
                                 : 0.0;
    std::printf("%5.0f %s %s %s %s%%\n", ratio * 100, fmt(flat, 7).c_str(),
                fmt(cn_no_opt, 13).c_str(), fmt(cn_full, 9).c_str(),
                fmt(share, 14, 0).c_str());
  }
  std::printf(
      "\ntakeaway: at 100%% reads essentially the whole CN gain is the "
      "saved commit round;\nat write-heavy ratios the gain comes from "
      "partial aborts instead.\n");
  return 0;
}
