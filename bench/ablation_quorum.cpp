// Ablation: quorum construction.
//
// QR's performance depends on the quorum shapes: the tree protocol's read
// quorums are much smaller than majorities (2 vs 7 on 13 nodes), trading
// read cost against fault tolerance; the read level trades quorum size
// against how high in the tree the load concentrates.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

ExperimentConfig base_cfg(const std::string& app) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.cluster.runtime.mode = core::NestingMode::kClosed;
  cfg.params.read_ratio = 0.2;
  cfg.params.num_objects = default_objects(app);
  cfg.duration = point_duration();
  cfg.cluster.seed = 52;
  return cfg;
}

}  // namespace

int main() {
  std::printf(
      "Ablation: quorum construction under QR-CN (13 nodes, 8 clients)\n");

  for (const std::string& app : {std::string("bank"), std::string("slist")}) {
    std::vector<ExperimentConfig> configs;
    std::vector<std::string> labels;

    for (std::uint32_t level : {0u, 1u, 2u}) {
      ExperimentConfig cfg = base_cfg(app);
      cfg.cluster.quorum = core::QuorumKind::kTree;
      cfg.cluster.tree_read_level = level;
      configs.push_back(cfg);
      labels.push_back("tree level " + std::to_string(level));
    }
    {
      ExperimentConfig cfg = base_cfg(app);
      cfg.cluster.quorum = core::QuorumKind::kMajority;
      configs.push_back(cfg);
      labels.push_back("majority");
    }

    auto results = run_sweep(configs);
    print_header("Quorum ablation: " + app,
                 "construction      txn/s   msgs/commit   aborts/commit");
    for (std::size_t i = 0; i < results.size(); ++i) {
      warn_if_corrupt(results[i], app);
      std::printf("%-15s %s %s %s\n", labels[i].c_str(),
                  fmt(results[i].throughput).c_str(),
                  fmt(results[i].metrics.messages_per_commit(), 13).c_str(),
                  fmt(results[i].metrics.abort_rate(), 15, 2).c_str());
    }
  }
  std::printf(
      "\ntakeaway: smaller read quorums are faster and cheaper in messages "
      "(level 0 reads are\nsingle-member and root-local) but concentrate "
      "load and risk on one node -- Fig. 10's\nhotspot; the paper's level-1 "
      "setup trades a second member for read fault tolerance.\nMajorities "
      "pay ~3x more read messages for the same write-quorum size.\n");
  return 0;
}
