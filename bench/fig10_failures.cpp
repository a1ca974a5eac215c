// Reproduces paper Fig. 10: QR-DTM throughput under increasing node
// failures for Hashmap, BST and Vacation.
//
// Setup mirrors the paper: 28 nodes; initially every node is assigned a
// read quorum of a single node; each failure grows the read quorum by one
// (FlatFailureAwareProvider).  Paper shape: throughput first *rises* with a
// few failures (the single-node read quorum is a service hotspot; larger
// rotated quorums spread the load) and then degrades gracefully as quorum
// fan-out dominates.
//
// The extra vac+churn column replays the vacation point with the failed
// nodes *restarting* halfway through the run (Cluster::recover_node:
// anti-entropy catch-up, then quorum re-admission), so its throughput sits
// between the stay-dead vacation column and the failure-free row.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Fig. 10 reproduction: throughput under node failures\n"
      "28 nodes, failure-aware flat quorums (|RQ| = failures + 1)\n");

  const std::vector<std::string> apps = {"hashmap", "bst", "vacation"};
  const std::uint32_t kNodes = 28;

  std::vector<ExperimentConfig> configs;
  for (std::uint32_t failures = 0; failures <= 8; ++failures) {
    for (const std::string& app : apps) {
      ExperimentConfig cfg;
      cfg.app = app;
      cfg.cluster.runtime.mode = core::NestingMode::kClosed;
      cfg.cluster.quorum = core::QuorumKind::kFlatFailureAware;
      cfg.cluster.num_nodes = kNodes;
      cfg.failures = failures;
      cfg.clients = 40;  // saturating client population on survivors
      cfg.params.read_ratio = 0.8;
      cfg.params.nested_calls = 3;
      cfg.params.num_objects = 4 * default_objects(app);
      // The hotspot effect needs a realistic per-message service time on
      // the single shared read-quorum node (request processing incl. the
      // group-communication stack on the paper's 1.9 GHz Opterons).
      cfg.cluster.service_time = sim::msec(2);
      cfg.duration = std::min(point_duration(), sim::sec(120));
      cfg.cluster.seed = 47;
      configs.push_back(cfg);
      if (app == "vacation") {
        // Churn variant: same point, but the victims restart mid-run.
        cfg.recover_at = cfg.duration / 2;
        configs.push_back(cfg);
        // Coordinator-churn variant: on top of the restarts, keep killing
        // client-hosting nodes mid-2PC so orphaned commits must resolve
        // via decision re-drive / cooperative termination (DESIGN.md §17);
        // the column tracks the commit-latency p99 that machinery costs.
        cfg.coordinator_kill_period = cfg.duration / 8;
        cfg.coordinator_down_for = sim::msec(500);
        configs.push_back(cfg);
      }
    }
  }
  const std::size_t stride = apps.size() + 2;
  auto results = run_sweep(configs);

  print_header("Fig 10",
               "failed   hashmap       bst   vacation  vac+churn  vac+coord "
               " coord-p99-ms");
  for (std::uint32_t failures = 0; failures <= 8; ++failures) {
    const auto* row = &results[failures * stride];
    for (std::size_t a = 0; a < apps.size(); ++a) {
      warn_if_corrupt(row[a], apps[a]);
    }
    warn_if_corrupt(row[3], "vacation+churn");
    warn_if_corrupt(row[4], "vacation+coord-churn");
    const double coord_p99_ms =
        static_cast<double>(row[4].latency.commit_latency.percentile(99)) /
        static_cast<double>(sim::msec(1));
    std::printf("%6u %s %s %s %s %s %s\n", failures,
                fmt(row[0].throughput).c_str(), fmt(row[1].throughput).c_str(),
                fmt(row[2].throughput, 10).c_str(),
                fmt(row[3].throughput, 10).c_str(),
                fmt(row[4].throughput, 10).c_str(),
                fmt(coord_p99_ms, 13, 2).c_str());
  }
  std::printf(
      "\npaper reference: throughput rises for the first few failures "
      "(load-balancing\nacross the grown read quorum), then degrades "
      "gracefully beyond ~4 failures.\nvac+coord additionally kills a "
      "coordinator every duration/8; its p99 commit\nlatency absorbs the "
      "in-doubt resolution rounds (DESIGN.md §17).\n");
  return 0;
}
