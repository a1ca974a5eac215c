// Ablation: closed-nested retry backoff.
//
// An aborted CT that retries immediately usually runs straight back into
// the conflicting committer's protection window (one commit round trip);
// waiting too long wastes the partial-abort advantage.  This sweep shows
// the contention-manager trade-off.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Ablation: CT retry backoff under QR-CN (13 nodes, 8 clients, 20%% "
      "reads)\n");

  const std::uint32_t backoffs_ms[] = {0, 5, 15, 30, 60};

  for (const std::string& app :
       {std::string("hashmap"), std::string("slist")}) {
    std::vector<ExperimentConfig> configs;
    for (std::uint32_t ms : backoffs_ms) {
      ExperimentConfig cfg;
      cfg.app = app;
      cfg.cluster.runtime.mode = core::NestingMode::kClosed;
      cfg.params.read_ratio = 0.2;
      cfg.params.num_objects = default_objects(app);
      cfg.cluster.runtime.ct_retry_backoff = sim::msec(ms);
      cfg.duration = point_duration();
      cfg.cluster.seed = 53;
      configs.push_back(cfg);
    }
    auto results = run_sweep(configs);

    print_header("CT backoff ablation: " + app,
                 "backoff    txn/s   ct-retries/commit");
    for (std::size_t i = 0; i < results.size(); ++i) {
      warn_if_corrupt(results[i], app);
      const core::Metrics& m = results[i].metrics;
      std::printf("%4ums %s %s\n", backoffs_ms[i],
                  fmt(results[i].throughput).c_str(),
                  fmt(m.per_commit(m.ct_aborts), 14, 2).c_str());
    }
  }
  return 0;
}
