// Ablation: checkpoint granularity (QR-CHK threshold).
//
// The paper attributes QR-CHK's losses to "the fine granularity of
// checkpoints which results in [a] large number of unnecessary partial
// aborts" (§VI-C).  This sweep varies the creation threshold (objects per
// checkpoint): threshold 1 = a checkpoint after every object (the paper's
// fine-grained setting), larger thresholds approach flat nesting (few
// rollback points, rollbacks discard more).
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Ablation: QR-CHK checkpoint threshold (objects per checkpoint)\n"
      "13 nodes, 8 clients, 20%% reads; delta vs flat nesting\n");

  const std::uint32_t thresholds[] = {1, 2, 4, 8, 16};

  for (const std::string& app : {std::string("bank"), std::string("slist")}) {
    ExperimentConfig base;
    base.app = app;
    base.cluster.runtime.mode = core::NestingMode::kFlat;
    base.params.read_ratio = 0.2;
    base.params.num_objects = default_objects(app);
    base.duration = point_duration();
    base.cluster.seed = 54;
    auto flat = run_experiment(base);
    warn_if_corrupt(flat, app);

    std::vector<ExperimentConfig> configs;
    for (std::uint32_t th : thresholds) {
      ExperimentConfig cfg = base;
      cfg.cluster.runtime.mode = core::NestingMode::kCheckpoint;
      cfg.cluster.runtime.chk_threshold = th;
      configs.push_back(cfg);
    }
    auto results = run_sweep(configs);

    print_header("CHK threshold ablation: " + app + "  (flat baseline " +
                     fmt(flat.throughput, 0) + " txn/s)",
                 "threshold   txn/s   delta%%   chk/commit  rollbacks/commit");
    for (std::size_t i = 0; i < std::size(thresholds); ++i) {
      warn_if_corrupt(results[i], app);
      const auto& r = results[i];
      const core::Metrics& m = r.metrics;
      const double chks = m.per_commit(m.checkpoints_created);
      const double rolls = m.per_commit(m.partial_rollbacks);
      std::printf("%6u %s %s %s %s\n", thresholds[i],
                  fmt(r.throughput, 10).c_str(),
                  fmt(pct_change(r.throughput, flat.throughput), 8).c_str(),
                  fmt(chks, 11, 1).c_str(), fmt(rolls, 13, 2).c_str());
    }
  }
  std::printf(
      "\ntakeaway: finer checkpoints mean more (and deeper-reaching) "
      "snapshot copies per\ntransaction and more rollback events; coarser "
      "ones discard more work per rollback.\n");
  return 0;
}
