// Reproduces paper Fig. 8 (the table): percentage change in abort rate and
// in messages exchanged for QR-CN and QR-CHK relative to flat nesting, per
// benchmark.
//
// Paper shape: QR-CN reduces both aborts and messages (negative deltas,
// strongest for SList/Hashmap, weakest for Bank); QR-CHK increases both
// (positive deltas).  Rates are normalised per committed transaction so
// runs of different lengths compare meaningfully.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Fig. 8 (table) reproduction: abort-rate and message deltas vs flat\n"
      "13-node cluster, 8 clients, 3 nested calls, 20%% reads\n"
      "(abort rate = aborts/commit; msgs = messages/commit)\n");

  print_header("Fig 8",
               "bench      CN-abort%%  CHK-abort%%   CN-msg%%   CHK-msg%%");

  for (const std::string& app : paper_apps()) {
    std::vector<ExperimentConfig> configs;
    for (core::NestingMode mode : paper_modes()) {
      ExperimentConfig cfg;
      cfg.app = app;
      cfg.cluster.runtime.mode = mode;
      cfg.params.read_ratio = 0.2;
      cfg.params.nested_calls = 3;
      cfg.params.num_objects = default_objects(app);
      cfg.duration = point_duration();
      cfg.cluster.seed = 45;
      configs.push_back(cfg);
    }
    auto results = run_sweep(configs);
    for (const auto& r : results) warn_if_corrupt(r, app);
    const core::Metrics& flat = results[0].metrics;
    const core::Metrics& cn = results[1].metrics;
    const core::Metrics& chk = results[2].metrics;
    std::printf("%-10s %s %s %s %s\n", app.c_str(),
                fmt(pct_change(cn.abort_rate(), flat.abort_rate()), 10).c_str(),
                fmt(pct_change(chk.abort_rate(), flat.abort_rate()), 11).c_str(),
                fmt(pct_change(cn.messages_per_commit(),
                               flat.messages_per_commit()),
                    9)
                    .c_str(),
                fmt(pct_change(chk.messages_per_commit(),
                               flat.messages_per_commit()),
                    10)
                    .c_str());
  }
  std::printf(
      "\npaper reference (Fig. 8): CN abort/msg deltas negative "
      "(-18..-56%% / -22..-52%%),\nCHK deltas positive (+11..+23%% / "
      "+15..+26%%)\n");
  return 0;
}
