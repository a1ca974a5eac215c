// Ablation: QR-CHK checkpoint cost model.
//
// The paper reports QR-CHK ~16 % BELOW flat nesting, blaming checkpoint
// granularity, while also reporting checkpoint *creation* costs only ~6 %.
// In our simulation the protocol mechanics alone (Rqv early aborts +
// partial resume) make fine-grained checkpointing BEAT flat nesting; the
// paper's ordering emerges only once the implementation costs of their
// continuation machinery (snapshot copies growing with the data-set,
// continuation restore on a patched research JVM) are charged.  This bench
// sweeps both knobs so the crossover is visible; EXPERIMENTS.md discusses
// the calibration.
#include <cstdio>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

int main() {
  std::printf(
      "Ablation: QR-CHK throughput delta vs flat as checkpoint costs vary\n"
      "(create/object charged at every checkpoint; restore charged per "
      "partial rollback)\n");

  const std::uint32_t per_obj_us[] = {0, 100, 250, 500, 800};
  const std::uint32_t restore_ms[] = {0, 50, 200};

  for (const std::string& app : {std::string("bank"), std::string("slist")}) {
    // Flat baseline once per app.
    ExperimentConfig base;
    base.app = app;
    base.cluster.runtime.mode = core::NestingMode::kFlat;
    base.params.read_ratio = 0.2;
    base.params.num_objects = default_objects(app);
    base.duration = point_duration();
    base.cluster.seed = 51;
    auto flat = run_experiment(base);
    warn_if_corrupt(flat, app);

    std::vector<ExperimentConfig> configs;
    for (std::uint32_t r : restore_ms) {
      for (std::uint32_t p : per_obj_us) {
        ExperimentConfig cfg = base;
        cfg.cluster.runtime.mode = core::NestingMode::kCheckpoint;
        cfg.cluster.runtime.chk_create_cost_per_obj = sim::usec(p);
        cfg.cluster.runtime.chk_restore_cost = sim::msec(r);
        configs.push_back(cfg);
      }
    }
    auto results = run_sweep(configs);

    print_header("CHK cost ablation: " + app + "  (flat baseline " +
                     fmt(flat.throughput, 0) + " txn/s)",
                 "restore\\create   0us    100us    250us    500us    800us");
    std::size_t i = 0;
    for (std::uint32_t r : restore_ms) {
      std::printf("%5ums      ", r);
      for (std::size_t p = 0; p < std::size(per_obj_us); ++p) {
        warn_if_corrupt(results[i], app);
        std::printf(" %s%%",
                    fmt(pct_change(results[i].throughput, flat.throughput), 7)
                        .c_str());
        ++i;
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\ntakeaway: with cheap checkpoints (top-left) partial rollback BEATS "
      "flat nesting;\nthe paper's ordering (CHK below flat) needs the "
      "bottom-right cost regime.\n");
  return 0;
}
