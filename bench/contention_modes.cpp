// Mode-comparison contention sweep: flat (QR), closed (QR-CN), checkpoint
// (QR-CHK) and queued (QR-Q, speculative batch commit) on hot-key Bank and
// Hashmap workloads, shrinking the object population so every transaction
// fights over fewer and fewer keys.
//
// Expected shape: the per-transaction modes collapse as contention rises
// (abort/backoff cycles burn quorum round trips), while QR-Q's batch
// planner turns contention into locality -- co-submitted transactions on
// the same node share one quorum fetch per hot key and commit through one
// 2PC round per batch, so at the hottest point queued shows strictly
// higher throughput and a strictly lower abort rate than flat and closed.
//
// All four modes run the same placement (clients co-located on
// kClientNodes nodes): batching only amortises traffic a node actually
// submits, and co-location is the regime the comparison is about.
//
// Writes machine-readable results (one result_json_members() object per
// mode x app x population) to BENCH_modes.json (or argv[1]) for CI
// artifacts.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint32_t kClientNodes = 2;
const std::uint32_t kPopulations[] = {64, 32, 16, 8};  // hot -> hottest

struct Point {
  std::string app;
  core::NestingMode mode;
  std::uint32_t objects;
  ExperimentResult res;
};

bool write_json(const std::string& path, const std::vector<Point>& points,
                sim::Tick duration) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"contention_modes\",\n"
               "  \"clients\": %u,\n"
               "  \"client_nodes\": %u,\n"
               "  \"sim_seconds\": %.1f,\n"
               "  \"points\": [\n",
               kClients, kClientNodes, sim::to_seconds(duration));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"mode\": \"%s\", \"objects\": %u, "
                 "%s}%s\n",
                 p.app.c_str(), core::to_string(p.mode), p.objects,
                 result_json_members(p.res).c_str(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_modes.json";
  const sim::Tick duration = point_duration();
  const auto modes = all_modes();

  std::printf(
      "Mode comparison under contention: QR / QR-CN / QR-CHK / QR-Q\n"
      "13-node tree quorum, %u clients on %u nodes, 20%% reads, "
      "population sweep 64 -> 8\n",
      kClients, kClientNodes);

  std::vector<Point> points;
  bool criterion_ok = true;
  for (const std::string& app : {std::string("bank"), std::string("hashmap")}) {
    std::vector<ExperimentConfig> configs;
    for (std::uint32_t objects : kPopulations) {
      for (core::NestingMode mode : modes) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.cluster.runtime.mode = mode;
        cfg.params.read_ratio = 0.2;
        cfg.params.nested_calls = 3;
        cfg.params.num_objects = objects;
        cfg.clients = kClients;
        cfg.client_nodes = kClientNodes;
        cfg.duration = duration;
        cfg.cluster.seed = 42;
        configs.push_back(cfg);
      }
    }
    auto results = run_sweep(configs);

    print_header(
        "contention: " + app,
        "objs   mode          txn/s   ab/cmt  p50(ms)  p99(ms)  msg/cmt");
    std::size_t idx = 0;
    for (std::uint32_t objects : kPopulations) {
      const ExperimentResult* flat = nullptr;
      const ExperimentResult* closed = nullptr;
      const ExperimentResult* queued = nullptr;
      for (core::NestingMode mode : modes) {
        const ExperimentResult& r = results[idx++];
        warn_if_corrupt(r, app + "/" + core::to_string(mode));
        std::printf("%4u   %-11s %s %s %s %s %s\n", objects, mode_label(mode),
                    fmt(r.throughput).c_str(),
                    fmt(r.metrics.abort_rate(), 8, 2).c_str(),
                    fmt(commit_percentile_ms(r, 50), 8).c_str(),
                    fmt(commit_percentile_ms(r, 99), 8).c_str(),
                    fmt(r.metrics.messages_per_commit(), 8).c_str());
        points.push_back({app, mode, objects, r});
        if (mode == core::NestingMode::kFlat) flat = &r;
        if (mode == core::NestingMode::kClosed) closed = &r;
        if (mode == core::NestingMode::kQueued) queued = &r;
      }
      // Acceptance check at the hottest point: QR-Q must beat both
      // per-transaction baselines on throughput AND abort rate.
      if (objects == kPopulations[std::size(kPopulations) - 1]) {
        const bool ok = queued->throughput > flat->throughput &&
                        queued->throughput > closed->throughput &&
                        queued->metrics.abort_rate() <
                            flat->metrics.abort_rate() &&
                        queued->metrics.abort_rate() <
                            closed->metrics.abort_rate();
        std::printf("  -> hottest point (%u objects): QR-Q %s flat+closed "
                    "on throughput and abort rate\n",
                    objects, ok ? "beats" : "DOES NOT beat");
        criterion_ok = criterion_ok && ok;
      }
    }
  }

  if (!write_json(json_path, points, duration)) return 2;
  std::printf("\nwrote %zu points -> %s\n", points.size(), json_path.c_str());
  return criterion_ok ? 0 : 1;
}
