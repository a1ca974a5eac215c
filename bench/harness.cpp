#include "bench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace qrdtm::bench {

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const std::uint32_t num_nodes = cfg.cluster.num_nodes;
  core::Cluster cluster(cfg.cluster);
  if (cfg.trace != nullptr) cluster.set_trace_recorder(cfg.trace);

  // Fig. 10: fail-stop nodes before the workload starts; clients run on
  // survivors only.
  std::vector<net::NodeId> alive;
  for (net::NodeId n = 0; n < num_nodes; ++n) alive.push_back(n);
  for (std::uint32_t f = 0; f < cfg.failures; ++f) {
    // Kill from the high end so node 0 (tree root / checker host) survives.
    net::NodeId victim = static_cast<net::NodeId>(num_nodes - 1 - f);
    cluster.kill_node(victim);
    alive.pop_back();
  }
  QRDTM_CHECK(!alive.empty());

  // Churn: restart the victims mid-run.  recover_node runs the catch-up
  // protocol, so quorums shrink back toward the failure-free configuration
  // in the second half of the run.
  if (cfg.recover_at > 0 && cfg.failures > 0) {
    std::vector<net::NodeId> victims;
    for (std::uint32_t f = 0; f < cfg.failures; ++f) {
      victims.push_back(static_cast<net::NodeId>(num_nodes - 1 - f));
    }
    cluster.simulator().schedule_at(cfg.recover_at, [&cluster, victims] {
      for (net::NodeId v : victims) cluster.recover_node(v);
    });
  }

  auto app = apps::make_app(cfg.app);
  Rng setup_rng(cfg.cluster.seed * 7919 + 13);
  apps::WorkloadParams params = cfg.params;
  app->setup(cluster, params, setup_rng);

  // Placement: round-robin over every live node, or -- when client_nodes is
  // set -- over just the first client_nodes live nodes (so QR-Q batches can
  // actually form; a node with one client only ever batches one txn).
  const std::size_t spread =
      cfg.client_nodes > 0
          ? std::min<std::size_t>(cfg.client_nodes, alive.size())
          : alive.size();
  for (std::uint32_t i = 0; i < cfg.clients; ++i) {
    net::NodeId node = alive[i % spread];
    cluster.spawn_loop_client(node, [&app, params](Rng& rng) {
      return app->make_txn(params, rng);
    });
  }

  // Coordinator churn: rotate kill+restart cycles over the client-hosting
  // nodes, so commit rounds keep dying inside the vote->confirm window and
  // the in-doubt machinery (decision re-drive, termination) is on the
  // commit-latency critical path.
  if (cfg.coordinator_kill_period > 0) {
    std::vector<net::NodeId> coords;
    for (std::size_t i = 0; i < spread; ++i) {
      if (alive[i] != 0) coords.push_back(alive[i]);  // 0 hosts the checker
    }
    std::size_t next = 0;
    for (sim::Tick at = cfg.coordinator_kill_period;
         !coords.empty() && at + cfg.coordinator_down_for < cfg.duration;
         at += cfg.coordinator_kill_period) {
      const net::NodeId victim = coords[next++ % coords.size()];
      cluster.simulator().schedule_at(at, [&cluster, victim] {
        if (cluster.network().alive(victim)) cluster.kill_node(victim);
      });
      cluster.simulator().schedule_at(
          at + cfg.coordinator_down_for,
          [&cluster, victim] { cluster.recover_node(victim); });
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_for(cfg.duration);
  const auto wall_end = std::chrono::steady_clock::now();

  ExperimentResult res;
  res.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  res.events_executed = cluster.simulator().events_executed();
  res.metrics = cluster.metrics();
  res.net = cluster.network().stats();
  res.throughput = res.metrics.throughput(cluster.duration());
  res.latency = cluster.merged_latency();
  for (net::NodeId n = 0; n < num_nodes; ++n) {
    const store::CommitLog& log = cluster.server(n).commit_log();
    res.log_bytes += log.size_bytes();
    res.log_capacity_bytes += log.capacity_bytes();
    res.outcome_table_bytes += cluster.server(n).outcome_table_bytes();
    res.histogram_bytes += cluster.node_latency(n).capacity_bytes();
  }
  res.log_shared_bytes = cluster.run_shelf().live_bytes();
  if (cfg.collect_per_node_latency) {
    res.node_latency.reserve(num_nodes);
    for (net::NodeId n = 0; n < num_nodes; ++n) {
      res.node_latency.push_back(cluster.node_latency(n));
    }
  }

  // Quiesce and verify the structure's integrity invariants: a protocol
  // bug that corrupts a data structure must fail the benchmark loudly.
  cluster.run_to_completion();
  bool ok = false;
  cluster.spawn_client(alive[0], app->make_checker(&ok));
  cluster.run_to_completion();
  res.invariants_ok = ok;
  return res;
}

namespace {

/// A JSON number, or null for NaN/inf (JSON has no spelling for either).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

double commit_percentile_ms(const ExperimentResult& r, double pct) {
  return sim::to_seconds(r.latency.commit_latency.percentile(pct)) * 1e3;
}

std::string result_json_members(const ExperimentResult& r) {
  std::string out =
      "\"throughput_txn_per_sec\": " + json_number(r.throughput) +
      ", \"abort_rate\": " + json_number(r.metrics.abort_rate()) +
      ", \"messages_per_commit\": " +
      json_number(r.metrics.messages_per_commit()) +
      ", \"commit_p50_ms\": " + json_number(commit_percentile_ms(r, 50)) +
      ", \"commit_p99_ms\": " + json_number(commit_percentile_ms(r, 99)) +
      ", \"invariants_ok\": " + (r.invariants_ok ? "true" : "false") +
      ", \"wall_seconds\": " + json_number(r.wall_seconds) +
      ", \"events_executed\": " + std::to_string(r.events_executed) +
      ", \"events_per_sec\": " + json_number(r.events_per_sec()) +
      ", \"counters\": {";
  const char* sep = "";
  for (const core::MetricField& f : core::kMetricFields) {
    out += sep;
    out += "\"";
    out += f.name;
    out += "\": ";
    out += std::to_string(r.metrics.*f.field);
    sep = ", ";
  }
  out += "}";
  return out;
}

std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs) {
  std::vector<ExperimentResult> results(configs.size());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers =
      std::min<unsigned>(hw, static_cast<unsigned>(configs.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = run_experiment(configs[i]);
    }
    return results;
  }
  std::mutex mu;
  std::size_t next = 0;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        std::size_t idx;
        {
          std::scoped_lock lock(mu);
          if (next >= configs.size()) return;
          idx = next++;
        }
        results[idx] = run_experiment(configs[idx]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return results;
}

std::vector<core::NestingMode> paper_modes() {
  return {core::NestingMode::kFlat, core::NestingMode::kClosed,
          core::NestingMode::kCheckpoint};
}

std::vector<core::NestingMode> all_modes() {
  auto modes = paper_modes();
  modes.push_back(core::NestingMode::kQueued);
  return modes;
}

std::vector<std::string> paper_apps() {
  return {"bank", "hashmap", "slist", "rbtree", "vacation"};
}

std::uint32_t default_objects(const std::string& app) {
  if (app == "bank") return 64;       // moderate account contention
  if (app == "hashmap") return 96;    // 8 buckets -> ~12-entry chains
  if (app == "slist") return 128;     // long search paths
  if (app == "rbtree") return 128;
  if (app == "bst") return 128;
  if (app == "vacation") return 24;   // hot resources per table
  return 64;
}

void print_header(const std::string& title, const std::string& columns) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), columns.c_str());
}

std::string fmt(double v, int width, int precision) {
  char buf[64];
  if (std::isnan(v)) {
    // Undefined ratios (e.g. abort rate or pct_change with a zero
    // denominator) print as "n/a", never as a misleading number.
    std::snprintf(buf, sizeof(buf), "%*s", width, "n/a");
  } else {
    std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  }
  return buf;
}

}  // namespace qrdtm::bench
