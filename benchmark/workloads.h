// The benchmark's workloads and the repetition that runs one of them.
//
// Every workload is a closed loop with zero think time: each simulated client
// issues its next root transaction as soon as the previous one commits.
// Clients are coroutines inside the one simulator thread, so a workload is
// one process and one host thread whatever its client count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.h"
#include "core/cluster.h"
#include "core/history.h"
#include "core/trace.h"

namespace qrdtm::benchmark {

struct Workload {
  std::string name;
  std::string app;
  core::NestingMode mode = core::NestingMode::kFlat;
  apps::WorkloadParams params;
  std::uint32_t num_nodes = 40;  // ternary tree of depth 3: the paper's testbed
  std::uint32_t clients = 32;
  /// Clients go round-robin over the first `client_nodes` live nodes
  /// (0 = over every live node).
  std::uint32_t client_nodes = 0;
  sim::Tick duration = 0;
  /// The highest-numbered `dead_at_start` nodes fail-stop before the run and
  /// restart at `recover_at` (0 = never).
  std::uint32_t dead_at_start = 0;
  sim::Tick recover_at = 0;
  /// Every period, one client-hosting node other than node 0 (which runs the
  /// integrity checker) is killed and restarted `down_for` later (0 = off).
  sim::Tick kill_period = 0;
  sim::Tick down_for = sim::msec(500);
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(std::string_view name);

/// Everything the simulated clock decides, captured at one instant.  Two
/// runs on the same seed must produce equal snapshots, traced or not.
struct SimSnapshot {
  core::Metrics metrics;
  core::LatencyMetrics latency;
  net::NetStats net;
  std::uint64_t events = 0;
  sim::Tick now = 0;

  bool operator==(const SimSnapshot& o) const;
};

/// One repetition of a workload on a fresh cluster.  The constructor is the
/// set-up the benchmark times: cluster construction, recorder attachment,
/// app seeding, fault scheduling and client spawn.
class Rep {
 public:
  Rep(const Workload& w, std::uint64_t seed, core::TraceRecorder* tracer,
      core::HistoryRecorder* history);

  /// Run the closed loop for the workload's duration; snapshots the
  /// simulation at the deadline.
  void run();
  /// Let in-flight transactions finish; snapshots the drained simulation.
  void quiesce();
  /// Run the app's integrity checker on node 0 (after quiesce).
  bool check_integrity();

  double setup_s() const { return setup_s_; }
  double wall_s() const { return wall_s_; }
  const SimSnapshot& at_deadline() const { return at_deadline_; }
  const SimSnapshot& drained() const { return drained_; }
  /// Exact commit latency (first attempt, or QR-Q enqueue -> commit) of
  /// every client transaction that committed by the deadline.
  const std::vector<sim::Tick>& latencies() const { return latencies_; }
  core::Cluster& cluster() { return *cluster_; }
  const std::vector<net::NodeId>& client_nodes() const { return client_nodes_; }

 private:
  SimSnapshot snapshot() const;

  const Workload& w_;
  // Declared before the cluster: client bodies borrow the app and write the
  // latency samples, so both must outlive every coroutine of the cluster.
  std::unique_ptr<apps::App> app_;
  std::vector<sim::Tick> latencies_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<net::NodeId> client_nodes_;
  double setup_s_ = 0;
  double wall_s_ = 0;
  SimSnapshot at_deadline_;
  SimSnapshot drained_;
};

}  // namespace qrdtm::benchmark
