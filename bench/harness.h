// Shared experiment harness for the paper-reproduction benchmarks.
//
// One experiment point = one deterministic simulation: build a cluster,
// seed the app, run closed-loop clients for a fixed simulated duration,
// then drain in-flight transactions and verify the app's integrity
// invariants.  Sweeps fan points out over a thread pool (one Simulator per
// point; nothing is shared between threads).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/cluster.h"

namespace qrdtm::bench {

/// One experiment point: the cluster it runs on plus the harness's own
/// workload, placement and fault-schedule fields.
struct ExperimentConfig {
  /// Every simulation knob (nodes, seed, quorum, network, and the
  /// RuntimeConfig under `cluster.runtime`), passed to core::Cluster as is.
  core::ClusterConfig cluster;

  std::string app = "bank";
  apps::WorkloadParams params;

  std::uint32_t clients = 8;  // closed-loop clients, spread over nodes
  sim::Tick duration = sim::sec(60);

  std::uint32_t failures = 0;  // nodes killed before the run (Fig. 10)
  /// Churn: restart every pre-killed node at this tick via
  /// Cluster::recover_node (anti-entropy catch-up + quorum re-admission).
  /// 0 = killed nodes stay dead for the whole run.
  sim::Tick recover_at = 0;

  /// Concentrate the closed-loop clients on the first `client_nodes` nodes
  /// instead of spreading them round-robin over every live node (0 = spread,
  /// the historical default).  Batching only amortises quorum traffic when a
  /// node submits several transactions per window, so contention benchmarks
  /// comparing kQueued against the per-transaction modes co-locate clients.
  std::uint32_t client_nodes = 0;

  /// Coordinator churn (Fig. 10 coord column): every period, fail-stop one
  /// client-hosting node -- killing whatever 2PC rounds it is coordinating
  /// mid-flight -- and restart it `coordinator_down_for` later (decision
  /// re-drive + termination resolve the orphans, DESIGN.md §17).  Victims
  /// rotate round-robin over the client nodes except node 0, which hosts
  /// the integrity checker.  0 = off.
  sim::Tick coordinator_kill_period = 0;
  sim::Tick coordinator_down_for = sim::msec(500);

  /// Optional qrdtm-trace recorder attached to the cluster for this point
  /// (nullptr = tracing off, the default).  Sweeps that trace must run one
  /// point per recorder.
  core::TraceRecorder* trace = nullptr;

  /// Also capture each node's individual latency histograms in
  /// ExperimentResult::node_latency (off by default: the merged view is
  /// enough for most tables and the copies are ~30 KiB per node).
  bool collect_per_node_latency = false;
};

struct ExperimentResult {
  /// Every cluster counter at the deadline, before the drain: transactions
  /// still in flight when the run stops do not count toward the point.
  core::Metrics metrics;
  /// Per-kind message and payload-byte counts, taken with `metrics`.
  net::NetStats net;
  double throughput = 0;  // committed root transactions / simulated second
  bool invariants_ok = false;

  /// Cluster-merged latency histograms (always collected -- recording is
  /// allocation-free arithmetic inside the runtimes).
  core::LatencyMetrics latency;
  /// Per-node histograms, filled only when
  /// ExperimentConfig::collect_per_node_latency is set.
  std::vector<core::LatencyMetrics> node_latency;

  /// Commit-log memory at the deadline, summed over the nodes: the
  /// durable bytes (image + tail) and the bytes held or referred to for
  /// them (the image, the tail segments and the shelf runs their prepares
  /// refer to); then the cluster's shelf runs, each counted once however
  /// many logs refer to it.
  std::size_t log_bytes = 0;
  std::size_t log_capacity_bytes = 0;
  std::size_t log_shared_bytes = 0;
  /// Replica and runtime memory at the deadline, summed over the nodes:
  /// the slots of the replicas' applied-outcome tables, and the bucket
  /// windows of the runtimes' latency histograms.
  std::size_t outcome_table_bytes = 0;
  std::size_t histogram_bytes = 0;

  /// Kernel-side cost of the point: host wall-clock for the workload phase
  /// (excludes the quiesce/checker runs) and simulator events executed,
  /// giving an events/sec figure comparable across kernel changes.
  double wall_seconds = 0;
  std::uint64_t events_executed = 0;
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events_executed) /
                                  wall_seconds
                            : 0.0;
  }
};

/// Commit-latency percentile `pct` of the point, in milliseconds.
double commit_percentile_ms(const ExperimentResult& r, double pct);

/// `r` as comma-separated JSON members without the enclosing braces, so a
/// caller can put its own keys (app, mode, ...) in the same object:
/// throughput, abort rate, messages per commit, commit p50/p99, invariants,
/// host cost, and a "counters" object holding every core::kMetricFields
/// counter under its table name.  Undefined ratios (NaN) are written as
/// null.
std::string result_json_members(const ExperimentResult& r);

/// Run one experiment point (deterministic in cfg.cluster.seed).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Run every point, parallelising across hardware threads; results are in
/// input order regardless of scheduling.
std::vector<ExperimentResult> run_sweep(
    const std::vector<ExperimentConfig>& configs);

/// The three execution models in the paper's reporting order.
std::vector<core::NestingMode> paper_modes();

/// paper_modes() plus kQueued (QR-Q, queue-oriented speculative batching).
std::vector<core::NestingMode> all_modes();

/// Fig. 5-8 benchmark list (bst is Fig. 10 only).
std::vector<std::string> paper_apps();

/// Default population per app, tuned so the default client count generates
/// the paper's "moderate to high contention" regime.
std::uint32_t default_objects(const std::string& app);

/// Pretty-print helpers shared by the figure binaries.
void print_header(const std::string& title, const std::string& columns);
std::string fmt(double v, int width = 9, int precision = 1);

}  // namespace qrdtm::bench
