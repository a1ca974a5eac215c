// Per-layer measurements built from outside the program: self times from the
// trace recorder's spans, and host-clock probes that time public src/ calls
// on inputs taken from a recorded history and a quiesced cluster.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/history.h"
#include "core/trace.h"

namespace qrdtm::benchmark {

constexpr std::size_t kTraceKinds =
    static_cast<std::size_t>(core::TraceKind::kBatch) + 1;

/// Simulated-time breakdown of one traced run.
struct SpanBreakdown {
  /// Self time (span minus the part its child spans cover), summed per kind.
  std::array<sim::Tick, kTraceKinds> self{};
  /// Time spent in work later discarded: aborted attempts, aborted
  /// closed-nested scopes inside surviving work, and QR-Q 2PC rounds whose
  /// batch did not commit.
  sim::Tick wasted = 0;
  /// Self time summed over every committed root transaction's span tree
  /// (flat, QR-CN and QR-CHK, whose spans nest by construction).
  sim::Tick committed_tree_self = 0;
  std::vector<sim::Tick> read_rtts;
  /// QR-Q: enqueue -> batch execution start per member, and batch execution
  /// start -> commit per batch.
  std::vector<sim::Tick> batch_waits;
  std::vector<sim::Tick> batch_execs;
  std::uint64_t server_reads = 0;
  std::uint64_t server_votes = 0;
  std::uint64_t server_abort_votes = 0;
};

/// Analyse the first `spans` spans and `instants` instants of `trace`.
SpanBreakdown analyze_trace(const core::TraceRecorder& trace,
                            std::size_t spans, std::size_t instants);

/// Nearest-rank percentile (the LatencyHistogram rank rule), 0 when empty.
sim::Tick percentile(std::vector<sim::Tick> values, double p);

/// Host-clock costs of single layers, each the median of several timed
/// passes over the same inputs.
struct HostProbes {
  double store_commit_ns = 0;  // protect, prepare, confirm, apply, unprotect
  double replay_ns_per_record = 0;
  double cut_ms = 0;
  double quorum_lookup_ns = 0;
  double quorum_read_size = 0;
  double quorum_write_size = 0;
  double read_req_bytes = 0;     // all read requests of a commit, per commit
  double read_req_codec_ns = 0;  // encode + decode, per request
  double commit_req_bytes = 0;   // per request
  double commit_req_codec_ns = 0;
  bool codecs_ok = true;  // every decode returned what was encoded
};

HostProbes run_probes(core::Cluster& cluster,
                      const core::HistoryRecorder& history,
                      core::NestingMode mode,
                      const std::vector<net::NodeId>& client_nodes);

}  // namespace qrdtm::benchmark
