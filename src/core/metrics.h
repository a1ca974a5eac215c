// Cluster-wide experiment metrics.
//
// These counters back every number the paper reports: throughput
// (commits / simulated second), abort rates (root + child aborts, partial
// rollbacks), and message counts split into read and commit requests
// (Fig. 8 reports percentage deltas of exactly these two categories).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

#include "sim/simulator.h"

namespace qrdtm::core {

struct Metrics {
  // --- outcomes ---
  std::uint64_t commits = 0;        // root transactions committed
  std::uint64_t root_aborts = 0;    // full aborts (root restarted)
  std::uint64_t ct_aborts = 0;      // QR-CN: closed-nested scope retries
  std::uint64_t partial_rollbacks = 0;  // QR-CHK: rollbacks to a checkpoint
  std::uint64_t local_commits = 0;  // commits that needed no 2PC (Rqv)

  // --- mechanism counters ---
  std::uint64_t remote_reads = 0;      // read requests issued (per quorum op)
  std::uint64_t local_read_hits = 0;   // served from own/ancestor data-set
  std::uint64_t commit_requests = 0;   // 2PC rounds started
  std::uint64_t validation_failures = 0;  // Rqv abort replies received
  std::uint64_t vote_aborts = 0;          // 2PC rounds that lost a vote
  std::uint64_t checkpoints_created = 0;  // QR-CHK
  std::uint64_t step_guard_trips = 0;     // zombie executions cut short

  // --- QR-Q (queued speculative batching) ---
  std::uint64_t batches_committed = 0;     // batch 2PC rounds that committed
  std::uint64_t speculation_rollbacks = 0; // batch rounds aborted + re-run
  std::uint64_t batch_read_hits = 0;       // reads served from the batch cache

  // --- recovery (churn experiments) ---
  std::uint64_t node_recoveries = 0;  // replicas that completed catch-up
  /// Objects shipped over the wire by version-bounded catch-up pulls (the
  /// rejoining node sent post-log-replay version bounds, servers returned
  /// only strictly-newer copies).  Delta recovery is the point of the
  /// commit log: the test suite asserts it ships far less than the
  /// full-store pull a node that lost its log needs.
  std::uint64_t recovery_delta_objects = 0;
  std::uint64_t log_replay_applies = 0;  // apply ops replayed from local logs
  std::uint64_t checkpoint_cuts = 0;     // commit-log cuts taken cluster-wide
  /// Recovery attempts that exhausted every delta-pull round without
  /// gathering a full read quorum.  The node stays syncing and a re-attempt
  /// is scheduled; a nonzero count under churn is expected, a *growing*
  /// count with no matching node_recoveries means a wedged replica.
  std::uint64_t recovery_failures = 0;
  std::uint64_t log_autocuts = 0;  // checkpoint cuts forced by max_tail_bytes

  // --- cooperative 2PC termination (DESIGN.md §17) ---
  /// In-doubt prepares resolved to commit by a termination round (a peer or
  /// the coordinator supplied the decision, or an applied copy proved it).
  std::uint64_t indoubt_resolved_commit = 0;
  /// In-doubt prepares resolved to abort: an authoritative abort answer, or
  /// presumed-abort after a full round of "no decision + coordinator
  /// restarted into a newer liveness epoch".
  std::uint64_t indoubt_resolved_abort = 0;
  /// TxnStatusRequest rounds issued (each round multicasts one query to the
  /// coordinator and the write-quorum peers, then waits out a backoff).
  std::uint64_t termination_rounds = 0;
  /// Confirms dropped as duplicates by the (txn, epoch) applied-set --
  /// at-least-once retransmission from recovered coordinators and resolving
  /// peers makes these routine, never double-applied.
  std::uint64_t confirm_duplicates = 0;
  /// Merely-protected entries (no durable yes-vote) shed by the
  /// coordinator-liveness lease: the protector's confirm was overdue by the
  /// whole lease.  Zero in chaos-free runs.
  std::uint64_t lease_breaks = 0;

  // --- sharded cohorts ---
  /// 2PC vote rounds whose read+write set spanned more than one quorum
  /// cohort (the multicast covered several cohorts' write quorums).
  std::uint64_t cross_shard_rounds = 0;

  // --- QR-ON (open nesting extension) ---
  std::uint64_t open_commits = 0;        // open-nested bodies committed
  std::uint64_t compensations_run = 0;   // undone after a root abort
  std::uint64_t lock_conflicts = 0;      // abstract-lock acquisition retries
  std::uint64_t lock_messages = 0;       // acquire + release traffic

  // --- message counts (paper Fig. 8 categories) ---
  // One multicast to a quorum of size q counts as q messages, matching the
  // paper's JGroups accounting.
  std::uint64_t read_messages = 0;
  std::uint64_t commit_messages = 0;

  /// Every event that discarded work and restarted it.  QR-Q's unit of
  /// abort is a batch 2PC round (one speculation_rollback discards the
  /// whole batch's speculative state), mirroring how a flat abort discards
  /// one transaction's attempt.
  std::uint64_t total_aborts() const {
    return root_aborts + ct_aborts + partial_rollbacks + speculation_rollbacks;
  }
  std::uint64_t total_messages() const {
    return read_messages + commit_messages + lock_messages;
  }

  double throughput(sim::Tick duration) const {
    double s = sim::to_seconds(duration);
    return s > 0 ? static_cast<double>(commits) / s : 0.0;
  }

  /// `count` per committed transaction, which normalises counts across
  /// runs that commit different numbers of transactions.  With no commits
  /// the ratio is undefined: NaN, never the raw count (which would silently
  /// change units in report output -- printers show "n/a").
  double per_commit(std::uint64_t count) const {
    return commits ? static_cast<double>(count) / static_cast<double>(commits)
                   : std::numeric_limits<double>::quiet_NaN();
  }

  /// Aborts per committed transaction (dimensionless abort rate).
  double abort_rate() const { return per_commit(total_aborts()); }
  double messages_per_commit() const { return per_commit(total_messages()); }

  bool operator==(const Metrics&) const = default;
};

/// One counter's output name and member.
struct MetricField {
  const char* name;
  std::uint64_t Metrics::*field;
};

/// Every Metrics counter, in declaration order.  Reports, JSON writers and
/// tests iterate this table instead of listing counters by hand; the
/// static_assert below fails the build when a field is added to Metrics
/// but not here.
inline constexpr std::array kMetricFields = {
    MetricField{"commits", &Metrics::commits},
    MetricField{"root_aborts", &Metrics::root_aborts},
    MetricField{"ct_aborts", &Metrics::ct_aborts},
    MetricField{"partial_rollbacks", &Metrics::partial_rollbacks},
    MetricField{"local_commits", &Metrics::local_commits},
    MetricField{"remote_reads", &Metrics::remote_reads},
    MetricField{"local_read_hits", &Metrics::local_read_hits},
    MetricField{"commit_requests", &Metrics::commit_requests},
    MetricField{"validation_failures", &Metrics::validation_failures},
    MetricField{"vote_aborts", &Metrics::vote_aborts},
    MetricField{"checkpoints_created", &Metrics::checkpoints_created},
    MetricField{"step_guard_trips", &Metrics::step_guard_trips},
    MetricField{"batches_committed", &Metrics::batches_committed},
    MetricField{"speculation_rollbacks", &Metrics::speculation_rollbacks},
    MetricField{"batch_read_hits", &Metrics::batch_read_hits},
    MetricField{"node_recoveries", &Metrics::node_recoveries},
    MetricField{"recovery_delta_objects", &Metrics::recovery_delta_objects},
    MetricField{"log_replay_applies", &Metrics::log_replay_applies},
    MetricField{"checkpoint_cuts", &Metrics::checkpoint_cuts},
    MetricField{"recovery_failures", &Metrics::recovery_failures},
    MetricField{"log_autocuts", &Metrics::log_autocuts},
    MetricField{"indoubt_resolved_commit", &Metrics::indoubt_resolved_commit},
    MetricField{"indoubt_resolved_abort", &Metrics::indoubt_resolved_abort},
    MetricField{"termination_rounds", &Metrics::termination_rounds},
    MetricField{"confirm_duplicates", &Metrics::confirm_duplicates},
    MetricField{"lease_breaks", &Metrics::lease_breaks},
    MetricField{"cross_shard_rounds", &Metrics::cross_shard_rounds},
    MetricField{"open_commits", &Metrics::open_commits},
    MetricField{"compensations_run", &Metrics::compensations_run},
    MetricField{"lock_conflicts", &Metrics::lock_conflicts},
    MetricField{"lock_messages", &Metrics::lock_messages},
    MetricField{"read_messages", &Metrics::read_messages},
    MetricField{"commit_messages", &Metrics::commit_messages},
};

namespace detail {
/// No two table entries share a name or a member.  With the size check
/// below this makes the table a one-to-one cover of Metrics' fields.
consteval bool metric_fields_distinct() {
  for (std::size_t i = 0; i < kMetricFields.size(); ++i) {
    for (std::size_t j = i + 1; j < kMetricFields.size(); ++j) {
      if (kMetricFields[i].field == kMetricFields[j].field ||
          std::string_view(kMetricFields[i].name) == kMetricFields[j].name) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace detail

static_assert(sizeof(Metrics) ==
                  kMetricFields.size() * sizeof(std::uint64_t),
              "every Metrics field needs a kMetricFields entry");
static_assert(detail::metric_fields_distinct(),
              "kMetricFields lists a field or a name twice");

}  // namespace qrdtm::core
