// qrdtm-trace: deterministic observability for the simulated protocols.
//
// Two complementary facilities, both stamped exclusively with simulator
// ticks (never the host clock -- the det-wall-clock rule applies here too):
//
//   * LatencyHistogram / LatencyMetrics -- fixed-bucket log-scale
//     histograms for the latency distributions the paper's argument is
//     about (commit latency, read RTT, backoff waits, abort-to-retry
//     gaps).  Recording is branch-light integer math into a fixed
//     std::array: no allocation ever, no sort on query, so the histograms
//     can live on the per-event hot path without perturbing the
//     AllocRegression tests.  A percentile query is a cumulative scan
//     over the buckets (O(buckets), query-time only).
//
//   * TraceRecorder -- structured spans (one per root transaction, with
//     child spans for CT scopes, checkpoint create/rollback, read-quorum
//     fetches, 2PC rounds, and backoff waits) plus instant events for
//     replica-side handling.  Attached via Cluster::set_trace_recorder the
//     same way HistoryRecorder is; a null recorder costs one pointer test
//     per site, so runs with tracing off stay bit-identical to the
//     determinism goldens.  Export is Chrome trace-event JSON ("X"
//     complete events), loadable directly in Perfetto (ui.perfetto.dev).
//
// The histogram bucket scheme is HDR-style: values below 2^kSubBits are
// exact; above that, each power-of-two octave is split into 2^kSubBits
// linear sub-buckets, bounding the relative error of any reported
// percentile by 2^-kSubBits (6.25 % at kSubBits = 4).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace qrdtm::core {

class LatencyHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSub = 1u << kSubBits;  // sub-buckets/octave
  static constexpr std::uint32_t kOctaves = 64 - kSubBits;
  static constexpr std::uint32_t kBuckets = kSub + kOctaves * kSub;

  /// O(1), allocation-free; safe on the per-event hot path.
  void record(sim::Tick v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  sim::Tick min() const { return count_ ? min_ : 0; }
  sim::Tick max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at percentile `p` in [0, 100]: the upper edge of the bucket
  /// holding the rank-p sample, clamped to the exact observed [min, max].
  /// 0 when empty.
  sim::Tick percentile(double p) const;

  /// Pointwise sum (merging per-node histograms into a cluster view).
  void merge(const LatencyHistogram& other);

  /// Exact-state equality; the determinism tests assert two same-seed runs
  /// produce identical histograms.
  bool operator==(const LatencyHistogram&) const = default;

  /// Bucket index for `v` (exposed for the bucket-boundary unit tests).
  static std::uint32_t bucket_index(sim::Tick v) {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const std::uint32_t o =
        static_cast<std::uint32_t>(std::bit_width(v)) - 1;  // v in [2^o, 2^o+1)
    const std::uint32_t sub =
        static_cast<std::uint32_t>(v >> (o - kSubBits)) & (kSub - 1);
    return kSub + (o - kSubBits) * kSub + sub;
  }

  /// Inclusive upper edge of bucket `idx` (the representative value
  /// percentile() reports).
  static sim::Tick bucket_upper(std::uint32_t idx) {
    if (idx < kSub) return idx;
    const std::uint32_t o = (idx - kSub) / kSub + kSubBits;
    const std::uint32_t sub = (idx - kSub) % kSub;
    const sim::Tick width = sim::Tick{1} << (o - kSubBits);
    return (sim::Tick{1} << o) + (sub + 1) * width - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  sim::Tick min_ = ~sim::Tick{0};
  sim::Tick max_ = 0;
};

/// The distributions every runtime tracks (per node in the QR family, per
/// cluster in the baselines).  The two batch histograms are only populated
/// under kQueued; `batch_size` records transaction counts, not ticks (the
/// bucket scheme is unit-agnostic).
struct LatencyMetrics {
  LatencyHistogram commit_latency;  // root txn start -> commit done
  LatencyHistogram read_rtt;        // read-quorum fetch round trip
  LatencyHistogram backoff_wait;    // drawn root-retry backoff waits
  LatencyHistogram retry_gap;       // root abort -> next attempt starts
  LatencyHistogram batch_size;      // QR-Q: transactions per committed batch
  LatencyHistogram batch_wait;      // QR-Q: enqueue -> batch execution start

  void merge(const LatencyMetrics& o) {
    commit_latency.merge(o.commit_latency);
    read_rtt.merge(o.read_rtt);
    backoff_wait.merge(o.backoff_wait);
    retry_gap.merge(o.retry_gap);
    batch_size.merge(o.batch_size);
    batch_wait.merge(o.batch_wait);
  }

  bool operator==(const LatencyMetrics&) const = default;
};

/// Span / instant-event vocabulary.  Kinds carry their Perfetto name and
/// category; extra context rides in two generic u64 args (see arg-name
/// table in trace.cpp).
enum class TraceKind : std::uint8_t {
  kTxn = 0,      // whole root transaction (first attempt -> commit)
  kAttempt,      // one attempt of a root transaction
  kCtScope,      // QR-CN closed-nested scope execution
  kChkCreate,    // QR-CHK checkpoint creation (cost charge)
  kChkRollback,  // QR-CHK partial rollback (restore cost)
  kReadFetch,    // read-quorum fetch (multicast + gather)
  kCommit2pc,    // 2PC commit round (request + votes + confirm settle)
  kBackoff,      // randomized retry backoff wait (root or CT)
  kServerRead,   // instant: replica served/validated a read
  kServerVote,   // instant: replica voted on a commit request
  kAbort,        // instant: root abort decided
  kBatch,        // QR-Q batch: execution start -> commit (a0 = size,
                 // a1 = 2PC attempts)
};

struct TraceSpan {
  TraceKind kind = TraceKind::kTxn;
  net::NodeId node = 0;
  TxnId txn = 0;  // root transaction id (Perfetto thread lane)
  sim::Tick start = 0;
  sim::Tick end = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;

  bool operator==(const TraceSpan&) const = default;
};

struct TraceInstant {
  TraceKind kind = TraceKind::kServerRead;
  net::NodeId node = 0;
  TxnId txn = 0;
  sim::Tick at = 0;
  std::uint64_t a0 = 0;

  bool operator==(const TraceInstant&) const = default;
};

/// Append-only span sink for one simulation.  Attach with
/// Cluster::set_trace_recorder (or the baselines' set_trace_recorder)
/// before running; nullptr = tracing off (the default, and the
/// configuration the determinism goldens are recorded under).
class TraceRecorder {
 public:
  void span(TraceKind kind, net::NodeId node, TxnId txn, sim::Tick start,
            sim::Tick end, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    spans_.push_back(TraceSpan{kind, node, txn, start, end, a0, a1});
  }

  void instant(TraceKind kind, net::NodeId node, TxnId txn, sim::Tick at,
               std::uint64_t a0 = 0) {
    instants_.push_back(TraceInstant{kind, node, txn, at, a0});
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }
  bool empty() const { return spans_.empty() && instants_.empty(); }

  void clear() {
    spans_.clear();
    instants_.clear();
  }

  /// Chrome trace-event JSON (https://ui.perfetto.dev loads it as-is):
  /// pid = node, tid = root transaction, "X" complete events with
  /// microsecond timestamps, plus process_name metadata per node.
  std::string chrome_trace_json() const;

  /// Write chrome_trace_json() to `path`.  Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
};

}  // namespace qrdtm::core
