// Unit tests for qrdtm-trace (core/trace.h): histogram bucket boundaries,
// percentile accessors, merge semantics, Chrome trace-event export, and the
// determinism contract (same seed => identical histograms; tracing on =>
// identical protocol outcomes).
#include "core/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "core/metrics.h"

namespace qrdtm::core {
namespace {

// ---------------------------------------------------------------------------
// Bucket boundaries.

TEST(LatencyHistogramBuckets, SmallValuesAreExact) {
  // Below 2^kSubBits every value gets its own bucket, and the first octave
  // keeps unit-width buckets, so indices are the identity through 2^(kSubBits+1).
  for (sim::Tick v = 0; v < 2 * LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(
                  LatencyHistogram::bucket_index(v)),
              v);
  }
}

TEST(LatencyHistogramBuckets, OctaveEdgesAreContinuous) {
  // At every power of two, v-1 must be the inclusive upper edge of its
  // bucket and v must start the next one -- no gap, no overlap.
  for (std::uint32_t o = LatencyHistogram::kSubBits + 1; o < 52; ++o) {
    const sim::Tick v = sim::Tick{1} << o;
    const std::uint32_t below = LatencyHistogram::bucket_index(v - 1);
    const std::uint32_t at = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(at, below + 1) << "octave " << o;
    EXPECT_EQ(LatencyHistogram::bucket_upper(below), v - 1) << "octave " << o;
  }
}

TEST(LatencyHistogramBuckets, IndexIsMonotoneAndUpperBounds) {
  std::uint32_t prev = 0;
  for (sim::Tick v = 1; v < (sim::Tick{1} << 40); v = v * 3 + 1) {
    const std::uint32_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    EXPECT_GE(LatencyHistogram::bucket_upper(idx), v);
    if (idx > 0) {
      EXPECT_LT(LatencyHistogram::bucket_upper(idx - 1), v);
    }
    prev = idx;
  }
}

TEST(LatencyHistogramBuckets, RelativeErrorBounded) {
  // Sub-bucket width is 2^(o-kSubBits) inside octave o, so the edge
  // reported for any value v >= kSub overshoots by at most v / kSub.
  for (sim::Tick v = LatencyHistogram::kSub; v < (sim::Tick{1} << 40);
       v = v * 5 + 3) {
    const sim::Tick upper =
        LatencyHistogram::bucket_upper(LatencyHistogram::bucket_index(v));
    EXPECT_LE(upper - v, v / LatencyHistogram::kSub) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Percentile accessors.

TEST(LatencyHistogramPercentile, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LatencyHistogramPercentile, NearestRankOnExactBuckets) {
  // Values 1..10 all land in exact unit buckets, so nearest-rank answers
  // are exact: rank(p) = floor(p/100 * 10 + 0.5).
  LatencyHistogram h;
  for (sim::Tick v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.percentile(0), 1u);    // clamps to min
  EXPECT_EQ(h.percentile(10), 1u);   // rank 1
  EXPECT_EQ(h.percentile(50), 5u);   // rank 5
  EXPECT_EQ(h.percentile(90), 9u);   // rank 9
  EXPECT_EQ(h.percentile(100), 10u); // clamps to max
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(LatencyHistogramPercentile, ClampsToObservedExtremes) {
  // A single sample: every percentile reports exactly it, even though its
  // bucket edge overshoots the raw value.
  LatencyHistogram h;
  const sim::Tick v = sim::msec(17) + 123;
  h.record(v);
  EXPECT_EQ(h.percentile(1), v);
  EXPECT_EQ(h.percentile(50), v);
  EXPECT_EQ(h.percentile(99), v);
  EXPECT_EQ(h.min(), v);
  EXPECT_EQ(h.max(), v);
}

TEST(LatencyHistogramPercentile, ErrorWithinSubBucketBound) {
  // Log-spaced samples: reported percentiles stay within the advertised
  // 1/kSub relative error of the true nearest-rank sample.
  std::vector<sim::Tick> vals;
  LatencyHistogram h;
  for (sim::Tick v = 100; v < 100'000'000; v = v * 21 / 20 + 1) {
    vals.push_back(v);
    h.record(v);
  }
  for (double p : {50.0, 90.0, 99.0}) {
    std::uint64_t rank = static_cast<std::uint64_t>(
        (p / 100.0) * static_cast<double>(vals.size()) + 0.5);
    if (rank < 1) rank = 1;
    const sim::Tick exact = vals[rank - 1];  // vals is recorded sorted
    const sim::Tick got = h.percentile(p);
    EXPECT_GE(got, exact);
    EXPECT_LE(got - exact, exact / LatencyHistogram::kSub) << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingEverything) {
  LatencyHistogram a, b, all;
  for (sim::Tick v : {1u, 2u, 3u, 700u, 41u}) {
    a.record(v);
    all.record(v);
  }
  for (sim::Tick v : {5u, 1'000'000u}) {
    b.record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.count(), 7u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1'000'000u);

  LatencyHistogram empty;
  a.merge(empty);  // merging empty is a no-op
  EXPECT_EQ(a, all);
}

// ---------------------------------------------------------------------------
// Windowed buckets: a histogram holds counts only over the octaves it has
// seen, and reads exactly as the dense array of kBuckets would.

/// The dense reference: every bucket, and the nearest-rank percentile over
/// all of them.
struct DenseHistogram {
  std::vector<std::uint64_t> counts =
      std::vector<std::uint64_t>(LatencyHistogram::kBuckets);
  std::uint64_t count = 0;
  sim::Tick min = ~sim::Tick{0};
  sim::Tick max = 0;

  void record(sim::Tick v) {
    ++counts[LatencyHistogram::bucket_index(v)];
    ++count;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  void merge(const DenseHistogram& o) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
    count += o.count;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  sim::Tick percentile(double p) const {
    if (count == 0) return 0;
    if (p <= 0.0) return min;
    if (p >= 100.0) return max;
    std::uint64_t rank = static_cast<std::uint64_t>(
        (p / 100.0) * static_cast<double>(count) + 0.5);
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < counts.size(); ++i) {
      seen += counts[i];
      if (seen >= rank) {
        return std::clamp(LatencyHistogram::bucket_upper(i), min, max);
      }
    }
    return max;
  }
};

/// `h` reads as `dense` does: every bucket, the extremes, and the
/// percentiles.
void expect_reads_as(const LatencyHistogram& h, const DenseHistogram& dense,
                     const std::string& what) {
  ASSERT_EQ(h.count(), dense.count) << what;
  EXPECT_EQ(h.min(), dense.count ? dense.min : 0) << what;
  EXPECT_EQ(h.max(), dense.max) << what;
  for (std::uint32_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    ASSERT_EQ(h.bucket_count(i), dense.counts[i]) << what << ", bucket " << i;
  }
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.percentile(p), dense.percentile(p)) << what << ", p" << p;
  }
}

/// `n` samples spread over `octaves` octaves from octave `first`.
std::vector<sim::Tick> samples_over(Rng& rng, std::uint32_t first,
                                    std::uint32_t octaves, int n) {
  std::vector<sim::Tick> out;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t o = first + static_cast<std::uint32_t>(rng.below(octaves));
    out.push_back((sim::Tick{1} << o) + rng.below(sim::Tick{1} << o));
  }
  return out;
}

TEST(LatencyHistogramWindow, ReadsAsTheDenseArray) {
  Rng rng(11);
  for (std::uint32_t octaves : {1u, 2u, 5u, 13u, 27u, 40u}) {
    for (std::uint32_t first : {0u, 3u, 20u, 62u - octaves}) {
      LatencyHistogram h;
      DenseHistogram dense;
      for (sim::Tick v : samples_over(rng, first, octaves, 500)) {
        h.record(v);
        dense.record(v);
      }
      expect_reads_as(h, dense,
                      "octaves " + std::to_string(first) + "+" +
                          std::to_string(octaves));
      // The window is the octaves seen plus at most one on each side.
      EXPECT_LE(h.capacity_bytes(),
                (octaves + 2) * LatencyHistogram::kSub * sizeof(std::uint64_t));
    }
  }
}

TEST(LatencyHistogramWindow, MergeMatchesTheDenseMergeInEitherOrder) {
  Rng rng(12);
  // Overlapping windows, nested ones, and disjoint ones far apart.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> spans{
      {4, 6}, {8, 3}, {5, 30}, {12, 2}, {2, 3}, {40, 4}};
  for (std::size_t i = 0; i < spans.size(); i += 2) {
    LatencyHistogram a, b;
    DenseHistogram da, db;
    for (sim::Tick v : samples_over(rng, spans[i].first, spans[i].second, 300)) {
      a.record(v);
      da.record(v);
    }
    for (sim::Tick v :
         samples_over(rng, spans[i + 1].first, spans[i + 1].second, 200)) {
      b.record(v);
      db.record(v);
    }
    DenseHistogram dense = da;
    dense.merge(db);
    LatencyHistogram ab = a;
    ab.merge(b);
    LatencyHistogram ba = b;
    ba.merge(a);
    const std::string pair = "pair " + std::to_string(i / 2);
    expect_reads_as(ab, dense, pair + ", a then b");
    expect_reads_as(ba, dense, pair + ", b then a");
    EXPECT_EQ(ab, ba) << pair;
    EXPECT_NE(ab, a) << pair;
  }
}

TEST(LatencyHistogramWindow, EqualityOfEmptyMergedAndRecordedCopies) {
  LatencyHistogram empty, merged_empty, also_empty;
  merged_empty.merge(also_empty);
  EXPECT_EQ(empty, merged_empty);
  EXPECT_EQ(empty.capacity_bytes(), 0u) << "no sample, no buckets";

  // The same samples recorded one by one, and merged from two histograms
  // over disjoint octaves into one that saw the low ones first.
  LatencyHistogram all, low, high;
  for (sim::Tick v : {3u, 17u, 40u}) {
    all.record(v);
    low.record(v);
  }
  for (sim::Tick v : {sim::Tick{1} << 30, sim::Tick{3} << 33}) {
    all.record(v);
    high.record(v);
  }
  LatencyHistogram merged = low;
  merged.merge(high);
  EXPECT_EQ(merged, all);
  EXPECT_EQ(all, merged);
  merged.merge(empty);
  EXPECT_EQ(merged, all);
  LatencyHistogram other = all;
  other.record(17);
  EXPECT_NE(other, all);
  EXPECT_NE(empty, all);
}

// ---------------------------------------------------------------------------
// Metrics NaN contract: per-commit ratios are undefined with zero commits.

TEST(MetricsAbortRate, ZeroCommitsIsNaN) {
  Metrics m;
  m.root_aborts = 7;
  m.read_messages = 5;
  EXPECT_TRUE(std::isnan(m.abort_rate()));
  EXPECT_TRUE(std::isnan(m.messages_per_commit()));
  EXPECT_NE(bench::fmt(m.abort_rate(), 8, 2).find("n/a"), std::string::npos);
  m.commits = 2;
  EXPECT_DOUBLE_EQ(m.abort_rate(), 3.5);
  EXPECT_DOUBLE_EQ(m.messages_per_commit(), 2.5);
}

// ---------------------------------------------------------------------------
// Counter table: every Metrics field reaches the shared JSON writer (which
// qrdtm_run --metrics-json and contention_modes use).

TEST(MetricsJson, EveryCounterReachesResultJson) {
  bench::ExperimentResult r;
  for (std::size_t i = 0; i < kMetricFields.size(); ++i) {
    r.metrics.*kMetricFields[i].field = 1000 + i;
  }
  const std::string json = bench::result_json_members(r);
  for (std::size_t i = 0; i < kMetricFields.size(); ++i) {
    std::string member = "\"";
    member += kMetricFields[i].name;
    member += "\": " + std::to_string(1000 + i);
    EXPECT_NE(json.find(member), std::string::npos) << member;
  }
}

TEST(MetricsJson, UndefinedRatiosAreNull) {
  const std::string json = bench::result_json_members({});
  EXPECT_NE(json.find("\"abort_rate\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"messages_per_commit\": null"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

TEST(TraceRecorder, ChromeJsonSchema) {
  TraceRecorder rec;
  rec.span(TraceKind::kTxn, /*node=*/2, /*txn=*/7, /*start=*/1000,
           /*end=*/5000, /*a0=*/3);
  rec.span(TraceKind::kCommit2pc, 2, 7, 2000, 4500, 5, 0);
  rec.instant(TraceKind::kServerRead, /*node=*/1, /*txn=*/7, /*at=*/1500, 0);
  const std::string json = rec.chrome_trace_json();

  // Top-level trace-event envelope.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // Process metadata for both nodes.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 2\""), std::string::npos);
  // Complete events carry pid=node, tid=txn, microsecond timestamps
  // (1000 ns == 1.000 us) and named args.
  EXPECT_NE(json.find("\"name\":\"txn\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":2,\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":4.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"attempts\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"commit_2pc\""), std::string::npos);
  EXPECT_NE(json.find("\"writeset\":5"), std::string::npos);
  // Instant event.
  EXPECT_NE(json.find("\"name\":\"server_read\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Braces balance (cheap well-formedness proxy; Perfetto is the real
  // consumer and is exercised manually per README).
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceRecorder, WriteRoundTrip) {
  TraceRecorder rec;
  rec.span(TraceKind::kReadFetch, 0, 1, 10, 20, 4, 2);
  const std::string path = ::testing::TempDir() + "qrdtm_trace_rt.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), rec.chrome_trace_json());

  TraceRecorder empty_rec;
  EXPECT_TRUE(empty_rec.empty());
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

// ---------------------------------------------------------------------------
// Determinism: same seed => identical histograms; tracing must not perturb
// the simulation.

bench::ExperimentConfig small_config() {
  bench::ExperimentConfig cfg;
  cfg.app = "bank";
  cfg.cluster.runtime.mode = NestingMode::kClosed;
  cfg.params.read_ratio = 0.2;
  cfg.params.nested_calls = 3;
  cfg.params.num_objects = 16;
  cfg.cluster.num_nodes = 5;
  cfg.clients = 4;
  cfg.cluster.seed = 11;
  cfg.duration = sim::sec(1);
  return cfg;
}

TEST(TraceDeterminism, SameSeedSameHistograms) {
  bench::ExperimentConfig cfg = small_config();
  bench::ExperimentResult a = bench::run_experiment(cfg);
  bench::ExperimentResult b = bench::run_experiment(cfg);
  ASSERT_GT(a.metrics.commits, 0u);
  EXPECT_EQ(a.metrics.commits, b.metrics.commits);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.latency.commit_latency.count(), a.metrics.commits);
  EXPECT_GT(a.latency.read_rtt.count(), 0u);
}

TEST(TraceDeterminism, TracingOnDoesNotPerturbTheRun) {
  bench::ExperimentConfig cfg = small_config();
  bench::ExperimentResult off = bench::run_experiment(cfg);

  TraceRecorder rec;
  cfg.trace = &rec;
  bench::ExperimentResult on = bench::run_experiment(cfg);

  // Every counter and every latency distribution identical: the recorder
  // only observes.
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_TRUE(on.latency == off.latency);

  // And the trace itself is substantive: at least one kTxn span per commit
  // counted at the cutoff (the quiesce after the measurement window lets
  // in-flight transactions and the invariant checker commit too), ordered
  // sanely.
  ASSERT_FALSE(rec.empty());
  std::uint64_t txn_spans = 0;
  for (const TraceSpan& s : rec.spans()) {
    EXPECT_LE(s.start, s.end);
    if (s.kind == TraceKind::kTxn) ++txn_spans;
  }
  EXPECT_GE(txn_spans, on.metrics.commits);
  EXPECT_FALSE(rec.instants().empty());
}

}  // namespace
}  // namespace qrdtm::core
