// Determinism golden test: a fixed seed must produce byte-identical
// commit/abort/message counts on every run and across kernel refactors.
//
// The golden values below were recorded from the pre-optimization kernel
// (std::priority_queue of std::function events, per-read data-set rebuild).
// Any hot-path change (event pool, buffer pool, incremental Rqv data-set
// cache) must leave every number untouched: the optimizations may not
// perturb event ordering, validation outcomes, or message counts.
//
// If a test here fails after an intentional *semantic* change (new protocol
// behaviour, different RNG draws), re-record the goldens and explain the
// delta in the PR; if it fails after a perf refactor, the refactor is wrong.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>

#include "bench/harness.h"

namespace qrdtm::bench {
namespace {

struct Golden {
  const char* app;
  core::NestingMode mode;
  std::uint64_t commits;
  std::uint64_t root_aborts;
  std::uint64_t ct_aborts;
  std::uint64_t partial_rollbacks;
  std::uint64_t read_messages;
  std::uint64_t commit_messages;
  // QR-Q only (0 for the per-transaction modes).
  std::uint64_t speculation_rollbacks = 0;
  std::uint64_t batches = 0;
};

// gtest appends "# GetParam() = <printed param>" to each registered test
// name. Its default printer dumps the struct's raw bytes, which start with
// the address of the `app` literal: that address moves with ASLR and with
// any change to the binary's layout, so the names differed from build to
// build. Print the row's identity instead.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << g.app << "/" << core::to_string(g.mode);
}

ExperimentConfig config_for(const char* app, core::NestingMode mode) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.cluster.runtime.mode = mode;
  cfg.params.read_ratio = 0.2;
  cfg.params.nested_calls = 3;
  cfg.params.num_objects = default_objects(app);
  cfg.cluster.num_nodes = 13;
  cfg.clients = 8;
  cfg.cluster.seed = 42;
  cfg.duration = sim::sec(5);
  // QR-Q batches only form with several clients per node: co-locate so the
  // goldens pin the interesting (multi-member batch) code path.
  if (mode == core::NestingMode::kQueued) cfg.client_nodes = 2;
  return cfg;
}

// Recorded from the seed kernel (commit 4af34f7) at the configs above,
// re-recorded after the backoff-cap clamp fix (core/backoff.h): waits that
// previously overshot the backoff cap by up to 50 % are now clamped, which
// shifts retry timing (the RNG draw count per backoff is unchanged).
constexpr Golden kGolden[] = {
    {"bank", core::NestingMode::kFlat, 42, 122, 0, 0, 1996, 2303},
    {"bank", core::NestingMode::kClosed, 45, 129, 40, 0, 2154, 1652},
    {"bank", core::NestingMode::kCheckpoint, 59, 57, 0, 54, 1544, 1428},
    {"slist", core::NestingMode::kFlat, 23, 33, 0, 0, 2486, 784},
    {"slist", core::NestingMode::kClosed, 26, 30, 27, 0, 2562, 322},
    {"slist", core::NestingMode::kCheckpoint, 18, 1, 0, 43, 1774, 266},
    // QR-Q rows recorded when the mode landed (batch planner, seeded batch
    // order, batched 2PC): the trailing columns pin the batch round counts.
    {"bank", core::NestingMode::kQueued, 40, 0, 0, 0, 590, 308, 11, 10},
    {"slist", core::NestingMode::kQueued, 20, 0, 0, 0, 640, 126, 4, 5},
};

class DeterminismGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DeterminismGolden, MatchesGoldenAndRepeats) {
  const Golden& g = GetParam();
  ExperimentConfig cfg = config_for(g.app, g.mode);
  const ExperimentResult first = run_experiment(cfg);
  const ExperimentResult second = run_experiment(cfg);
  const core::Metrics& a = first.metrics;

  // Print in golden-row form so re-recording is copy-paste.
  std::printf("GOLDEN {\"%s\", core::NestingMode::%s, %llu, %llu, %llu, "
              "%llu, %llu, %llu, %llu, %llu},\n",
              g.app,
              g.mode == core::NestingMode::kFlat         ? "kFlat"
              : g.mode == core::NestingMode::kClosed     ? "kClosed"
              : g.mode == core::NestingMode::kCheckpoint ? "kCheckpoint"
                                                         : "kQueued",
              static_cast<unsigned long long>(a.commits),
              static_cast<unsigned long long>(a.root_aborts),
              static_cast<unsigned long long>(a.ct_aborts),
              static_cast<unsigned long long>(a.partial_rollbacks),
              static_cast<unsigned long long>(a.read_messages),
              static_cast<unsigned long long>(a.commit_messages),
              static_cast<unsigned long long>(a.speculation_rollbacks),
              static_cast<unsigned long long>(a.batches_committed));

  // Same seed => every counter identical across two runs in this build.
  EXPECT_EQ(a, second.metrics);
  EXPECT_TRUE(first.invariants_ok);

  // ... and identical to the checked-in pre-refactor kernel.
  EXPECT_EQ(a.commits, g.commits);
  EXPECT_EQ(a.root_aborts, g.root_aborts);
  EXPECT_EQ(a.ct_aborts, g.ct_aborts);
  EXPECT_EQ(a.partial_rollbacks, g.partial_rollbacks);
  EXPECT_EQ(a.read_messages, g.read_messages);
  EXPECT_EQ(a.commit_messages, g.commit_messages);
  EXPECT_EQ(a.speculation_rollbacks, g.speculation_rollbacks);
  EXPECT_EQ(a.batches_committed, g.batches);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeterminismGolden,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           std::string name = info.param.app;
                           name += "_";
                           name += core::to_string(info.param.mode);
                           return name;
                         });

// The harness hands ExperimentConfig::cluster to core::Cluster unchanged, so
// a RuntimeConfig knob set on it shapes the run.  A QR-CN Bank point where
// every transaction is read-only shows it for cn_local_readonly_commit.
ExperimentConfig read_only_cn_point(bool local_readonly_commit) {
  ExperimentConfig cfg;
  cfg.app = "bank";
  cfg.cluster.runtime.mode = core::NestingMode::kClosed;
  cfg.cluster.runtime.cn_local_readonly_commit = local_readonly_commit;
  cfg.cluster.seed = 9;
  cfg.params.read_ratio = 1.0;
  cfg.params.num_objects = default_objects("bank");
  cfg.duration = sim::sec(2);
  return cfg;
}

TEST(Harness, ReadOnlyCommitKnobReachesTheCluster) {
  const ExperimentResult on = run_experiment(read_only_cn_point(true));
  ASSERT_GT(on.metrics.commits, 0u);
  EXPECT_TRUE(on.invariants_ok);
  EXPECT_EQ(on.metrics.commit_requests, 0u);
  EXPECT_EQ(on.metrics.local_commits, on.metrics.commits);

  const ExperimentResult off = run_experiment(read_only_cn_point(false));
  ASSERT_GT(off.metrics.commits, 0u);
  EXPECT_TRUE(off.invariants_ok);
  EXPECT_GT(off.metrics.commit_requests, 0u);
}

}  // namespace
}  // namespace qrdtm::bench
