// Benchmark-application tests: reference-model checks for every data
// structure plus (app x nesting-mode) workload integrity sweeps.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "apps/app.h"
#include "apps/bank.h"
#include "apps/bst.h"
#include "apps/hashmap.h"
#include "apps/rbtree.h"
#include "apps/skiplist.h"
#include "apps/vacation.h"

namespace qrdtm::apps {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::NestingMode;

ClusterConfig app_cfg(NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = mode;
  cfg.seed = 2024;
  return cfg;
}

// ---------------------------------------------------------------- reference

// Drives a key-value structure with a random op sequence mirrored into a
// std::map, then checks lookups and invariants.  `Ops` adapts the app.
template <class AppT>
void reference_model_test(NestingMode mode, std::uint32_t initial) {
  Cluster c(app_cfg(mode));
  AppT app;
  WorkloadParams params;
  params.num_objects = initial;
  Rng setup_rng(99);
  app.setup(c, params, setup_rng);

  // Rebuild the reference from the seeded structure via lookups.
  std::map<std::uint64_t, std::int64_t> ref;
  for (std::uint64_t k = 1; k <= app.key_space() + 1; ++k) {
    std::int64_t v = 0;
    bool found = false;
    c.spawn_client(0, app.make_lookup(k, &v, &found));
    c.run_to_completion();
    if (found) ref[k] = v;
  }
  EXPECT_EQ(ref.size(), initial);

  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    std::uint64_t key = rng.below(app.key_space()) + 1;
    std::int64_t value = rng.range(0, 1000);
    int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {  // insert/update
      c.spawn_client(1, app.make_op(AppT::OpKind::kInsert, key, value));
      c.run_to_completion();
      ref[key] = value;
    } else if (kind == 1) {  // remove
      c.spawn_client(2, app.make_op(AppT::OpKind::kRemove, key, 0));
      c.run_to_completion();
      ref.erase(key);
    } else {  // lookup
      std::int64_t v = 0;
      bool found = false;
      c.spawn_client(3, app.make_lookup(key, &v, &found));
      c.run_to_completion();
      ASSERT_EQ(found, ref.contains(key)) << "key " << key << " iter " << i;
      if (found) {
        ASSERT_EQ(v, ref.at(key));
      }
    }
  }

  // Full content equality plus structural invariants.
  for (const auto& [k, v] : ref) {
    std::int64_t got = 0;
    bool found = false;
    c.spawn_client(4, app.make_lookup(k, &got, &found));
    c.run_to_completion();
    ASSERT_TRUE(found) << "key " << k;
    ASSERT_EQ(got, v);
  }
  bool ok = false;
  c.spawn_client(0, app.make_checker(&ok));
  c.run_to_completion();
  EXPECT_TRUE(ok);
}

TEST(HashmapRef, MatchesStdMapFlat) {
  reference_model_test<HashmapApp>(NestingMode::kFlat, 24);
}
TEST(HashmapRef, MatchesStdMapClosed) {
  reference_model_test<HashmapApp>(NestingMode::kClosed, 24);
}
TEST(HashmapRef, MatchesStdMapCheckpoint) {
  reference_model_test<HashmapApp>(NestingMode::kCheckpoint, 24);
}
TEST(SkipListRef, MatchesStdMapFlat) {
  reference_model_test<SkipListApp>(NestingMode::kFlat, 24);
}
TEST(SkipListRef, MatchesStdMapClosed) {
  reference_model_test<SkipListApp>(NestingMode::kClosed, 24);
}
TEST(SkipListRef, MatchesStdMapCheckpoint) {
  reference_model_test<SkipListApp>(NestingMode::kCheckpoint, 24);
}
TEST(BstRef, MatchesStdMapFlat) {
  reference_model_test<BstApp>(NestingMode::kFlat, 24);
}
TEST(BstRef, MatchesStdMapCheckpoint) {
  reference_model_test<BstApp>(NestingMode::kCheckpoint, 24);
}
TEST(RbTreeRef, MatchesStdMapFlat) {
  reference_model_test<RbTreeApp>(NestingMode::kFlat, 24);
}
TEST(RbTreeRef, MatchesStdMapClosed) {
  reference_model_test<RbTreeApp>(NestingMode::kClosed, 24);
}
TEST(RbTreeRef, MatchesStdMapCheckpoint) {
  reference_model_test<RbTreeApp>(NestingMode::kCheckpoint, 24);
}

TEST(RbTreeRef, ManyInsertsKeepRedBlackInvariants) {
  // Grow the tree well past its seeded size; the checker verifies root
  // blackness, no red-red edges, and equal black heights after every batch.
  Cluster c(app_cfg(NestingMode::kFlat));
  RbTreeApp app;
  WorkloadParams params;
  params.num_objects = 4;
  Rng setup_rng(5);
  app.setup(c, params, setup_rng);
  Rng rng(6);
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 20; ++i) {
      std::uint64_t key = rng.below(10000) + 1;
      c.spawn_client(1, app.make_op(RbTreeApp::OpKind::kInsert, key,
                                    static_cast<std::int64_t>(key)));
      c.run_to_completion();
    }
    bool ok = false;
    c.spawn_client(0, app.make_checker(&ok));
    c.run_to_completion();
    ASSERT_TRUE(ok) << "batch " << batch;
  }
}

// ----------------------------------------------------- concurrent sweeps

// gtest's default printer puts SweepParam's raw bytes into every registered
// test name. The app name is held inline, and the struct has no padding, so
// those bytes (and the names) are the same in every build; a `const char*`
// here would put the literal's ASLR address into the names.
struct SweepParam {
  char app[15];
  NestingMode mode;
};
static_assert(sizeof(SweepParam) == 16);
static_assert(std::has_unique_object_representations_v<SweepParam>);

class AppModeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AppModeSweep, ConcurrentWorkloadPreservesInvariants) {
  const auto& [app_name, mode] = GetParam();
  ClusterConfig cfg = app_cfg(mode);
  Cluster c(cfg);
  auto app = make_app(app_name);
  WorkloadParams params;
  params.num_objects = 32;
  params.nested_calls = 3;
  params.read_ratio = 0.2;  // write-heavy: maximum contention
  Rng setup_rng(17);
  app->setup(c, params, setup_rng);

  for (net::NodeId n = 0; n < 8; ++n) {
    c.spawn_loop_client(n, [&app, &params](Rng& rng) {
      return app->make_txn(params, rng);
    });
  }
  c.run_for(sim::sec(30));
  c.run_to_completion();  // drain in-flight transactions

  EXPECT_GT(c.metrics().commits, 50u) << "workload barely ran";

  bool ok = false;
  c.spawn_client(0, app->make_checker(&ok));
  c.run_to_completion();
  EXPECT_TRUE(ok) << app_name << " integrity violated under "
                  << core::to_string(mode);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(info.param.app) + "_" +
         core::to_string(info.param.mode);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllModes, AppModeSweep,
    ::testing::Values(
        SweepParam{"bank", NestingMode::kFlat},
        SweepParam{"bank", NestingMode::kClosed},
        SweepParam{"bank", NestingMode::kCheckpoint},
        SweepParam{"hashmap", NestingMode::kFlat},
        SweepParam{"hashmap", NestingMode::kClosed},
        SweepParam{"hashmap", NestingMode::kCheckpoint},
        SweepParam{"slist", NestingMode::kFlat},
        SweepParam{"slist", NestingMode::kClosed},
        SweepParam{"slist", NestingMode::kCheckpoint},
        SweepParam{"rbtree", NestingMode::kFlat},
        SweepParam{"rbtree", NestingMode::kClosed},
        SweepParam{"rbtree", NestingMode::kCheckpoint},
        SweepParam{"bst", NestingMode::kFlat},
        SweepParam{"bst", NestingMode::kClosed},
        SweepParam{"bst", NestingMode::kCheckpoint},
        SweepParam{"vacation", NestingMode::kFlat},
        SweepParam{"vacation", NestingMode::kClosed},
        SweepParam{"vacation", NestingMode::kCheckpoint}),
    sweep_name);

TEST(AppFactory, KnowsAllApps) {
  for (const auto& name : app_names()) {
    auto app = make_app(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
  }
  EXPECT_THROW(make_app("nope"), InvariantError);
}

}  // namespace
}  // namespace qrdtm::apps
