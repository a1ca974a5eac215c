// Unit and property tests for quorum providers (quorum/).
#include "quorum/quorum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/rng.h"

namespace qrdtm::quorum {
namespace {

TreeQuorumProvider::Config tree_cfg(std::uint32_t n, std::uint32_t level = 1,
                                    bool same = true, std::uint32_t degree = 3) {
  TreeQuorumProvider::Config c;
  c.num_nodes = n;
  c.degree = degree;
  c.read_level = level;
  c.same_for_all = same;
  return c;
}

TEST(TreeQuorum, PaperFig3Shapes) {
  // 13-node ternary tree (paper Fig. 3): read quorum = majority of the
  // root's children (2 nodes), write quorum = rooted majority at every
  // level (7 nodes).
  TreeQuorumProvider q(tree_cfg(13));
  auto rq = q.cohort_read_quorum(0, 0);
  auto wq = q.cohort_write_quorum(0, 0);
  EXPECT_EQ(rq.size(), 2u);
  EXPECT_EQ(wq.size(), 7u);
  EXPECT_TRUE(std::find(wq.begin(), wq.end(), 0u) != wq.end())
      << "write quorum must contain the root";
  EXPECT_TRUE(intersects(rq, wq));
}

TEST(TreeQuorum, ReadLevelZeroIsRootOnly) {
  TreeQuorumProvider q(tree_cfg(13, /*level=*/0));
  auto rq = q.cohort_read_quorum(0, 0);
  EXPECT_EQ(rq, std::vector<net::NodeId>{0});
}

TEST(TreeQuorum, ReadLevelTwoIsLeafMajorities) {
  TreeQuorumProvider q(tree_cfg(13, /*level=*/2));
  auto rq = q.cohort_read_quorum(0, 0);
  // Majority of root's children (2), then majority of each one's children
  // (2 each) = 4 leaves.
  EXPECT_EQ(rq.size(), 4u);
  auto wq = q.cohort_write_quorum(0, 0);
  EXPECT_TRUE(intersects(rq, wq));
}

TEST(TreeQuorum, SingleNodeTree) {
  TreeQuorumProvider q(tree_cfg(1, /*level=*/0));
  EXPECT_EQ(q.cohort_read_quorum(0, 0), std::vector<net::NodeId>{0});
  EXPECT_EQ(q.cohort_write_quorum(0, 0), std::vector<net::NodeId>{0});
}

TEST(TreeQuorum, RotationSpreadsLoadButPreservesIntersection) {
  auto cfg = tree_cfg(13);
  cfg.same_for_all = false;
  TreeQuorumProvider q(cfg);
  std::set<std::vector<net::NodeId>> distinct;
  for (net::NodeId n = 0; n < 13; ++n) {
    distinct.insert(q.cohort_read_quorum(n, 0));
  }
  EXPECT_GT(distinct.size(), 1u) << "rotation should vary quorums";
  for (net::NodeId a = 0; a < 13; ++a) {
    for (net::NodeId b = 0; b < 13; ++b) {
      EXPECT_TRUE(intersects(q.cohort_read_quorum(a, 0),
                             q.cohort_write_quorum(b, 0)))
          << "R(" << a << ") vs W(" << b << ")";
      EXPECT_TRUE(intersects(q.cohort_write_quorum(a, 0),
                             q.cohort_write_quorum(b, 0)));
    }
  }
}

// Property: Q1 (read/write intersection) and Q2 (write/write intersection)
// hold for every tree size, read level, degree, and rotation.
class TreeQuorumProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TreeQuorumProperty, IntersectionInvariants) {
  const auto [num_nodes, read_level, degree] = GetParam();
  auto cfg = tree_cfg(num_nodes, read_level, /*same=*/false, degree);
  TreeQuorumProvider q(cfg);
  for (net::NodeId a = 0; a < cfg.num_nodes; ++a) {
    auto rq = q.cohort_read_quorum(a, 0);
    EXPECT_FALSE(rq.empty());
    for (net::NodeId b = 0; b < cfg.num_nodes; ++b) {
      ASSERT_TRUE(intersects(rq, q.cohort_write_quorum(b, 0)))
          << "n=" << num_nodes << " level=" << read_level << " R(" << a
          << ") W(" << b << ")";
      ASSERT_TRUE(intersects(q.cohort_write_quorum(a, 0),
                             q.cohort_write_quorum(b, 0)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeQuorumProperty,
    ::testing::Values(std::tuple{1, 0, 3}, std::tuple{4, 1, 3},
                      std::tuple{7, 1, 3}, std::tuple{13, 0, 3},
                      std::tuple{13, 1, 3}, std::tuple{13, 2, 3},
                      std::tuple{28, 1, 3}, std::tuple{28, 2, 3},
                      std::tuple{40, 1, 3}, std::tuple{40, 2, 3},
                      std::tuple{40, 3, 3},
                      // binary and quaternary trees
                      std::tuple{7, 1, 2}, std::tuple{15, 2, 2},
                      std::tuple{31, 3, 2}, std::tuple{21, 1, 4},
                      std::tuple{21, 2, 4}, std::tuple{40, 1, 5}));

TEST(TreeQuorum, SurvivesLeafFailures) {
  TreeQuorumProvider q(tree_cfg(13, /*level=*/2));
  q.on_failure(4);
  q.on_failure(7);
  auto rq = q.cohort_read_quorum(0, 0);
  auto wq = q.cohort_write_quorum(0, 0);
  EXPECT_TRUE(intersects(rq, wq));
  for (net::NodeId dead : {4u, 7u}) {
    EXPECT_TRUE(std::find(rq.begin(), rq.end(), dead) == rq.end());
    EXPECT_TRUE(std::find(wq.begin(), wq.end(), dead) == wq.end());
  }
}

TEST(TreeQuorum, ReadQuorumSubstitutesDeadInternalNode) {
  // Kill n1: a level-1 read quorum must replace it with a majority of its
  // children (or use other root children).
  TreeQuorumProvider q(tree_cfg(13, /*level=*/1));
  q.on_failure(1);
  auto rq = q.cohort_read_quorum(0, 0);
  EXPECT_TRUE(std::find(rq.begin(), rq.end(), 1u) == rq.end());
  auto wq = q.cohort_write_quorum(0, 0);
  EXPECT_TRUE(intersects(rq, wq));
}

TEST(TreeQuorum, RootDeathBlocksWrites) {
  TreeQuorumProvider q(tree_cfg(13));
  q.on_failure(0);
  EXPECT_THROW(q.cohort_write_quorum(0, 0), QuorumUnavailable);
  // Reads survive root death (substitution by child majorities).
  EXPECT_NO_THROW(q.cohort_read_quorum(0, 0));
}

TEST(MajorityQuorum, SizesAndIntersection) {
  MajorityQuorumProvider q(10, /*same_for_all=*/false);
  for (net::NodeId a = 0; a < 10; ++a) {
    EXPECT_EQ(q.cohort_read_quorum(a, 0).size(), 6u);
    for (net::NodeId b = 0; b < 10; ++b) {
      EXPECT_TRUE(intersects(q.cohort_read_quorum(a, 0),
                             q.cohort_write_quorum(b, 0)));
    }
  }
}

TEST(MajorityQuorum, FailuresShrinkPool) {
  MajorityQuorumProvider q(5);
  q.on_failure(0);
  q.on_failure(1);
  auto rq = q.cohort_read_quorum(2, 0);  // needs 3 of the remaining 3
  EXPECT_EQ(rq.size(), 3u);
  q.on_failure(2);
  EXPECT_THROW(q.cohort_read_quorum(3, 0), QuorumUnavailable);
}

TEST(FlatFailureAware, ReadQuorumGrowsWithFailures) {
  FlatFailureAwareProvider q(28);
  EXPECT_EQ(q.cohort_read_quorum(0, 0).size(), 1u);
  q.on_failure(3);
  EXPECT_EQ(q.cohort_read_quorum(0, 0).size(), 2u);
  q.on_failure(4);
  q.on_failure(5);
  EXPECT_EQ(q.cohort_read_quorum(0, 0).size(), 4u);
  EXPECT_EQ(q.cohort_write_quorum(0, 0).size(), 25u);
}

TEST(FlatFailureAware, QuorumsAvoidDeadAndIntersect) {
  FlatFailureAwareProvider q(28);
  for (net::NodeId dead = 0; dead < 8; ++dead) {
    q.on_failure(dead);
    for (net::NodeId n = 0; n < 28; ++n) {
      auto rq = q.cohort_read_quorum(n, 0);
      auto wq = q.cohort_write_quorum(n, 0);
      EXPECT_TRUE(intersects(rq, wq));
      for (net::NodeId d = 0; d <= dead; ++d) {
        EXPECT_TRUE(std::find(rq.begin(), rq.end(), d) == rq.end());
      }
    }
  }
}

TEST(FlatFailureAware, SingleSharedHotspotBeforeFailures) {
  // Paper §VI-D: initially one single-node read quorum is assigned to ALL
  // nodes (a deliberate hotspot).
  FlatFailureAwareProvider q(28);
  std::set<std::vector<net::NodeId>> distinct;
  for (net::NodeId n = 0; n < 28; ++n) {
    distinct.insert(q.cohort_read_quorum(n, 0));
  }
  EXPECT_EQ(distinct.size(), 1u);
}

TEST(FlatFailureAware, SpreadsReadQuorumsAfterFailures) {
  // Once the quorum grows, assignments rotate per client node so "the
  // workload is balanced across the read quorum nodes".
  FlatFailureAwareProvider q(28);
  q.on_failure(27);
  std::set<std::vector<net::NodeId>> distinct;
  for (net::NodeId n = 0; n < 27; ++n) {
    distinct.insert(q.cohort_read_quorum(n, 0));
  }
  EXPECT_GT(distinct.size(), 10u);
}

// Churn property: under a random sequence of fail-stop / rejoin events,
// every provider must keep (Q1) read-write and (Q2) write-write
// intersection, never hand out a dead member, and advance its generation
// on every membership change (TxnRuntime's quorum cache keys on it).
TEST(QuorumChurnProperty, RandomKillRejoinPreservesInvariants) {
  constexpr std::uint32_t kNodes = 13;
  struct Provider {
    const char* name;
    std::unique_ptr<QuorumProvider> q;
  };
  Provider providers[] = {
      {"tree", std::make_unique<TreeQuorumProvider>(tree_cfg(kNodes))},
      {"majority", std::make_unique<MajorityQuorumProvider>(kNodes)},
      {"flat", std::make_unique<FlatFailureAwareProvider>(kNodes)},
  };
  for (Provider& p : providers) {
    QuorumProvider& q = *p.q;
    qrdtm::Rng rng(0x9e3779b9u ^ static_cast<std::uint64_t>(p.name[0]));
    std::vector<net::NodeId> dead;
    std::uint64_t last_gen = q.generation();
    for (int step = 0; step < 200; ++step) {
      // Kill or rejoin; keep the root alive (its death blocks tree writes,
      // covered separately below) and at most 3 concurrently dead.
      const bool kill = dead.size() < 3 && (dead.empty() || rng.below(2) == 0);
      if (kill) {
        net::NodeId v;
        do {
          v = static_cast<net::NodeId>(1 + rng.below(kNodes - 1));
        } while (std::find(dead.begin(), dead.end(), v) != dead.end());
        q.on_failure(v);
        dead.push_back(v);
      } else {
        const std::size_t i = rng.below(dead.size());
        const net::NodeId v = dead[i];
        dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(i));
        q.on_recovery(v);
      }
      ASSERT_GT(q.generation(), last_gen)
          << p.name << " step " << step
          << ": membership change must bump the generation";
      last_gen = q.generation();
      for (net::NodeId a : {net::NodeId{0}, net::NodeId{4}, net::NodeId{9}}) {
        std::vector<net::NodeId> rq;
        std::vector<net::NodeId> wq;
        try {
          rq = q.cohort_read_quorum(a, 0);
          wq = q.cohort_write_quorum(a, 0);
        } catch (const QuorumUnavailable&) {
          // Legitimate under churn (e.g. two of the tree root's children
          // dead): the provider must refuse rather than hand out a
          // non-intersecting quorum, so there is nothing to check.
          continue;
        }
        for (net::NodeId d : dead) {
          ASSERT_EQ(std::find(rq.begin(), rq.end(), d), rq.end())
              << p.name << " step " << step << ": dead node " << d
              << " in read quorum";
          ASSERT_EQ(std::find(wq.begin(), wq.end(), d), wq.end())
              << p.name << " step " << step << ": dead node " << d
              << " in write quorum";
        }
        for (net::NodeId b : {net::NodeId{2}, net::NodeId{11}}) {
          std::vector<net::NodeId> wqb;
          try {
            wqb = q.cohort_write_quorum(b, 0);
          } catch (const QuorumUnavailable&) {
            continue;
          }
          ASSERT_TRUE(intersects(rq, wqb))
              << p.name << " step " << step << ": Q1 violated for salts " << a
              << "," << b;
          ASSERT_TRUE(intersects(wq, wqb))
              << p.name << " step " << step << ": Q2 violated for salts " << a
              << "," << b;
        }
      }
    }
    // Rejoin everyone: quorums must return to full-membership shapes.
    for (net::NodeId v : dead) q.on_recovery(v);
    dead.clear();
    const std::vector<net::NodeId> wq = q.cohort_write_quorum(0, 0);
    EXPECT_TRUE(intersects(q.cohort_read_quorum(5, 0), wq)) << p.name;
    // Recovering an alive node is a no-op and must NOT bump the
    // generation (it would needlessly invalidate every cached quorum).
    const std::uint64_t gen = q.generation();
    q.on_recovery(3);
    EXPECT_EQ(q.generation(), gen) << p.name;
  }
}

// Tree-specific churn corner: the root's death makes write quorums
// unavailable; its rejoin must restore writability with the root back in
// every write quorum.
TEST(QuorumChurnProperty, TreeRootRejoinRestoresWrites) {
  TreeQuorumProvider q(tree_cfg(13));
  q.on_failure(0);
  EXPECT_THROW(q.cohort_write_quorum(2, 0), QuorumUnavailable);
  q.on_recovery(0);
  const std::vector<net::NodeId> wq = q.cohort_write_quorum(2, 0);
  EXPECT_NE(std::find(wq.begin(), wq.end(), net::NodeId{0}), wq.end());
  EXPECT_EQ(wq.size(), 7u);
}

// Regression pin (Fig. 10): the deliberate single-node hotspot returns the
// moment the LAST outstanding failure heals -- on_recovery back to zero
// failures must collapse every client's read quorum to the shared node-0
// assignment, while any failures >= 1 keep assignments rotating per client.
TEST(FlatFailureAware, HotspotCollapsesWhenAllFailuresHeal) {
  FlatFailureAwareProvider q(28);
  q.on_failure(5);
  q.on_failure(9);
  q.on_recovery(5);
  // One failure still outstanding: quorums stay spread across clients.
  std::set<std::vector<net::NodeId>> distinct;
  for (net::NodeId n = 0; n < 28; ++n) {
    if (n == 9) continue;
    distinct.insert(q.cohort_read_quorum(n, 0));
  }
  EXPECT_GT(distinct.size(), 1u)
      << "rotation must persist while any failure is outstanding";
  q.on_recovery(9);
  distinct.clear();
  for (net::NodeId n = 0; n < 28; ++n) {
    distinct.insert(q.cohort_read_quorum(n, 0));
  }
  EXPECT_EQ(distinct.size(), 1u)
      << "all failures healed: back to the single shared hotspot";
  EXPECT_EQ(q.cohort_read_quorum(17, 0), std::vector<net::NodeId>{0});
}

// CohortMap is pure arithmetic: deterministic and roughly balanced, so the
// shard an object lands on is the same on every node with no coordination.
TEST(CohortMap, DeterministicAndRoughlyBalanced) {
  const CohortMap m(16);
  std::vector<int> counts(16, 0);
  for (store::ObjectId id = 1; id <= 4096; ++id) {
    ASSERT_LT(m.shard_of(id), 16u);
    ASSERT_EQ(m.shard_of(id), m.shard_of(id));
    ++counts[m.shard_of(id)];
  }
  for (std::uint32_t s = 0; s < 16; ++s) {
    // Expected 256 per shard; the finalizer should stay within 2x skew.
    EXPECT_GT(counts[s], 128) << "shard " << s << " starved";
    EXPECT_LT(counts[s], 512) << "shard " << s << " overloaded";
  }
}

// Every member a cohort quorum hands out must actually replicate that
// cohort (node_cohorts/replicates/cohort_of agree with the quorums).
TEST(ShardedQuorum, QuorumMembersReplicateTheirCohort) {
  ShardedQuorumProvider::Config cfg;
  cfg.num_nodes = 52;
  cfg.num_shards = 8;
  cfg.cohort_size = 13;
  ShardedQuorumProvider q(cfg);
  ASSERT_EQ(q.num_cohorts(), 8u);
  const CohortMap map(8);
  for (store::ObjectId id = 1; id <= 64; ++id) {
    EXPECT_EQ(q.cohort_of(id), map.shard_of(id));
  }
  for (std::uint32_t cohort = 0; cohort < q.num_cohorts(); ++cohort) {
    for (const std::vector<net::NodeId>& quorum :
         {q.cohort_read_quorum(3, cohort), q.cohort_write_quorum(3, cohort)}) {
      EXPECT_FALSE(quorum.empty());
      for (net::NodeId member : quorum) {
        const std::vector<std::uint32_t> cs = q.node_cohorts(member);
        EXPECT_NE(std::find(cs.begin(), cs.end(), cohort), cs.end())
            << "cohort " << cohort << " quorum handed out node " << member
            << ", which does not replicate it";
      }
    }
  }
}

// Per-cohort Q1/Q2 churn property: under 200 random kill/rejoin steps every
// cohort's read quorums must keep intersecting its write quorums (Q1), its
// write quorums must pairwise intersect (Q2), no quorum may contain a dead
// member, and every membership change must bump the provider generation.
TEST(ShardedQuorum, CohortIntersectionInvariantsUnderChurn) {
  ShardedQuorumProvider::Config cfg;
  cfg.num_nodes = 52;
  cfg.num_shards = 8;
  cfg.cohort_size = 13;
  cfg.same_for_all = false;
  ShardedQuorumProvider q(cfg);
  qrdtm::Rng rng(0xfeedfaceu);
  std::vector<net::NodeId> dead;
  std::uint64_t last_gen = q.generation();
  for (int step = 0; step < 200; ++step) {
    const bool kill = dead.size() < 4 && (dead.empty() || rng.below(2) == 0);
    if (kill) {
      net::NodeId v;
      do {
        v = static_cast<net::NodeId>(rng.below(cfg.num_nodes));
      } while (std::find(dead.begin(), dead.end(), v) != dead.end());
      q.on_failure(v);
      dead.push_back(v);
    } else {
      const std::size_t i = rng.below(dead.size());
      const net::NodeId v = dead[i];
      dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(i));
      q.on_recovery(v);
    }
    ASSERT_GT(q.generation(), last_gen) << "step " << step;
    last_gen = q.generation();
    for (std::uint32_t cohort = 0; cohort < q.num_cohorts(); ++cohort) {
      for (net::NodeId a : {net::NodeId{0}, net::NodeId{17}, net::NodeId{40}}) {
        std::vector<net::NodeId> rq;
        std::vector<net::NodeId> wq;
        try {
          rq = q.cohort_read_quorum(a, cohort);
          wq = q.cohort_write_quorum(a, cohort);
        } catch (const QuorumUnavailable&) {
          // Legitimate: e.g. a cohort's inner tree root is dead.  Refusing
          // is safe; handing out a non-intersecting quorum is not.
          continue;
        }
        for (net::NodeId d : dead) {
          ASSERT_EQ(std::find(rq.begin(), rq.end(), d), rq.end())
              << "step " << step << " cohort " << cohort << ": dead " << d
              << " in read quorum";
          ASSERT_EQ(std::find(wq.begin(), wq.end(), d), wq.end())
              << "step " << step << " cohort " << cohort << ": dead " << d
              << " in write quorum";
        }
        for (net::NodeId b : {net::NodeId{9}, net::NodeId{31}}) {
          std::vector<net::NodeId> wqb;
          try {
            wqb = q.cohort_write_quorum(b, cohort);
          } catch (const QuorumUnavailable&) {
            continue;
          }
          ASSERT_TRUE(intersects(rq, wqb))
              << "step " << step << " cohort " << cohort
              << ": Q1 violated for salts " << a << "," << b;
          ASSERT_TRUE(intersects(wq, wqb))
              << "step " << step << " cohort " << cohort
              << ": Q2 violated for salts " << a << "," << b;
        }
      }
    }
  }
  // Rejoin everyone: every cohort must be writable again.
  for (net::NodeId v : dead) q.on_recovery(v);
  for (std::uint32_t cohort = 0; cohort < q.num_cohorts(); ++cohort) {
    EXPECT_TRUE(intersects(q.cohort_read_quorum(1, cohort),
                           q.cohort_write_quorum(2, cohort)))
        << "cohort " << cohort;
  }
}

// The same churn with majority cohorts (the chaos fuzzer's configuration):
// no inner root exists, so quorums must stay AVAILABLE as well as correct
// whenever fewer than half a cohort is dead.
TEST(ShardedQuorum, MajorityCohortsStayAvailableUnderMinorityFailures) {
  ShardedQuorumProvider::Config cfg;
  cfg.num_nodes = 13;
  cfg.num_shards = 4;
  cfg.cohort_size = 7;
  cfg.inner = ShardedQuorumProvider::Inner::kMajority;
  ShardedQuorumProvider q(cfg);
  q.on_failure(2);
  q.on_failure(8);
  for (std::uint32_t cohort = 0; cohort < q.num_cohorts(); ++cohort) {
    std::vector<net::NodeId> rq;
    std::vector<net::NodeId> wq;
    ASSERT_NO_THROW(rq = q.cohort_read_quorum(0, cohort)) << cohort;
    ASSERT_NO_THROW(wq = q.cohort_write_quorum(5, cohort)) << cohort;
    EXPECT_TRUE(intersects(rq, wq)) << cohort;
    for (net::NodeId d : {net::NodeId{2}, net::NodeId{8}}) {
      EXPECT_EQ(std::find(wq.begin(), wq.end(), d), wq.end()) << cohort;
    }
  }
}

// Quorums depend on the live set alone, so only a change to it may move
// generation(): re-reporting a dead node or recovering a live one leaves it
// where it was (a bump would only make every client recompute the same
// quorum), and the quorums stay as they were.
TEST(QuorumGeneration, OnlyALiveSetChangeBumpsIt) {
  ShardedQuorumProvider::Config sharded;
  sharded.num_nodes = 52;
  sharded.num_shards = 8;
  sharded.cohort_size = 13;
  struct Provider {
    const char* name;
    std::unique_ptr<QuorumProvider> q;
  };
  Provider providers[] = {
      {"tree", std::make_unique<TreeQuorumProvider>(tree_cfg(13))},
      {"majority", std::make_unique<MajorityQuorumProvider>(13)},
      {"flat", std::make_unique<FlatFailureAwareProvider>(13)},
      {"sharded", std::make_unique<ShardedQuorumProvider>(sharded)},
  };
  for (Provider& p : providers) {
    QuorumProvider& q = *p.q;
    const std::uint64_t gen = q.generation();
    q.on_recovery(4);
    EXPECT_EQ(q.generation(), gen) << p.name << ": recovered a live node";
    q.on_failure(4);
    ASSERT_EQ(q.generation(), gen + 1) << p.name;
    const std::vector<net::NodeId> rq = q.cohort_read_quorum(2, 0);
    const std::vector<net::NodeId> wq = q.cohort_write_quorum(2, 0);
    q.on_failure(4);
    EXPECT_EQ(q.generation(), gen + 1) << p.name << ": re-reported a dead node";
    EXPECT_EQ(q.cohort_read_quorum(2, 0), rq) << p.name;
    EXPECT_EQ(q.cohort_write_quorum(2, 0), wq) << p.name;
    q.on_recovery(4);
    EXPECT_EQ(q.generation(), gen + 2) << p.name;
    q.on_recovery(4);
    EXPECT_EQ(q.generation(), gen + 2) << p.name << ": recovered a live node";
  }
}

TEST(Intersects, Basics) {
  EXPECT_TRUE(intersects({1, 2, 3}, {3, 4}));
  EXPECT_FALSE(intersects({1, 2}, {3, 4}));
  EXPECT_FALSE(intersects({}, {1}));
}

}  // namespace
}  // namespace qrdtm::quorum
