// Unit tests for the per-node replica store (store/).
#include "store/replica_store.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace qrdtm::store {
namespace {

TEST(ReplicaStore, MissingObjectBehavesAsVersionZero) {
  ReplicaStore s;
  EXPECT_EQ(s.find(42), nullptr);
  EXPECT_EQ(s.version_of(42), 0u);
  EXPECT_FALSE(s.protected_against(42, 1));
}

TEST(ReplicaStore, SeedInstallsCopy) {
  ReplicaStore s;
  s.seed(1, Bytes{9, 9}, 5);
  const ReplicaEntry* e = s.find(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 5u);
  EXPECT_EQ(e->data, (Bytes{9, 9}));
}

TEST(ReplicaStore, ApplyOnlyFastForwards) {
  ReplicaStore s;
  s.apply(1, 3, Bytes{3});
  s.apply(1, 2, Bytes{2});  // stale confirm: ignored
  EXPECT_EQ(s.version_of(1), 3u);
  EXPECT_EQ(s.find(1)->data, Bytes{3});
  s.apply(1, 4, Bytes{4});
  EXPECT_EQ(s.version_of(1), 4u);
}

TEST(ReplicaStore, ApplyCreatesUnknownObject) {
  ReplicaStore s;
  s.apply(7, 1, Bytes{1});
  EXPECT_EQ(s.version_of(7), 1u);
}

TEST(ReplicaStore, ProtectionLifecycle) {
  ReplicaStore s;
  s.seed(1, Bytes{}, 1);
  s.protect(1, 100, /*now=*/1);
  EXPECT_TRUE(s.protected_against(1, 200));
  EXPECT_FALSE(s.protected_against(1, 100));  // own protection
  // Re-protect by the same transaction is idempotent.
  s.protect(1, 100, /*now=*/1);
  // Another transaction may not steal the protection.
  EXPECT_THROW(s.protect(1, 200, /*now=*/1), qrdtm::InvariantError);
  s.unprotect(1, 100);
  EXPECT_FALSE(s.protected_against(1, 200));
}

TEST(ReplicaStore, UnprotectByNonHolderIsNoOp) {
  ReplicaStore s;
  s.seed(1, Bytes{}, 1);
  s.protect(1, 100, /*now=*/1);
  s.unprotect(1, 999);  // a stale abort-confirm from another transaction
  EXPECT_TRUE(s.protected_against(1, 200));
}

TEST(ReplicaStore, NullObjectIdRejected) {
  ReplicaStore s;
  EXPECT_THROW(s.seed(kNullObject, Bytes{}), qrdtm::InvariantError);
}

}  // namespace
}  // namespace qrdtm::store
