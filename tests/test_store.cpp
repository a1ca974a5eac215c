// Unit tests for the per-node replica store (store/).
#include "store/replica_store.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/check.h"
#include "common/flat_table.h"
#include "store/commit_log.h"

namespace qrdtm::store {
namespace {

// A late-growth table fills to three quarters between reserves: every
// entry stays findable through inserts, backward-shift erases and the
// reserve that regrows it, and keys that share their low bits (txn ids of
// one node) included.
TEST(FlatTable, LateGrowthKeepsEveryEntryThroughEraseAndReserve) {
  FlatTable<std::uint64_t> late(/*late_growth=*/true);
  FlatTable<std::uint64_t> eager;
  const auto key = [](std::uint64_t i) { return (i << 40) | 7; };
  for (std::uint64_t i = 0; i < 3000; ++i) {
    late[key(i)] = i;
    eager[key(i)] = i;
    if (i % 3 == 0 && i > 0) {
      EXPECT_TRUE(late.erase(key(i - 1)));
      EXPECT_TRUE(eager.erase(key(i - 1)));
    }
    if (i % 500 == 0) late.reserve(late.size());
  }
  ASSERT_EQ(late.size(), eager.size());
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const bool erased = i % 3 == 2 && i + 1 < 3000;
    const std::uint64_t* v = late.find(key(i));
    EXPECT_EQ(v == nullptr, erased) << i;
    if (v != nullptr) {
      EXPECT_EQ(*v, i);
    }
    EXPECT_EQ(late.contains(key(i)), eager.contains(key(i))) << i;
  }
  late.reserve(late.size());
  std::uint64_t visited = 0;
  late.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(k, key(v));
    ++visited;
  });
  EXPECT_EQ(visited, late.size());
}

static_assert(FlatTable<std::uint32_t>::kSlotBytes == 12,
              "a 4-byte value makes a 12-byte slot");
static_assert(FlatTable<ConfirmOutcome>::kSlotBytes == 12);
static_assert(FlatTable<bool>::kSlotBytes == 12);

/// Home slot of `k` in a table of 2^bits slots (FlatTable's Fibonacci
/// hash).
std::size_t home_of(std::uint64_t k, unsigned bits) {
  return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

// Txn ids are node-prefixed, (node + 1) << 40 | seq, so every key has its
// high half set: a table of them must agree with a reference map through
// inserts, updates and erases.
TEST(FlatTable, NodePrefixedKeysMatchAReferenceMap) {
  FlatTable<std::uint32_t> table(/*late_growth=*/true);
  std::map<std::uint64_t, std::uint32_t> reference;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  const auto draw = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t node = draw() % 40;
    const std::uint64_t key = ((node + 1) << 40) | (draw() % 600);
    if (draw() % 3 == 0) {
      EXPECT_EQ(table.erase(key), reference.erase(key) == 1) << key;
    } else {
      const auto v = static_cast<std::uint32_t>(draw());
      table[key] = v;
      reference[key] = v;
    }
    if (op % 4096 == 0) table.reserve(table.size());
  }
  ASSERT_EQ(table.size(), reference.size());
  for (const auto& [key, v] : reference) {
    ASSERT_NE(table.find(key), nullptr) << key;
    EXPECT_EQ(*table.find(key), v) << key;
  }
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, std::uint32_t v) {
    EXPECT_EQ(reference.at(key), v);
    ++visited;
  });
  EXPECT_EQ(visited, reference.size());
  EXPECT_EQ(table.capacity_bytes() % 12, 0u);
}

// A probe chain that starts at the last slot wraps to the first ones; erasing
// from it shifts the rest back across the wrap, and every key stays findable.
TEST(FlatTable, EraseShiftsBackAcrossTheWrap) {
  // Keys whose home is the last of 16 slots, and one whose home is slot 0
  // (the chain 15, 0, 1 pushes it to slot 2).
  std::vector<std::uint64_t> at_end;
  std::uint64_t at_start = 0;
  for (std::uint64_t seq = 1; at_end.size() < 3 || at_start == 0; ++seq) {
    const std::uint64_t key = (std::uint64_t{3} << 40) | seq;
    if (home_of(key, 4) == 15 && at_end.size() < 3) at_end.push_back(key);
    if (home_of(key, 4) == 0 && at_start == 0) at_start = key;
  }
  for (std::size_t first = 0; first < 4; ++first) {
    FlatTable<std::uint32_t> table;
    std::vector<std::uint64_t> keys = at_end;
    keys.push_back(at_start);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table[keys[i]] = static_cast<std::uint32_t>(i + 1);
    }
    ASSERT_EQ(table.capacity_bytes(), 16 * 12u) << "one 16-slot array";
    // Erase one, then the others one by one: the rest stay findable.
    std::vector<std::size_t> order{first};
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i != first) order.push_back(i);
    }
    for (std::size_t n = 0; n < order.size(); ++n) {
      ASSERT_TRUE(table.erase(keys[order[n]]));
      for (std::size_t m = n + 1; m < order.size(); ++m) {
        const std::uint32_t* v = table.find(keys[order[m]]);
        ASSERT_NE(v, nullptr) << "erased " << order[n] << ", lost " << order[m];
        EXPECT_EQ(*v, order[m] + 1);
      }
      EXPECT_FALSE(table.contains(keys[order[n]]));
    }
    EXPECT_TRUE(table.empty());
  }
}

TEST(ConfirmOutcome, PacksAThirtyOneBitEpochAndTheVerdict) {
  static_assert(sizeof(ConfirmOutcome) == 4);
  const ConfirmOutcome top(ConfirmOutcome::kMaxEpoch, true);
  EXPECT_EQ(top.epoch, (std::uint32_t{1} << 31) - 1);
  EXPECT_TRUE(top.commit);
  const ConfirmOutcome abort(ConfirmOutcome::kMaxEpoch, false);
  EXPECT_EQ(abort.epoch, ConfirmOutcome::kMaxEpoch);
  EXPECT_FALSE(abort.commit);
  EXPECT_THROW(ConfirmOutcome(std::uint32_t{1} << 31, true), InvariantError);

  // Through a log's replay, at the top epoch: the applied-set keeps both.
  CommitLog log;
  log.append_prepare(7, {LoggedWrite{1, 0, 1, Bytes{5}}}, ConfirmOutcome::kMaxEpoch);
  log.append_confirm(7, true, ConfirmOutcome::kMaxEpoch);
  log.append_prepare(8, {LoggedWrite{2, 0, 1, Bytes{6}}}, ConfirmOutcome::kMaxEpoch);
  log.append_confirm(8, false, ConfirmOutcome::kMaxEpoch);
  ReplicaStore store;
  FlatTable<ConfirmOutcome> outcomes;
  log.replay_into(store, &outcomes);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes.find(7)->epoch, ConfirmOutcome::kMaxEpoch);
  EXPECT_TRUE(outcomes.find(7)->commit);
  EXPECT_EQ(outcomes.find(8)->epoch, ConfirmOutcome::kMaxEpoch);
  EXPECT_FALSE(outcomes.find(8)->commit);
  EXPECT_EQ(store.version_of(1), 1u);
  EXPECT_EQ(store.version_of(2), 0u);
}

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

// The store's index against a reference map: ids with their high (node)
// bits set, growth from 16 index slots through more than ten doublings,
// entry pointers that stay put across it (handle_read lends them), entries()
// in first-insert order, and a clear_all() followed by reuse.
TEST(ReplicaStore, IndexMatchesAReferenceMapThroughGrowth) {
  ReplicaStore s;
  std::map<ObjectId, std::pair<Version, Bytes>> reference;
  std::map<ObjectId, const ReplicaEntry*> lent;
  std::vector<ObjectId> order;  // ids in first-insert order
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  const auto draw = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto value_of = [](ObjectId id, Version v) {
    return Bytes{static_cast<std::uint8_t>(id), static_cast<std::uint8_t>(v)};
  };
  for (int op = 0; op < 60000; ++op) {
    const std::uint64_t node = draw() % 40;
    const ObjectId id = ((node + 1) << 40) | (draw() % 1000);
    const Version version = 1 + draw() % 50;
    s.apply(id, version, value_of(id, version));
    auto [at, inserted] =
        reference.try_emplace(id, version, value_of(id, version));
    if (inserted) {
      order.push_back(id);
      lent[id] = s.find(id);
    } else if (version > at->second.first) {
      at->second = {version, value_of(id, version)};
    }
  }
  // 16 slots at most half full reach 2^14 past 8 192 objects: ten doublings
  // (the 31 097 ids drawn here take it to 2^16).
  ASSERT_GT(s.num_objects(), std::size_t{8192});
  ASSERT_EQ(s.num_objects(), reference.size());
  for (const auto& [id, entry] : reference) {
    const ReplicaEntry* e = s.find(id);
    ASSERT_NE(e, nullptr) << id;
    EXPECT_EQ(e, lent.at(id)) << id << ": the entry moved";
    EXPECT_EQ(e->version, entry.first) << id;
    EXPECT_EQ(e->data, entry.second) << id;
  }
  EXPECT_EQ(s.find((std::uint64_t{41} << 40) | 5), nullptr);
  ASSERT_EQ(s.entries().size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(s.entries()[i].id, order[i]) << i;
    EXPECT_EQ(&s.entries()[i].entry, lent.at(order[i])) << i;
  }

  s.clear_all();
  EXPECT_EQ(s.num_objects(), 0u);
  EXPECT_TRUE(s.entries().empty());
  for (const auto& [id, entry] : reference) {
    ASSERT_EQ(s.find(id), nullptr) << id;
    ASSERT_EQ(s.version_of(id), 0u) << id;
  }
  // Reuse: the ids come back in a new order, with new values.
  for (std::size_t i = order.size(); i-- > order.size() - 100;) {
    s.seed(order[i], value_of(order[i], 99), 99);
  }
  ASSERT_EQ(s.num_objects(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    const ObjectId id = order[order.size() - 1 - i];
    EXPECT_EQ(s.entries()[i].id, id);
    ASSERT_NE(s.find(id), nullptr);
    EXPECT_EQ(s.find(id)->version, 99u);
    EXPECT_EQ(s.find(id)->data, value_of(id, 99));
  }
  EXPECT_EQ(s.find(order.front()), nullptr);
}

TEST(ReplicaStore, NullObjectIdRejected) {
  ReplicaStore s;
  EXPECT_THROW(s.seed(kNullObject, Bytes{}), qrdtm::InvariantError);
}

}  // namespace
}  // namespace qrdtm::store
