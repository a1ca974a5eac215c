// White-box tests of the QR replica server: Rqv validation (Alg. 1 / 4),
// read handling (Alg. 2 remote side), 2PC votes and confirms -- driven by
// crafted wire messages through a minimal two-endpoint network.
#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/qr_server.h"
#include "net/latency.h"
#include "sim/task.h"
#include "wire_encode.h"

namespace qrdtm::core {
namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::RpcEndpoint> client_ep;
  std::unique_ptr<net::RpcEndpoint> server_ep;
  Metrics metrics;
  std::unique_ptr<QrServer> server;

  Rig() {
    net = std::make_unique<net::Network>(
        sim, std::make_unique<net::UniformLatency>(sim::msec(1)), 1,
        sim::usec(10));
    client_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server = std::make_unique<QrServer>(*server_ep, metrics);
  }

  store::ReplicaStore& store() { return server->store(); }

  /// Synchronously round-trip a request through the simulated network.
  Bytes call(net::MsgKind kind, const Bytes& req) {
    Bytes out;
    bool ok = false;
    sim.spawn([](Rig* rig, net::MsgKind k, Bytes r, Bytes* o,
                 bool* okp) -> sim::Task<void> {
      auto res = co_await rig->client_ep->call(rig->server_ep->id(), k,
                                               std::move(r), sim::sec(1));
      *okp = res.ok;
      *o = std::move(res.payload);
    }(this, kind, req, &out, &ok));
    sim.run();
    QRDTM_CHECK(ok);
    return out;
  }

  /// The reply to the last read() or vote(), which its view borrows.
  Bytes reply;

  ReadResponseView read(const ReadRequest& req) {
    reply = call(msg::kRead, encode(req));
    return ReadResponse::decode_view(reply);
  }
  VoteResponseView vote(const CommitRequest& req) {
    reply = call(msg::kCommitRequest, encode(req));
    return VoteResponse::decode_view(reply);
  }
  void confirm(const CommitConfirm& c) {
    client_ep->notify(server_ep->id(), msg::kCommitConfirm, encode(c));
    sim.run();
  }
};

ReadRequest basic_read(ObjectId obj, NestingMode mode, TxnId root = 100) {
  ReadRequest req;
  req.root = root;
  req.mode = mode;
  req.object = obj;
  return req;
}

TEST(QrServer, ReadServesCopy) {
  Rig rig;
  rig.store().seed(1, Bytes{0xAA}, 3);
  const ReadResponseView resp = rig.read(basic_read(1, NestingMode::kFlat));
  EXPECT_EQ(resp.status, ReadStatus::kOk);
  EXPECT_EQ(resp.version, 3u);
  EXPECT_EQ(Bytes(resp.data.begin(), resp.data.end()), Bytes{0xAA});
}

TEST(QrServer, UnknownObjectReportsMissing) {
  Rig rig;
  EXPECT_EQ(rig.read(basic_read(42, NestingMode::kFlat)).status,
            ReadStatus::kMissing);
}

TEST(QrServer, FlatReadsSkipValidation) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{}, 1);
  ReadRequest req = basic_read(2, NestingMode::kFlat);
  // A stale data-set entry would fail Rqv -- but flat mode carries none and
  // must be served regardless.
  req.dataset.push_back(DataSetEntry{1, 2 /* stale */, 100, 0, 0});
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
}

TEST(QrServer, RqvDetectsStaleEntryAndReportsShallowestOwner) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{}, 7);
  rig.store().seed(3, Bytes{}, 1);
  ReadRequest req = basic_read(3, NestingMode::kClosed);
  req.dataset.push_back(DataSetEntry{1, 4, /*owner=*/201, /*depth=*/1, 0});
  req.dataset.push_back(DataSetEntry{2, 6, /*owner=*/200, /*depth=*/0, 0});
  const ReadResponseView resp = rig.read(req);
  ASSERT_EQ(resp.status, ReadStatus::kAbort);
  EXPECT_EQ(resp.abort_scope, 200u) << "depth-0 owner is shallowest";
  EXPECT_EQ(resp.abort_depth, 0u);
}

TEST(QrServer, RqvPassesWhenVersionsCurrentOrNewer) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  ReadRequest req = basic_read(1, NestingMode::kClosed);
  // Equal version: valid.  A version *newer* than the replica's (the
  // replica is stale) is also valid: e.version < local is the only stale
  // case.
  req.dataset.push_back(DataSetEntry{1, 5, 100, 0, 0});
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
  req.dataset[0].version = 9;
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
}

TEST(QrServer, RqvChkReportsMinimumInvalidEpoch) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{}, 5);
  rig.store().seed(3, Bytes{}, 1);
  ReadRequest req = basic_read(3, NestingMode::kCheckpoint);
  req.dataset.push_back(DataSetEntry{1, 4, 100, 0, /*chk=*/7});
  req.dataset.push_back(DataSetEntry{2, 4, 100, 0, /*chk=*/3});
  const ReadResponseView resp = rig.read(req);
  ASSERT_EQ(resp.status, ReadStatus::kAbort);
  EXPECT_EQ(resp.abort_chk, 3u);
}

TEST(QrServer, ProtectedObjectAbortsRqvReadersButServesFlat) {
  Rig rig;
  rig.store().seed(1, Bytes{0x01}, 5);
  rig.store().protect(1, /*txn=*/999, /*now=*/1);

  EXPECT_EQ(rig.read(basic_read(1, NestingMode::kFlat)).status,
            ReadStatus::kOk)
      << "flat QR has no read-time detection";
  EXPECT_EQ(rig.read(basic_read(1, NestingMode::kClosed)).status,
            ReadStatus::kAbort);
  EXPECT_EQ(rig.read(basic_read(1, NestingMode::kCheckpoint)).status,
            ReadStatus::kAbort);
  // The protector itself is not blocked by its own protection.
  EXPECT_EQ(rig.read(basic_read(1, NestingMode::kClosed, /*root=*/999)).status,
            ReadStatus::kOk);
}

// --- Rqv validation edge cases ---------------------------------------------

TEST(QrServer, RqvPassesEntryProtectedByRequestersOwnRoot) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{0x02}, 1);
  rig.store().protect(1, /*txn=*/100, /*now=*/1);
  ReadRequest req = basic_read(2, NestingMode::kClosed, /*root=*/100);
  req.dataset.push_back(DataSetEntry{1, 5, 100, 0, 0});
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
  req.root = 101;  // any other root is blocked by the same protection
  EXPECT_EQ(rig.read(req).status, ReadStatus::kAbort);
}

TEST(QrServer, RqvCountsAnUnseenObjectAsVersionZero) {
  Rig rig;
  rig.store().seed(2, Bytes{0x02}, 1);
  ReadRequest req = basic_read(2, NestingMode::kCheckpoint);
  req.dataset.push_back(DataSetEntry{77, 0, 100, 0, 0});  // never seen here
  req.dataset.push_back(DataSetEntry{78, 4, 100, 0, 0});  // newer than 0
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
  EXPECT_EQ(rig.store().num_objects(), 1u)
      << "validation must not create entries for unseen objects";
}

// A stale entry fails on its version alone: the protection check (which
// sheds an expired lease and counts it) must not run for it.
TEST(QrServer, RqvStaleEntryShortCircuitsTheLeaseCheck) {
  Rig rig;
  rig.server->set_protection_lease(sim::usec(1));
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{0x02}, 1);
  rig.store().protect(1, /*txn=*/999, /*now=*/0);  // lease long expired
  ReadRequest req = basic_read(2, NestingMode::kClosed);
  req.dataset.push_back(DataSetEntry{1, 4 /* stale */, 100, 0, 0});
  EXPECT_EQ(rig.read(req).status, ReadStatus::kAbort);
  EXPECT_TRUE(rig.store().protected_against(1, 100))
      << "a stale entry must not shed the protection";
  EXPECT_EQ(rig.metrics.lease_breaks, 0u);

  // Control: a current entry does reach the lease check, which sheds.
  req.dataset[0].version = 5;
  EXPECT_EQ(rig.read(req).status, ReadStatus::kOk);
  EXPECT_FALSE(rig.store().protected_against(1, 100));
  EXPECT_EQ(rig.metrics.lease_breaks, 1u);
}

// --- allocation regression -------------------------------------------------
// A replica validates every read's data-set in place in the request buffer
// and encodes the reply into a pooled buffer, an OK reply straight from the
// store entry: in steady state, serving an Rqv read allocates nothing,
// whether validation fails or succeeds.

/// Allocations per served read, after warm-up: `req` is delivered as a
/// one-way message, so the count covers the server side only (decode,
/// validate, encode, release).
double allocs_per_served_read(Rig& rig, const ReadRequest& req) {
  const Bytes wire = encode(req);
  const auto serve = [&] {
    Bytes payload = rig.client_ep->acquire_buffer(msg::kRead);
    payload.assign(wire.begin(), wire.end());
    rig.client_ep->notify(rig.server_ep->id(), msg::kRead, std::move(payload));
    rig.sim.run();
  };
  constexpr int kWarmup = 64;
  constexpr int kServed = 64;
  for (int i = 0; i < kWarmup; ++i) serve();
  const std::uint64_t before = qrdtm::testing::alloc_count();
  for (int i = 0; i < kServed; ++i) serve();
  return static_cast<double>(qrdtm::testing::alloc_count() - before) /
         kServed;
}

TEST(AllocRegression, RqvReadServingIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Rig rig;
  constexpr ObjectId kFetched = 1000;
  rig.store().seed(kFetched, Bytes(64, 0x5a), 3);
  ReadRequest req = basic_read(kFetched, NestingMode::kClosed);
  for (ObjectId id = 1; id <= 32; ++id) {
    rig.store().seed(id, Bytes{}, 5);
    req.dataset.push_back(DataSetEntry{id, 5, 100, 0, 0});
  }
  ASSERT_EQ(rig.read(req).status, ReadStatus::kOk);
  EXPECT_EQ(allocs_per_served_read(rig, req), 0.0)
      << "an OK read is encoded from the store entry, with no value copy";
  req.dataset.back().version = 4;  // stale: validation fails
  ASSERT_EQ(rig.read(req).status, ReadStatus::kAbort);
  EXPECT_EQ(allocs_per_served_read(rig, req), 0.0)
      << "a failed Rqv read allocates nothing";
}

// A replica reads a vote's and a confirm's sets in place, logs the
// write-set as its bytes and copies each confirmed value into its store
// entry's buffer: in steady state a 2PC round allocates nothing but the
// amortised growth of the log tail, of its shelf's run chunks and of the
// outcome table.

TEST(AllocRegression, CommitVoteAndConfirmServingIsAllocationFree) {
  if (!qrdtm::testing::alloc_hook_active()) {
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build intercepts\n operator new, or replacement not linked in)";
  }
  Rig rig;
  constexpr ObjectId kWrites = 16;
  constexpr ObjectId kRead = 100;
  constexpr int kWarmup = 64;
  constexpr int kRounds = 256;
  for (ObjectId id = 1; id <= kWrites; ++id) {
    rig.store().seed(id, Bytes(32, 0x5a), 1);
  }
  rig.store().seed(kRead, Bytes{}, 5);
  // Round i commits every object from version 1 + i; its abort vote reads
  // kRead at a stale version.  Every wire is encoded before counting.
  struct Round {
    Bytes vote;
    Bytes confirm;
    Bytes abort_vote;
  };
  std::vector<Round> rounds;
  for (int i = 0; i < kWarmup + kRounds; ++i) {
    CommitRequest req;
    req.txn = 1000 + static_cast<TxnId>(i);
    for (ObjectId id = 1; id <= kWrites; ++id) {
      req.writeset.push_back(CommitWriteEntry{
          id, 1 + static_cast<Version>(i),
          Bytes(32, static_cast<std::uint8_t>(i)), 1});
    }
    CommitRequest stale;
    stale.txn = 500000 + static_cast<TxnId>(i);
    stale.readset.push_back(CommitReadEntry{kRead, 4});
    rounds.push_back(Round{
        encode(req),
        encode(CommitConfirm{
            .txn = req.txn, .commit = true, .writeset = req.writeset}),
        encode(stale)});
  }
  const auto deliver = [&](net::MsgKind kind, const Bytes& wire) {
    Bytes payload = rig.client_ep->acquire_buffer(kind);
    payload.assign(wire.begin(), wire.end());
    rig.client_ep->notify(rig.server_ep->id(), kind, std::move(payload));
    rig.sim.run();
  };
  const auto serve = [&](const Round& r) {
    deliver(msg::kCommitRequest, r.vote);
    deliver(msg::kCommitConfirm, r.confirm);
    deliver(msg::kCommitRequest, r.abort_vote);
  };
  for (int i = 0; i < kWarmup; ++i) serve(rounds[i]);
  const std::uint64_t before = qrdtm::testing::alloc_count();
  for (int i = kWarmup; i < kWarmup + kRounds; ++i) serve(rounds[i]);
  const double per_round =
      static_cast<double>(qrdtm::testing::alloc_count() - before) / kRounds;
  EXPECT_LT(per_round, 0.05)
      << per_round << " allocations per round: votes and confirms are read "
         "in place and logged by copy";
  // The rounds did what they claim: every write committed, and the
  // abort votes were abort votes (nothing prepared is left behind).
  EXPECT_EQ(rig.store().version_of(kWrites),
            1 + static_cast<Version>(kWarmup + kRounds));
  EXPECT_EQ(rig.server->commit_log().in_flight(), 0u);
  EXPECT_FALSE(rig.vote(CommitRequest{.txn = 1, .readset = {{kRead, 4}},
                                      .writeset = {}})
                   .commit);
}

TEST(QrServer, VoteCommitsAndProtectsWriteSet) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  CommitRequest req;
  req.txn = 100;
  req.writeset.push_back(CommitWriteEntry{1, 5, Bytes{0x02}});
  EXPECT_TRUE(rig.vote(req).commit);
  EXPECT_TRUE(rig.store().protected_against(1, 12345));
}

TEST(QrServer, VoteRejectsStaleReadSet) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  CommitRequest req;
  req.txn = 100;
  req.readset.push_back(CommitReadEntry{1, 4});
  EXPECT_FALSE(rig.vote(req).commit);
  EXPECT_FALSE(rig.store().protected_against(1, 12345))
      << "abort vote must not protect anything";
}

TEST(QrServer, VoteRejectsStaleWriteBase) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  CommitRequest req;
  req.txn = 100;
  req.writeset.push_back(CommitWriteEntry{1, 4, Bytes{}});
  EXPECT_FALSE(rig.vote(req).commit);
}

TEST(QrServer, VoteRejectsCompetingProtection) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().protect(1, 999, /*now=*/1);
  CommitRequest req;
  req.txn = 100;
  req.writeset.push_back(CommitWriteEntry{1, 5, Bytes{}});
  EXPECT_FALSE(rig.vote(req).commit);
}

TEST(QrServer, VoteReportsEveryStaleEntry) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  rig.store().seed(2, Bytes{}, 3);
  rig.store().seed(3, Bytes{}, 7);
  CommitRequest req;
  req.txn = 100;
  req.readset.push_back(CommitReadEntry{1, 4});              // stale
  req.writeset.push_back(CommitWriteEntry{2, 3, Bytes{}});   // current
  req.writeset.push_back(CommitWriteEntry{3, 6, Bytes{}});   // stale
  const VoteResponseView vote = rig.vote(req);
  EXPECT_FALSE(vote.commit);
  ASSERT_EQ(vote.stale.size(), 2u)
      << "the vote scans past the first failure and names every stale id";
  EXPECT_EQ(vote.stale[0], 1u);
  EXPECT_EQ(vote.stale[1], 3u);
  EXPECT_FALSE(rig.store().protected_against(2, 12345))
      << "abort vote must not protect anything";
}

TEST(QrServer, ConfirmAppliesBasePlusOneAndUnprotects) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  CommitRequest req;
  req.txn = 100;
  req.writeset.push_back(CommitWriteEntry{1, 5, Bytes{0x09}});
  ASSERT_TRUE(rig.vote(req).commit);

  CommitConfirm c;
  c.txn = 100;
  c.commit = true;
  c.writeset = req.writeset;
  rig.confirm(c);
  EXPECT_EQ(rig.store().version_of(1), 6u);
  EXPECT_EQ(rig.store().find(1)->data, Bytes{0x09});
  EXPECT_FALSE(rig.store().protected_against(1, 12345));
}

TEST(QrServer, ConfirmAppliesBasePlusStepsAndDedupesRepeat) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 5);
  CommitRequest req;
  req.txn = 100;
  // A QR-Q queue that absorbed three speculative writes.
  req.writeset.push_back(CommitWriteEntry{1, 5, Bytes{0x09}, 3});
  ASSERT_TRUE(rig.vote(req).commit);

  CommitConfirm c;
  c.txn = 100;
  c.commit = true;
  c.writeset = req.writeset;
  rig.confirm(c);
  EXPECT_EQ(rig.store().version_of(1), 8u);
  EXPECT_EQ(rig.store().find(1)->data, Bytes{0x09});
  EXPECT_FALSE(rig.store().protected_against(1, 12345));
  EXPECT_EQ(rig.metrics.confirm_duplicates, 0u);

  // A retransmitted confirm in the same liveness epoch is counted, not
  // re-applied.
  rig.confirm(c);
  EXPECT_EQ(rig.metrics.confirm_duplicates, 1u);
  EXPECT_EQ(rig.store().version_of(1), 8u);
}

TEST(QrServer, AbortConfirmOnlyUnprotects) {
  Rig rig;
  rig.store().seed(1, Bytes{0x01}, 5);
  CommitRequest req;
  req.txn = 100;
  req.writeset.push_back(CommitWriteEntry{1, 5, Bytes{0x09}});
  ASSERT_TRUE(rig.vote(req).commit);

  CommitConfirm c;
  c.txn = 100;
  c.commit = false;
  c.writeset = req.writeset;
  rig.confirm(c);
  EXPECT_EQ(rig.store().version_of(1), 5u);
  EXPECT_EQ(rig.store().find(1)->data, Bytes{0x01});
  EXPECT_FALSE(rig.store().protected_against(1, 12345));
}

TEST(QrServer, StaleConfirmDoesNotRegressVersion) {
  Rig rig;
  rig.store().seed(1, Bytes{}, 9);
  CommitConfirm c;  // from an old committer whose base was 3
  c.txn = 55;
  c.commit = true;
  c.writeset.push_back(CommitWriteEntry{1, 3, Bytes{0x01}});
  rig.confirm(c);
  EXPECT_EQ(rig.store().version_of(1), 9u) << "apply only fast-forwards";
}

TEST(QrServer, ConfirmCreatesFreshObjects) {
  Rig rig;
  CommitConfirm c;
  c.txn = 100;
  c.commit = true;
  c.writeset.push_back(CommitWriteEntry{77, 0, Bytes{0x07}});
  rig.confirm(c);
  EXPECT_EQ(rig.store().version_of(77), 1u);
}

}  // namespace
}  // namespace qrdtm::core
