// White-box tests of the QR replica server: Rqv validation (Alg. 1 / 4),
// read handling (Alg. 2 remote side), 2PC votes and confirms -- driven by
// crafted wire messages through a minimal two-endpoint network.
#include <gtest/gtest.h>

#include "core/qr_server.h"
#include "net/latency.h"
#include "sim/task.h"

namespace qrdtm::core {
namespace {

struct Rig {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::RpcEndpoint> client_ep;
  std::unique_ptr<net::RpcEndpoint> server_ep;
  std::unique_ptr<QrServer> server;

  Rig() {
    net = std::make_unique<net::Network>(
        sim, std::make_unique<net::UniformLatency>(sim::msec(1)), 1,
        sim::usec(10));
    client_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server = std::make_unique<QrServer>(*server_ep);
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

  ReadResponse read(const ReadRequest& req) {
    return ReadResponse::decode(call(msg::kRead, req.encode()));
  }
  VoteResponse vote(const CommitRequest& req) {
    return VoteResponse::decode(call(msg::kCommitRequest, req.encode()));
  }
  void confirm(const CommitConfirm& c) {
    client_ep->notify(server_ep->id(), msg::kCommitConfirm, c.encode());
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
  ReadResponse resp = rig.read(basic_read(1, NestingMode::kFlat));
  EXPECT_EQ(resp.status, ReadStatus::kOk);
  EXPECT_EQ(resp.version, 3u);
  EXPECT_EQ(resp.data, Bytes{0xAA});
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
  ReadResponse resp = rig.read(req);
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
  ReadResponse resp = rig.read(req);
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
  VoteResponse vote = rig.vote(req);
  EXPECT_FALSE(vote.commit);
  EXPECT_EQ(vote.stale, (std::vector<ObjectId>{1, 3}))
      << "the vote scans past the first failure and names every stale id";
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
  EXPECT_EQ(rig.server->confirm_duplicates(), 0u);

  // A retransmitted confirm in the same liveness epoch is counted, not
  // re-applied.
  rig.confirm(c);
  EXPECT_EQ(rig.server->confirm_duplicates(), 1u);
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
