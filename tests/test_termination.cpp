// Cooperative 2PC termination tests (DESIGN.md §17): fault-point steered
// coordinator crashes in the vote->confirm window, in-doubt resolution by
// peer query, presumed-abort after a coordinator restart, decision-record
// re-drive, the bytes a resolving replica re-sends, and the
// prepared-vs-protected lease distinction.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/cluster.h"
#include "core/faultpoint.h"
#include "core/history.h"
#include "core/qr_server.h"
#include "core/wire.h"
#include "net/latency.h"
#include "store/replica_store.h"
#include "wire_encode.h"

namespace qrdtm::core {
namespace {

TxnBody bump_body(ObjectId id) {
  return [id](Txn& t) -> sim::Task<void> {
    const ValueSpan v = co_await t.read_for_write(id);
    Bytes b(v.begin(), v.end());
    b[0] += 1;
    t.write(id, b);
  };
}

sim::Task<void> run_bounded(Cluster* c, net::NodeId node, TxnBody body,
                            std::uint32_t attempts, bool* committed) {
  *committed = co_await c->runtime(node).run_transaction_bounded(
      std::move(body), attempts);
}

std::size_t replicas_at_version(Cluster& c, ObjectId obj, Version v) {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < c.num_nodes(); ++i) {
    const store::ReplicaEntry* e =
        c.server(static_cast<net::NodeId>(i)).store().find(obj);
    if (e != nullptr && e->version == v) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Satellite regression: the lease may shed a merely-protected entry but must
// refuse a *prepared* one (durable yes-vote) -- only a confirm or a
// termination decision releases those.

TEST(Termination, LeaseShedsProtectedButRefusesPrepared) {
  store::ReplicaStore s;
  s.seed(1, Bytes{1});
  s.seed(2, Bytes{1});

  s.protect(1, 77, /*now=*/1000);
  s.protect(2, 77, /*now=*/1000);
  s.mark_prepared(2, 77);

  const std::uint64_t lease = 500;
  const std::uint64_t later = 2000;  // both leases long expired
  EXPECT_TRUE(s.lease_expired(1, later, lease));
  EXPECT_TRUE(s.lease_expired(2, later, lease));

  EXPECT_TRUE(s.expire_protection(1, later, lease))
      << "a plain protection past its lease must shed";
  EXPECT_FALSE(s.find(1)->is_protected);

  EXPECT_FALSE(s.expire_protection(2, later, lease))
      << "a prepared protection must never shed on a timer";
  EXPECT_TRUE(s.find(2)->is_protected);
  EXPECT_TRUE(s.prepared(2));
  EXPECT_TRUE(s.holds_protection(2, 77));
  EXPECT_FALSE(s.holds_protection(2, 78));

  // A confirm-style release clears both flags; the entry sheds normally
  // afterwards if re-protected without a prepare.
  s.unprotect(2, 77);
  EXPECT_FALSE(s.prepared(2));
  s.protect(2, 99, /*now=*/3000);
  EXPECT_TRUE(s.expire_protection(2, 4000, lease));
}

// ---------------------------------------------------------------------------
// Race (a): the coordinator dies BEFORE logging a decision record.  No
// confirm can ever have left it, so once it restarts (newer liveness epoch,
// empty decision log) a full termination round presumed-aborts the orphan
// and a later writer gets through.

TEST(Termination, CoordinatorDeadBeforeDecisionIsPresumedAborted) {
  ClusterConfig cfg;
  cfg.seed = 21;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kDecisionBeforeLog, FaultAction::kPanic, 4);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_FALSE(doomed) << "no decision was logged: the commit was never acked";
  ASSERT_FALSE(c.network().alive(4));
  EXPECT_GT(c.fault_points().hits(fp::kDecisionBeforeLog), 0u);

  // The write quorum's voters hold prepared protections for the orphan.
  // Restart the coordinator: its epoch moves past the vote-time epoch and
  // its decision log stays empty, which is exactly the presumed-abort proof.
  c.recover_node(4);
  c.run_to_completion();

  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed) << "presumed-abort must free the orphaned write-set";
  EXPECT_GT(c.metrics().indoubt_resolved_abort, 0u);
  EXPECT_GT(c.metrics().termination_rounds, 0u);
  EXPECT_EQ(c.metrics().indoubt_resolved_commit, 0u);

  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "only the second writer's bump may survive";
}

// ---------------------------------------------------------------------------
// Race (b): the coordinator dies AFTER the decision record but before any
// confirm leaves.  The client ack stands (decision durable); the restarted
// coordinator must re-drive the logged confirm so every voter applies.

TEST(Termination, AckedCommitSurvivesCrashBeforeAnyConfirm) {
  ClusterConfig cfg;
  cfg.seed = 22;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  // delay_fires=0: panic before the FIRST confirm send -- the decision is
  // durable, zero confirms are delivered (a dead sender's sends are cut).
  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_TRUE(doomed) << "the decision was durable: this commit is acked";
  ASSERT_FALSE(c.network().alive(4));
  EXPECT_EQ(replicas_at_version(c, obj, 2), 0u)
      << "no confirm may have been delivered before the crash";

  // Coordinator failover: replay finds the open decision record and
  // re-drives the confirm broadcast; receivers dedupe, voters apply.
  c.recover_node(4);
  c.run_to_completion();

  EXPECT_GT(replicas_at_version(c, obj, 2), c.num_nodes() / 2)
      << "the re-driven confirm must reach the whole write quorum";
  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "the acked commit must be readable after failover";
}

// ---------------------------------------------------------------------------
// Race (c): the coordinator dies after confirms reached a strict subset of
// the write quorum and NEVER comes back.  The applied subset is living proof
// of the commit decision; a termination round started by a later conflicting
// writer must propagate it to the prepared holdouts (indoubt_resolved_commit
// > 0), and the acked commit must survive into the serializable order.

TEST(Termination, PartialConfirmResolvedCommitByPeerQuery) {
  ClusterConfig cfg;
  cfg.seed = 23;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  HistoryRecorder rec;
  c.set_history_recorder(&rec);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  // delay_fires=1: the first confirm send goes through, the panic lands on
  // the second -- exactly one member applies, the rest stay prepared.
  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4, 1, 1);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  EXPECT_TRUE(doomed) << "the decision was durable: this commit is acked";
  ASSERT_FALSE(c.network().alive(4));
  ASSERT_EQ(replicas_at_version(c, obj, 2), 1u)
      << "exactly one confirm may land before the crash";

  // The coordinator stays dead.  A later writer collides with the prepared
  // protections; after the lease expires its voters run the termination
  // protocol, find the applied peer, and resolve commit.
  bool committed = false;
  c.simulator().spawn(run_bounded(&c, 0, bump_body(obj), 50, &committed));
  c.run_to_completion();

  EXPECT_TRUE(committed);
  EXPECT_GT(c.metrics().indoubt_resolved_commit, 0u)
      << "the holdouts must learn the commit from the applied peer";
  EXPECT_GT(c.metrics().termination_rounds, 0u);
  EXPECT_GT(c.metrics().confirm_duplicates, 0u)
      << "the resolution retransmit hits the applied peer, which dedupes";
  EXPECT_EQ(c.metrics().indoubt_resolved_abort, 0u)
      << "nothing may presume abort while the decision is discoverable";

  const CheckResult res = check_history(rec, CheckLevel::kSerializable);
  EXPECT_TRUE(res.ok) << res.report;

  // Both bumps survive: the acked in-doubt commit AND the second writer.
  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 3) << "the acked partial-confirm commit must not be lost";
}

// ---------------------------------------------------------------------------
// Satellite regression: duplicate confirm delivery (at-least-once) is
// counted and dropped, never double-applied.  A recovered coordinator whose
// broadcast partially landed re-drives the SAME confirm to every member;
// the member that already applied it must dedupe on (txn, epoch).

TEST(Termination, RedrivenConfirmIsDedupedNotReapplied) {
  ClusterConfig cfg;
  cfg.seed = 24;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4, 1, 1);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  ASSERT_TRUE(doomed);
  ASSERT_EQ(replicas_at_version(c, obj, 2), 1u);

  // Failover re-drive: every member gets the confirm again, including the
  // one that already applied it.
  c.recover_node(4);
  c.run_to_completion();

  EXPECT_GT(replicas_at_version(c, obj, 2), c.num_nodes() / 2);
  EXPECT_GT(c.metrics().confirm_duplicates, 0u)
      << "the already-applied member must count the repeat, not re-apply";

  std::int64_t seen = 0;
  c.spawn_client(2, [&, obj](Txn& t) -> sim::Task<void> {
    seen = (co_await t.read(obj))[0];
  });
  c.run_to_completion();
  EXPECT_EQ(seen, 2) << "dedupe must not double-apply the increment";
}

// The open decision of the crashed coordinator refers to the write run its
// quorum logged on the cluster's shelf; after the restart it re-drives the
// very bytes of the confirm it first sent, and every member applies them.
TEST(Termination, RedrivenSharedDecisionSendsTheSameConfirm) {
  ClusterConfig cfg;
  cfg.seed = 24;
  cfg.protection_lease = sim::msec(300);
  Cluster c(cfg);
  const ObjectId obj = c.seed_new_object(Bytes{1});

  c.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic, 4, 1, 1);
  bool doomed = false;
  c.simulator().spawn(run_bounded(&c, 4, bump_body(obj), 1, &doomed));
  c.run_to_completion();
  ASSERT_TRUE(doomed);
  const store::CommitLog& log = c.server(4).commit_log();
  const std::vector<TxnId> open = log.open_decisions();
  ASSERT_EQ(open.size(), 1u);
  const store::DecisionView d = *log.open_decision(open[0]);
  EXPECT_FALSE(d.payload.run.empty()) << "the decision shares the quorum's run";
  Bytes sent;
  d.payload.copy_to(sent);
  const CommitConfirmView confirm = CommitConfirm::decode_view(sent);
  EXPECT_EQ(confirm.txn, open[0]);
  EXPECT_TRUE(confirm.commit);
  ASSERT_EQ(confirm.writeset.size(), 1u);
  EXPECT_EQ((*confirm.writeset.begin()).id, obj);
  const std::size_t members = d.members.size();

  const net::NetStats before = c.network().stats();
  c.recover_node(4);
  c.run_to_completion();
  const net::NetStats after = c.network().stats();
  EXPECT_EQ(after.sent_by_kind_[msg::kCommitConfirm] -
                before.sent_by_kind_[msg::kCommitConfirm],
            members);
  EXPECT_EQ(after.bytes_by_kind(msg::kCommitConfirm) -
                before.bytes_by_kind(msg::kCommitConfirm),
            members * sent.size())
      << "each re-driven confirm is the logged one";
  EXPECT_TRUE(log.open_decisions().empty());
  for (std::size_t i = 0; i < members; ++i) {
    const store::ReplicaEntry* e =
        c.server(static_cast<net::NodeId>(d.members[i])).store().find(obj);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->version, 2u) << "member " << d.members[i];
    EXPECT_EQ(e->data, Bytes{2});
  }
}

// ---------------------------------------------------------------------------
// A replica that resolves an in-doubt commit re-sends the confirm header
// followed by the write run it logged as its prepare, verbatim.  A
// standalone replica (node 0) votes for a transaction coordinated by node
// 1; past the lease a closed-nested read (from node 2) collides with the
// prepared protection and starts a termination round, node 1's endpoint
// answers kCommitted, and keeps the confirm the replica sends it.

/// Write quorums of nodes 0 and 1.  Node 0 replicates every object, or
/// with `sharded` only the even ids.
class TwoNodeQuorums final : public quorum::QuorumProvider {
 public:
  explicit TwoNodeQuorums(bool sharded)
      : QuorumProvider(/*num_nodes=*/3), sharded_(sharded) {}
  std::vector<net::NodeId> cohort_read_quorum(net::NodeId,
                                              std::uint32_t) const override {
    return {0, 1};
  }
  std::vector<net::NodeId> cohort_write_quorum(net::NodeId,
                                               std::uint32_t) const override {
    return {0, 1};
  }
  bool replicates(net::NodeId node, store::ObjectId id) const override {
    return !sharded_ || node != 0 || id % 2 == 0;
  }

 private:
  bool sharded_;
};

sim::Task<void> vote_then_collide(net::RpcEndpoint* coordinator,
                                  net::RpcEndpoint* reader, Bytes request,
                                  Bytes read, bool* voted) {
  const net::RpcResult vote = co_await coordinator->call(
      0, msg::kCommitRequest, std::move(request), sim::sec(1));
  *voted = vote.ok && VoteResponse::decode_view(vote.payload).commit;
  co_await coordinator->simulator().delay(sim::msec(20));  // past the lease
  (void)co_await reader->call(0, msg::kRead, std::move(read), sim::sec(1));
}

/// The confirms node 0 sends its coordinator after voting for `req` and
/// resolving it to commit by a termination round.
std::vector<Bytes> confirms_after_resolve(const CommitRequest& req,
                                          bool sharded) {
  sim::Simulator sim;
  net::Network net(sim, std::make_unique<net::UniformLatency>(sim::msec(1)),
                   1, sim::usec(10));
  net::RpcEndpoint replica_ep(sim, net);
  net::RpcEndpoint coordinator_ep(sim, net);
  net::RpcEndpoint reader_ep(sim, net);
  Metrics metrics;
  QrServer replica(replica_ep, metrics);
  const TwoNodeQuorums quorums(sharded);
  replica.set_quorum_provider(&quorums);
  replica.set_protection_lease(sim::msec(10));
  for (const CommitWriteEntry& e : req.writeset) {
    if (quorums.replicates(0, e.id)) {
      replica.store().seed(e.id, Bytes{0}, e.base);
    }
  }
  std::vector<Bytes> confirms;
  coordinator_ep.register_service(
      msg::kTxnStatusRequest,
      [&](net::NodeId from, const Bytes& b) -> std::optional<Bytes> {
        const TxnStatusResponse resp{.txn = TxnStatusRequest::decode(b).txn,
                                     .status = TxnStatus::kCommitted,
                                     .epoch = 0};
        coordinator_ep.notify(from, msg::kTxnStatusResponse, encode(resp));
        return std::nullopt;
      });
  coordinator_ep.register_service(
      msg::kCommitConfirm,
      [&](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
        confirms.push_back(b);
        return std::nullopt;
      });
  ReadRequest read;
  read.root = 999;
  read.mode = NestingMode::kClosed;
  read.object = req.writeset.front().id;
  bool voted = false;
  sim.spawn(vote_then_collide(&coordinator_ep, &reader_ep, encode(req),
                              encode(read), &voted));
  sim.run();
  EXPECT_TRUE(voted);
  EXPECT_EQ(metrics.indoubt_resolved_commit, 1u);
  for (const CommitWriteEntry& e : req.writeset) {
    const store::ReplicaEntry* got = replica.store().find(e.id);
    if (!quorums.replicates(0, e.id)) {
      EXPECT_EQ(got, nullptr) << e.id;
      continue;
    }
    EXPECT_TRUE(got != nullptr && got->version == e.base + e.steps &&
                got->data == e.data)
        << "object " << e.id << " applied from the resolved run";
  }
  return confirms;
}

/// A commit request from node 1 (ids are (node + 1) << 40 | n) writing
/// objects 2, 3 and 4.
CommitRequest request_from_node_1() {
  CommitRequest req;
  req.txn = (TxnId{2} << 40) | 5;
  req.writeset = {CommitWriteEntry{2, 3, Bytes{0xa2, 0xb2}, 1},
                  CommitWriteEntry{3, 7, Bytes{0xa3}, 2},
                  CommitWriteEntry{4, 1, Bytes{0xa4, 0xb4, 0xc4}, 1}};
  return req;
}

TEST(Termination, ResolverResendsTheCoordinatorsConfirmBytes) {
  const CommitRequest req = request_from_node_1();
  // What the coordinator sends: encode_commit_confirm over views of its
  // write-set.
  std::vector<store::WriteView> views;
  for (const CommitWriteEntry& e : req.writeset) {
    views.push_back(store::WriteView{
        .id = e.id, .base = e.base, .steps = e.steps, .data = e.data});
  }
  Writer w;
  encode_commit_confirm(w, req.txn, /*commit=*/true, views);
  const Bytes coordinators = std::move(w).take();

  const std::vector<Bytes> sent = confirms_after_resolve(req, false);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], coordinators);
}

// Under sharded cohorts a replica logs only the writes it replicates, so
// the confirm it re-sends is the header and that run of its own.
TEST(Termination, ShardedResolverResendsItsOwnRun) {
  const CommitRequest req = request_from_node_1();
  CommitConfirm own{.txn = req.txn, .commit = true, .writeset = {}};
  for (const CommitWriteEntry& e : req.writeset) {
    if (e.id % 2 == 0) own.writeset.push_back(e);
  }
  ASSERT_EQ(own.writeset.size(), 2u);

  const std::vector<Bytes> sent = confirms_after_resolve(req, true);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], encode(own));
  const CommitConfirmView v = CommitConfirm::decode_view(sent[0]);
  EXPECT_EQ(v.txn, req.txn);
  EXPECT_TRUE(v.commit);
  EXPECT_EQ(v.writeset.size(), 2u);
}

}  // namespace
}  // namespace qrdtm::core
