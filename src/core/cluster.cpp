#include "core/cluster.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/history.h"
#include "net/latency.h"

namespace qrdtm::core {

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg) {
  Rng seeder(cfg_.seed);

  faults_.set_simulator(&sim_);
  // A kPanic point is a crash exactly at its protocol boundary.
  faults_.set_panic_handler([this](net::NodeId node) { kill_node(node); });

  // Unless the caller overrode it, charge committing clients the worst-case
  // one-way confirm propagation so back-to-back transactions do not race
  // their own confirms.
  if (cfg_.runtime.commit_settle == 0) {
    cfg_.runtime.commit_settle = cfg_.link_latency + cfg_.link_jitter;
  }

  std::unique_ptr<net::LatencyModel> latency;
  if (cfg_.metric_space) {
    latency = std::make_unique<net::GridLatency>(
        cfg_.num_nodes, cfg_.link_latency, cfg_.metric_scale, seeder.next(),
        cfg_.link_jitter);
  } else {
    latency = std::make_unique<net::UniformLatency>(cfg_.link_latency,
                                                    cfg_.link_jitter);
  }
  net_ = std::make_unique<net::Network>(sim_, std::move(latency),
                                        seeder.next(), cfg_.service_time);

  switch (cfg_.quorum) {
    case QuorumKind::kTree: {
      quorum::TreeQuorumProvider::Config qc;
      qc.num_nodes = cfg_.num_nodes;
      qc.degree = cfg_.tree_degree;
      qc.read_level = cfg_.tree_read_level;
      qc.same_for_all = cfg_.same_quorums_for_all;
      quorums_ = std::make_unique<quorum::TreeQuorumProvider>(qc);
      break;
    }
    case QuorumKind::kMajority:
      quorums_ = std::make_unique<quorum::MajorityQuorumProvider>(
          cfg_.num_nodes, cfg_.same_quorums_for_all);
      break;
    case QuorumKind::kFlatFailureAware:
      quorums_ =
          std::make_unique<quorum::FlatFailureAwareProvider>(cfg_.num_nodes);
      break;
    case QuorumKind::kSharded: {
      quorum::ShardedQuorumProvider::Config sc;
      sc.num_nodes = cfg_.num_nodes;
      sc.num_shards = cfg_.num_shards;
      sc.cohort_size = cfg_.cohort_size;
      sc.inner = cfg_.sharded_majority_inner
                     ? quorum::ShardedQuorumProvider::Inner::kMajority
                     : quorum::ShardedQuorumProvider::Inner::kTree;
      sc.tree_degree = cfg_.tree_degree;
      sc.tree_read_level = cfg_.tree_read_level;
      sc.same_for_all = cfg_.same_quorums_for_all;
      quorums_ = std::make_unique<quorum::ShardedQuorumProvider>(sc);
      break;
    }
  }

  if (cfg_.failure_detection_threshold > 0) {
    failure_detector_ = std::make_unique<FailureDetector>(
        cfg_.failure_detection_threshold,
        [this](net::NodeId suspect) { quorums_->on_failure(suspect); },
        // Rescind: the node answered after all, so it never lost state and
        // can rejoin quorums without a catch-up pull.
        [this](net::NodeId node) { quorums_->on_recovery(node); });
  }

  endpoints_.reserve(cfg_.num_nodes);
  servers_.reserve(cfg_.num_nodes);
  runtimes_.reserve(cfg_.num_nodes);
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
    endpoints_.push_back(std::make_unique<net::RpcEndpoint>(sim_, *net_));
    QRDTM_CHECK(endpoints_.back()->id() == i);
    servers_.push_back(std::make_unique<QrServer>(*endpoints_.back()));
    lock_managers_.push_back(
        std::make_unique<LockManager>(*endpoints_.back()));
    // Coordinator decision records (DESIGN.md §17) share the co-located
    // replica's WAL, so a node restart recovers both roles together.
    runtimes_.push_back(std::make_unique<TxnRuntime>(
        *endpoints_.back(), *quorums_, metrics_, cfg_.runtime, seeder.next(),
        servers_.back()->commit_log()));
    runtimes_.back()->set_failure_detector(failure_detector_.get());
    runtimes_.back()->set_fault_points(&faults_);
    servers_.back()->set_protection_lease(cfg_.protection_lease);
    servers_.back()->set_fault_points(&faults_);
    servers_.back()->set_quorum_provider(quorums_.get());
    servers_.back()->set_metrics(&metrics_);
    servers_.back()->set_max_tail_bytes(cfg_.runtime.log_max_tail_bytes);
    if (cfg_.test_skip_commit_validation) {
      servers_.back()->set_validation_disabled_for_test(true);
    }
  }
}

void Cluster::set_history_recorder(HistoryRecorder* recorder) {
  recorder_ = recorder;
  for (auto& rt : runtimes_) {
    rt->set_history_recorder(recorder);
  }
}

void Cluster::set_trace_recorder(TraceRecorder* tracer) {
  for (auto& rt : runtimes_) {
    rt->set_trace_recorder(tracer);
  }
  for (auto& server : servers_) {
    server->set_trace_recorder(tracer);
  }
}

LatencyMetrics Cluster::merged_latency() const {
  LatencyMetrics merged;
  for (const auto& rt : runtimes_) {
    merged.merge(rt->latency());
  }
  return merged;
}

const LatencyMetrics& Cluster::node_latency(net::NodeId node) const {
  QRDTM_CHECK(node < runtimes_.size());
  return runtimes_[node]->latency();
}

void Cluster::seed_object(ObjectId id, const Bytes& data, Version version) {
  for (auto& server : servers_) {
    // Only the object's replicas hold it (everyone under full replication,
    // the cohort's members under kSharded).  Through the server so the seed
    // lands in the commit log too: a node that crashes before its first
    // checkpoint cut must replay its seeds.
    if (!quorums_->replicates(server->id(), id)) continue;
    server->seed_object(id, data, version);
  }
  if (recorder_ != nullptr) recorder_->record_seed(id, version, data);
}

ObjectId Cluster::seed_new_object(const Bytes& data) {
  ObjectId id = next_setup_id_++;
  seed_object(id, data);
  return id;
}

TxnRuntime& Cluster::runtime(net::NodeId node) {
  QRDTM_CHECK(node < runtimes_.size());
  return *runtimes_[node];
}

QrServer& Cluster::server(net::NodeId node) {
  QRDTM_CHECK(node < servers_.size());
  return *servers_[node];
}

LockManager& Cluster::lock_manager(net::NodeId node) {
  QRDTM_CHECK(node < lock_managers_.size());
  return *lock_managers_[node];
}

void Cluster::spawn_client(net::NodeId node, TxnBody body) {
  TxnRuntime& rt = runtime(node);
  sim_.spawn(rt.run_transaction(std::move(body)));
}

void Cluster::spawn_loop_client(net::NodeId node, BodyFactory factory,
                                sim::Tick think_time) {
  TxnRuntime& rt = runtime(node);
  auto loop = [](Cluster* self, TxnRuntime* rtp, BodyFactory f,
                 sim::Tick think) -> sim::Task<void> {
    Rng& rng = rtp->rng();
    while (!self->sim_.stopping()) {
      TxnBody body = f(rng);
      co_await rtp->run_transaction(std::move(body));
      if (think > 0) co_await self->sim_.delay(think);
    }
  };
  sim_.spawn(loop(this, &rt, std::move(factory), think_time));
}

void Cluster::run_for(sim::Tick duration) {
  sim_.run_until(sim_.now() + duration);
}

void Cluster::advance_for(sim::Tick duration) {
  sim_.advance_to(sim_.now() + duration);
}

void Cluster::run_to_completion() { sim_.run(); }

void Cluster::kill_node(net::NodeId node, bool notify_provider) {
  net_->kill(node);
  if (notify_provider) {
    quorums_->on_failure(node);
  }
}

void Cluster::cut_checkpoint(net::NodeId node) {
  QRDTM_CHECK(node < cfg_.num_nodes);
  if (!net_->alive(node)) return;
  servers_[node]->cut_checkpoint();
  ++metrics_.checkpoint_cuts;
}

void Cluster::recover_node(net::NodeId node) {
  QRDTM_CHECK(node < cfg_.num_nodes);
  if (net_->alive(node)) return;
  net_->revive(node);
  QrServer& server = *servers_[node];
  // Process restart: memory is gone wholesale; the commit log is the disk.
  // Replay it locally -- protections are not logged, so in-flight 2PC
  // bookkeeping stays dead.  fp::kRecoverySkipReplay armed kSkip models a
  // node that lost its disk (the broken-recovery canary): it restarts from
  // nothing, and the catch-up below degrades to a full-store pull.
  if (faults_.fire(fp::kRecoverySkipReplay, node) == FaultAction::kSkip) {
    server.store().clear_all();
  } else {
    metrics_.log_replay_applies += server.replay_commit_log();
    // Coordinator failover half of DESIGN.md §17: confirm broadcasts that
    // were decided but not settled before the crash are re-sent now,
    // at-least-once -- receivers dedupe on (txn, epoch).
    server.redrive_open_decisions();
  }
  server.set_syncing(true);
  if (failure_detector_) failure_detector_->forget(node);
  sim_.spawn(recover_task(node));
}

sim::Task<void> Cluster::recover_task(net::NodeId node) {
  // Bounded retries: with no live read quorum reachable the node stays
  // syncing (excluded from quorums), which is safe -- just unavailable.
  // Exhausting a whole attempt budget is no longer silent: it counts a
  // recovery_failure, narrates a fuzz event, and schedules another round
  // (bounded too, so a drained run still terminates) -- a churn schedule
  // that starves the first 32 attempts cannot wedge the node permanently.
  constexpr std::uint32_t kAttempts = 32;
  constexpr std::uint32_t kRounds = 8;
  QrServer& server = *servers_[node];
  net::RpcEndpoint& rpc = *endpoints_[node];
  // fp::kRecoverySkipSync armed kSkip re-admits the node on its local
  // replay alone -- no anti-entropy.  Unsafe by design (the node missed
  // every commit since it died): the broken-recovery canary uses it to
  // prove the history checker notices.
  if (faults_.fire(fp::kRecoverySkipSync, node) == FaultAction::kSkip) {
    server.set_syncing(false);
    quorums_->on_recovery(node);
    ++metrics_.node_recoveries;
    co_return;
  }
  // The node catches up cohort by cohort: one pull from each cohort it is
  // a member of (a single pull from cohort 0 under full replication).  An
  // attempt succeeds only when EVERY cohort gathered its full read quorum
  // within that attempt -- freshness per cohort needs the full quorum (by
  // Q1 it intersects every write quorum of the cohort, so some counted
  // member holds each committed version), and demanding it within one
  // attempt keeps the pull-to-readmission staleness window down to the
  // attempt's own round trips.
  const std::vector<std::uint32_t> cohorts = quorums_->node_cohorts(node);
  for (std::uint32_t round = 0;; ++round) {
    for (std::uint32_t attempt = 0; attempt < kAttempts; ++attempt) {
      bool all_current = true;
      for (std::uint32_t cohort : cohorts) {
        std::vector<net::NodeId> peers;
        try {
          peers = quorums_->cohort_read_quorum(node, cohort);
        } catch (const quorum::QuorumUnavailable&) {
        }
        std::erase(peers, node);
        if (peers.empty()) {
          all_current = false;
          continue;
        }
        // The pull is version-bounded: the request carries the replayed
        // store's versions and peers ship only strictly newer copies (a
        // node that lost its log sends no bounds and gets everything).
        // Rebuilt per pull -- earlier partial pulls may have already
        // advanced some objects.  The bounds cover the whole store; peers
        // filter replies down to what this node replicates.
        SyncPullRequest pullreq;
        pullreq.have.reserve(server.store().num_objects());
        // Collect-then-sort below fixes the wire order.
        for (const auto& [id, e] : server.store().entries()) {
          pullreq.have.push_back(SyncBound{id, e.version});
        }
        std::sort(pullreq.have.begin(), pullreq.have.end(),
                  [](const SyncBound& a, const SyncBound& b) {
                    return a.id < b.id;
                  });
        Writer reqw(rpc.acquire_buffer(msg::kSyncPull));
        pullreq.encode_into(reqw);
        Bytes req = std::move(reqw).take();
        auto futures = rpc.multicast(peers, msg::kSyncPull, req,
                                     cfg_.runtime.rpc_timeout);
        rpc.release_buffer(std::move(req));
        std::size_t current = 0;
        for (auto& f : futures) {
          net::RpcResult res = co_await f;
          if (!res.ok) continue;
          SyncPullResponse resp = SyncPullResponse::decode(res.payload);
          rpc.release_buffer(std::move(res.payload));
          if (!resp.ok) continue;  // peer is itself still syncing
          ++current;
          metrics_.recovery_delta_objects += resp.entries.size();
          for (SyncEntry& e : resp.entries) {
            // apply() keeps only strictly-newer copies, so merging the
            // whole quorum's stores is order-independent.
            server.store().apply(e.id, e.version, std::move(e.data));
          }
        }
        if (current != futures.size()) all_current = false;
      }
      if (all_current) {
        // Make the pulled delta durable: the next crash replays it from the
        // checkpoint image instead of re-pulling it.
        server.cut_checkpoint();
        ++metrics_.checkpoint_cuts;
        server.set_syncing(false);
        quorums_->on_recovery(node);
        ++metrics_.node_recoveries;
        co_return;
      }
      co_await sim_.delay(cfg_.runtime.rpc_timeout);
    }
    // A whole attempt budget starved out: record it loudly instead of the
    // old silent co_return that left the node syncing forever.
    ++metrics_.recovery_failures;
    if (recorder_ != nullptr) {
      recorder_->record_fault(sim_.now(),
                             "recovery.stalled node=" + std::to_string(node) +
                                 " round=" + std::to_string(round + 1) + "/" +
                                 std::to_string(kRounds));
    }
    if (round + 1 >= kRounds || sim_.stopping()) co_return;
    // Back off a few timeouts before the next round; the partition or kill
    // burst that starved this one usually clears in the meantime.
    co_await sim_.delay(cfg_.runtime.rpc_timeout * 4);
  }
}

std::size_t Cluster::suspected_nodes() const {
  return failure_detector_ ? failure_detector_->suspected_count() : 0;
}

}  // namespace qrdtm::core
