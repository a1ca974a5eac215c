// Cluster -- the public facade of qrdtm.
//
// A Cluster assembles one simulated QR-DTM deployment: the DES kernel, the
// network (latency model + per-node service queues), one replica server and
// one transaction runtime per node, and the quorum provider.  It is the
// entry point examples and benchmarks use:
//
//   core::ClusterConfig cfg;
//   cfg.runtime.mode = core::NestingMode::kClosed;
//   core::Cluster cluster(cfg);
//   auto acct = cluster.seed_new_object(encode_account(100));
//   cluster.spawn_client(0, [&](core::Txn& t) -> sim::Task<void> { ... });
//   cluster.run_for(sim::sec(10));
//   std::cout << cluster.metrics().throughput(cluster.duration());
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/abstract_locks.h"
#include "core/failure_detector.h"
#include "core/metrics.h"
#include "core/qr_server.h"
#include "core/txn.h"
#include "net/network.h"
#include "net/rpc.h"
#include "quorum/quorum.h"
#include "sim/simulator.h"

namespace qrdtm::core {

enum class QuorumKind {
  kTree,              // Agrawal-El Abbadi ternary tree (paper default)
  kMajority,          // plain majorities (ablation)
  kFlatFailureAware,  // Fig. 10 policy
  kSharded,           // partial replication over quorum cohorts
};

struct ClusterConfig {
  std::uint32_t num_nodes = 13;
  std::uint64_t seed = 1;

  RuntimeConfig runtime;

  /// kTree and kSharded's inner trees are ternary (the paper's degree).
  QuorumKind quorum = QuorumKind::kTree;
  std::uint32_t tree_read_level = 1;

  /// kSharded only: cohort count (objects hash to cohorts via CohortMap)
  /// and replicas per cohort.  Each cohort runs its own inner tree (the
  /// default) or majority quorum structure over `cohort_size` consecutive
  /// nodes; an object lives on exactly its cohort's members.
  std::uint32_t num_shards = 16;
  std::uint32_t cohort_size = 13;
  /// kSharded only: use majority quorums inside each cohort instead of the
  /// ternary tree (no single root, so any minority of a cohort can die
  /// without losing its write quorum -- what the chaos fuzzer wants).
  bool sharded_majority_inner = false;

  /// One-way link latency and jitter.  The default reproduces the paper's
  /// testbed: ~30 ms observed round trip for a (multicast) remote request.
  sim::Tick link_latency = sim::msec(12);
  sim::Tick link_jitter = sim::msec(5);
  /// cc DTM assumes a metric-space network (paper §I).  When true, nodes
  /// are placed on a unit square and one-way latency is
  /// link_latency + distance * 20 ms (+ jitter) instead of uniform.
  bool metric_space = false;
  /// Per-message processing time at a replica (drives the Fig. 10 hotspot
  /// behaviour).
  sim::Tick service_time = sim::usec(60);

  /// Timeout-based failure detection: after this many consecutive RPC
  /// timeouts from one node, quorums reconfigure around it.  0 disables
  /// detection (the paper's experiments assume failures are known; see
  /// kill_node).  Suspicion is rescindable: a successful reply from a
  /// suspected node re-admits it (no catch-up needed -- it never lost
  /// state).
  std::uint32_t failure_detection_threshold = 0;

  /// Coordinator-liveness lease on 2PC protections: a replica sheds a
  /// protection held longer than this (its coordinator died between vote
  /// and confirm) instead of wedging later writers forever.  The check is
  /// lazy tick arithmetic on the conflict path, so the default costs
  /// nothing in healthy runs -- a legitimate vote->confirm gap is bounded
  /// by one one-way latency plus queueing, orders of magnitude below this.
  /// 0 disables shedding.
  sim::Tick protection_lease = sim::sec(5);

  /// Test-only: replicas vote commit without validating (see
  /// QrServer::set_validation_disabled_for_test).  The fuzz harness uses it
  /// to prove the history checker catches serializability violations.
  bool test_skip_commit_validation = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ----- setup ------------------------------------------------------------

  /// Install an object replica on every node that replicates it (every
  /// node under full replication; the object's cohort members under
  /// kSharded), bypassing the protocol.  Call before running.
  void seed_object(ObjectId id, const Bytes& data, Version version = 1);

  /// Allocate a fresh setup-time id and seed it everywhere.
  ObjectId seed_new_object(const Bytes& data);

  /// Attach a history recorder to every runtime (and future seed_object
  /// calls).  Attach before seeding so initial versions are captured;
  /// nullptr detaches.
  void set_history_recorder(HistoryRecorder* recorder);

  /// Attach a trace recorder (qrdtm-trace) to every runtime and replica
  /// server; nullptr detaches (the default -- tracing off keeps the
  /// simulated schedule bit-identical to the determinism goldens).
  void set_trace_recorder(TraceRecorder* tracer);

  // ----- running work -----------------------------------------------------

  /// Spawn a client process on `node` that runs `body` as one transaction
  /// (with retry until commit) and then terminates.
  void spawn_client(net::NodeId node, TxnBody body);

  /// Spawn a closed-loop client on `node`: repeatedly draws a transaction
  /// body from `factory` and commits it, with `think_time` between
  /// transactions, until the simulation deadline.
  using BodyFactory = std::function<TxnBody(Rng&)>;
  void spawn_loop_client(net::NodeId node, BodyFactory factory,
                         sim::Tick think_time = 0);

  /// Run the simulation for `duration` simulated time and mark it stopping
  /// (loop clients wind down afterwards).
  void run_for(sim::Tick duration);

  /// Run for `duration` WITHOUT stopping loop clients -- for sampling state
  /// between phases (e.g. injected failures).
  void advance_for(sim::Tick duration);

  /// Drain every pending event (used by setup-free unit tests).
  void run_to_completion();

  // ----- fault injection --------------------------------------------------

  /// Fail-stop `node`.  With `notify_provider` (the paper §VI-D model)
  /// quorums reconfigure immediately; without it the failure is silent and
  /// must be discovered by the timeout-based failure detector (if enabled).
  void kill_node(net::NodeId node, bool notify_provider = true);

  /// Restart a killed node and bring it back into service:
  ///   1. revive the network endpoint (a fresh incarnation: pre-crash
  ///      traffic is dropped by the liveness-epoch check),
  ///   2. crash-wipe the replica: the whole in-memory store is lost and
  ///      rebuilt by replaying the node's commit log (image + tail;
  ///      fp::kRecoverySkipReplay skips it, modelling a lost disk),
  ///   3. mark the replica *syncing* (it refuses reads/votes), and
  ///   4. spawn an anti-entropy catch-up: pull from a full read quorum of
  ///      live nodes -- version-bounded (the request carries the replayed
  ///      versions, peers ship only strictly-newer copies; a node with an
  ///      empty store gets everything) -- install strictly-newer versions,
  ///      cut a post-sync checkpoint so the delta is durable, then
  ///      re-admit the node via QuorumProvider::on_recovery.
  /// Ordering matters for safety: by Q1 some read-quorum member holds every
  /// committed version, so once the pull completes the rejoining replica is
  /// current and may count toward quorums again; re-admitting before the
  /// pull could hand a read quorum a stale copy.  No-op on a live node.
  void recover_node(net::NodeId node);

  /// Take a checkpoint cut on `node`'s commit log (compact image, discard
  /// tail, carry in-flight prepares).  Chaos schedules and tests drive
  /// cuts; nothing cuts automatically.  No-op on a dead node.
  void cut_checkpoint(net::NodeId node);

  /// Nodes the timeout-based detector has suspected so far (0 when
  /// detection is disabled).
  std::size_t suspected_nodes() const;

  // ----- accessors ----------------------------------------------------------

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *net_; }
  /// The cluster-wide fault-point registry (core/faultpoint.h), already
  /// attached to every server and runtime; its panic handler is wired to
  /// kill_node.  Arm points here, then resume() suspended coroutines.
  FaultPointRegistry& fault_points() { return faults_; }
  quorum::QuorumProvider& quorums() { return *quorums_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  TxnRuntime& runtime(net::NodeId node);
  QrServer& server(net::NodeId node);
  /// The shelf holding the replicas' logged prepare runs, one copy of each.
  const store::RunShelf& run_shelf() const { return *run_shelf_; }
  LockManager& lock_manager(net::NodeId node);

  /// Cluster-wide latency view: every node's always-on histograms merged
  /// (commit latency, read RTT, backoff waits, retry gaps).
  LatencyMetrics merged_latency() const;
  /// One node's latency histograms.
  const LatencyMetrics& node_latency(net::NodeId node) const;
  std::uint32_t num_nodes() const { return cfg_.num_nodes; }
  const ClusterConfig& config() const { return cfg_; }

  /// Simulated time consumed by run_for calls so far.
  sim::Tick duration() const { return sim_.now(); }

 private:
  sim::Task<void> recover_task(net::NodeId node);

  ClusterConfig cfg_;
  sim::Simulator sim_;
  FaultPointRegistry faults_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<quorum::QuorumProvider> quorums_;
  Metrics metrics_;
  // The commit logs' shared prepare runs, one copy per write-set (every
  // replica's log refers to this shelf).
  std::shared_ptr<store::RunShelf> run_shelf_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  std::vector<std::unique_ptr<QrServer>> servers_;
  std::vector<std::unique_ptr<LockManager>> lock_managers_;
  std::vector<std::unique_ptr<TxnRuntime>> runtimes_;
  std::unique_ptr<FailureDetector> failure_detector_;
  HistoryRecorder* recorder_ = nullptr;
  ObjectId next_setup_id_ = 1;
};

}  // namespace qrdtm::core
