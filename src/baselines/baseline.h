// The shell both Fig. 9 baselines run in (paper §VI-D): TFA / N-TFA
// (tfa.h) and DecentSTM (decent.h).
//
// The shell owns what the two protocols share: the simulator, a network
// with one RPC endpoint per node, the counters, the history recorder, the
// cluster rng and the id counters.  It also drives transactions: one retry
// loop with core/backoff.h's root backoff, one-shot and looping clients,
// and the commit record for the history checker.  A protocol derives from
// BaselineCluster<its Txn> and supplies only how a transaction starts
// (`begin`), how it commits (`try_commit`), where objects live (`place`),
// its link latency and its server class.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/types.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace qrdtm::core {
class HistoryRecorder;
}

namespace qrdtm::baselines {

using core::Bytes;
using core::ObjectId;
using core::TxnId;
using core::Version;

/// Control-flow exception: abort and retry.  `scope` names the innermost
/// closed-nested scope that must retry under N-TFA (0 = the whole
/// transaction; scopes are 1-based stack indices).  DecentSTM has no nested
/// scopes and always aborts the whole transaction.
struct BaselineAbort {
  std::string reason;
  std::size_t scope = 0;
};

/// A transaction's buffered read / write of one object.
struct ReadEntry {
  Version version;
  Bytes data;
};
struct WriteEntry {
  Version base;
  Bytes data;
};
using ReadSet = std::map<ObjectId, ReadEntry>;
using WriteSet = std::map<ObjectId, WriteEntry>;

/// Timeout of every baseline RPC.
constexpr sim::Tick kRpcTimeout = sim::msec(500);

struct BaselineConfig {
  std::uint32_t num_nodes = 13;
  std::uint64_t seed = 1;
  // Each protocol fixes its link latency in its .cpp; the RPC timeout is
  // kRpcTimeout and root-abort backoff is core/backoff.h's.
  /// Coordinator-liveness lease on server-side write locks: a lock
  /// outstanding this long is presumed orphaned (its coordinator died
  /// between locking and writing back) and is shed on the next conflicting
  /// request.  Far above any legitimate lock->writeback gap, so failure-free
  /// runs never trip it.  0 disables shedding.
  sim::Tick lock_lease = sim::sec(5);
};

/// One simulated baseline deployment; `TxnT` is the protocol's client-side
/// transaction context.
template <class TxnT>
class BaselineCluster {
 public:
  using Txn = TxnT;
  using Body = std::function<sim::Task<void>(Txn&)>;
  using BodyFactory = std::function<Body(Rng&)>;

  virtual ~BaselineCluster();

  BaselineCluster(const BaselineCluster&) = delete;
  BaselineCluster& operator=(const BaselineCluster&) = delete;

  /// Install an object at its servers (setup only).
  ObjectId seed_new_object(const Bytes& data);

  void spawn_client(net::NodeId node, Body body);
  void spawn_loop_client(net::NodeId node, BodyFactory factory);

  /// Run one transaction, giving up after `max_attempts` aborts (0 =
  /// unlimited).  Returns true on commit.  Chaos runs still want the bound:
  /// a lock orphaned by a dropped response is only shed after
  /// BaselineConfig::lock_lease, and a victim stuck behind it would
  /// otherwise spin in retries for the whole lease window.
  sim::Task<bool> run_transaction_bounded(net::NodeId node, Body body,
                                          std::uint32_t max_attempts);

  /// Record commits/aborts into `rec` (nullptr = off); attach before
  /// seeding.
  void set_history_recorder(core::HistoryRecorder* rec) { recorder_ = rec; }

  void run_for(sim::Tick duration);
  void run_to_completion();

  core::Metrics& metrics() { return metrics_; }
  /// Cluster-wide latency histograms (commit latency, backoff waits, retry
  /// gaps; baseline reads are not quorum fetches, so read_rtt stays empty).
  const core::LatencyMetrics& latency() const { return latency_; }
  net::Network& network() { return *net_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Tick duration() const { return sim_.now(); }
  std::uint32_t num_nodes() const { return net_->num_nodes(); }

 protected:
  /// Builds the network (drawing its seed first from the cluster rng) and
  /// one endpoint per node; the protocol then attaches its servers.
  BaselineCluster(const BaselineConfig& cfg, sim::Tick link_latency,
                  sim::Tick link_jitter);

  /// Start attempt `id` of a transaction on `node`.
  virtual Txn begin(net::NodeId node, TxnId id) = 0;
  /// Commit `txn`; false = abort and retry.
  virtual sim::Task<bool> try_commit(Txn& txn) = 0;
  /// Store the seed copy of `id` at the servers that own it.
  virtual void place(ObjectId id, const Bytes& data) = 0;

  /// Hand a commit to the history recorder, if one is attached.  Reads of
  /// written objects are left out: the write's base version covers them.
  void record_commit(TxnId txn, net::NodeId node, Version snapshot,
                     const ReadSet& reads, const WriteSet& writes,
                     Version installed);

  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  core::Metrics metrics_;

 private:
  sim::Task<void> run_transaction(net::NodeId node, Body body);

  core::LatencyMetrics latency_;
  core::HistoryRecorder* recorder_ = nullptr;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  ObjectId next_object_id_ = 1;
};

}  // namespace qrdtm::baselines
