// DecentSTM baseline: a decentralized multi-version snapshot STM after
// Bieniusa & Fuhrmann (paper §VI-D comparison).
//
// Model (see DESIGN.md substitutions):
//   * every object is replicated on a fixed replica group (R = 3,
//     hash-placed) and each replica keeps a bounded *version history*;
//   * a transaction's first read pins its snapshot point (the timestamp of
//     the newest version it saw); every later read (unicast to the primary
//     replica) returns the version valid *at that point*, served from the
//     history -- conflicting transactions proceed as long as a consistent
//     snapshot exists, and readers never abort writers;
//   * versions valid at the snapshot point stay valid forever (commit
//     timestamps are monotone), so read-only transactions commit with no
//     communication;
//   * update transactions run first-committer-wins write-write validation:
//     a vote round locks the write-set on every replica of each written
//     object, then an apply round appends the new versions;
//   * the snapshot algorithm's bookkeeping (version-history scans, snapshot
//     merging) is charged as a fixed per-operation compute cost,
//     `snapshot_compute`, calibrated against the paper's observation that
//     DecentSTM's snapshot isolation "has higher overhead than QR-DTM".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

struct DecentAbort {
  std::string reason;
};

class DecentNode;
class DecentCluster;

class DecentTxn {
 public:
  sim::Task<Bytes> read(ObjectId id);
  sim::Task<Bytes> read_for_write(ObjectId id);
  void write(ObjectId id, Bytes data);

  /// Snapshot point pinned by the first read (0 = not yet pinned).
  std::uint64_t snapshot_ts() const { return snapshot_; }

 private:
  friend class DecentCluster;
  DecentTxn(DecentCluster& cluster, net::NodeId node, TxnId id)
      : cluster_(cluster), node_(node), id_(id) {}

  /// Fetch the newest version with ts <= snapshot (0 = newest overall);
  /// optionally pin the transaction snapshot to the returned version.
  sim::Task<Bytes> read_version(ObjectId id, std::uint64_t snapshot, bool pin);

  DecentCluster& cluster_;
  net::NodeId node_;
  TxnId id_;
  std::uint64_t snapshot_ = 0;
  struct ReadEntry {
    Version version;
    Bytes data;
  };
  struct WriteEntry {
    Version base;
    Bytes data;
  };
  std::map<ObjectId, ReadEntry> readset_;
  std::map<ObjectId, WriteEntry> writeset_;
};

using DecentBody = std::function<sim::Task<void>(DecentTxn&)>;

struct DecentConfig {
  std::uint32_t num_nodes = 13;
  std::uint32_t replication = 3;
  std::uint64_t seed = 1;
  // The version-history depth, the network (12 ms multicast-class links)
  // and the RPC timeout are fixed constants in decent.cpp; root-abort
  // backoff is core/backoff.h's.
  /// Snapshot-algorithm bookkeeping charged per remote operation.
  sim::Tick snapshot_compute = sim::msec(15);
  /// Coordinator-liveness lease on replica-side write locks: a lock
  /// outstanding this long is presumed orphaned (its coordinator died
  /// between vote and apply) and is shed on the next conflicting vote.  Far
  /// above any legitimate vote->apply gap, so failure-free runs never trip
  /// it.  0 disables shedding.
  sim::Tick lock_lease = sim::sec(5);
};

class DecentCluster {
 public:
  explicit DecentCluster(DecentConfig cfg);
  ~DecentCluster();

  DecentCluster(const DecentCluster&) = delete;
  DecentCluster& operator=(const DecentCluster&) = delete;

  ObjectId seed_new_object(const Bytes& data);

  void spawn_client(net::NodeId node, DecentBody body);
  using BodyFactory = std::function<DecentBody(Rng&)>;
  void spawn_loop_client(net::NodeId node, BodyFactory factory);

  /// Run one transaction, giving up after `max_attempts` aborts (0 =
  /// unlimited).  Returns true on commit.  Chaos runs still want the bound:
  /// a lock orphaned by a dropped vote response is only shed after
  /// DecentConfig::lock_lease, and a victim stuck behind it would otherwise
  /// spin in retries for the whole lease window.
  sim::Task<bool> run_transaction_bounded(net::NodeId node, DecentBody body,
                                          std::uint32_t max_attempts);

  /// Record commits/aborts into `rec` (nullptr = off); attach before
  /// seeding.
  void set_history_recorder(core::HistoryRecorder* rec) { recorder_ = rec; }

  void run_for(sim::Tick duration);
  void run_to_completion();

  core::Metrics& metrics() { return metrics_; }
  /// Cluster-wide latency histograms (commit latency, backoff waits, retry
  /// gaps; reads are unicast to a primary, so read_rtt stays empty).
  const core::LatencyMetrics& latency() const { return latency_; }
  net::Network& network() { return *net_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Tick duration() const { return sim_.now(); }
  std::uint32_t num_nodes() const { return cfg_.num_nodes; }

  /// Replica group of an object (first member is the read primary).
  std::vector<net::NodeId> replicas_of(ObjectId id) const;

  /// True while any replica of `id` holds a transaction lock on it (test
  /// observability for the lease-shedding path).
  bool object_locked(ObjectId id) const;
  /// Total locks shed by the coordinator-liveness lease, across all nodes.
  std::uint64_t lock_lease_breaks() const;

 private:
  friend class DecentTxn;

  sim::Task<void> run_transaction(net::NodeId node, DecentBody body);
  sim::Task<bool> try_commit(DecentTxn& txn);
  void record_commit_history(const DecentTxn& txn, Version install_ts);

  DecentConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  std::vector<std::unique_ptr<DecentNode>> nodes_;
  core::Metrics metrics_;
  core::LatencyMetrics latency_;
  core::HistoryRecorder* recorder_ = nullptr;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  ObjectId next_object_id_ = 1;
  std::uint64_t clock_ = 1;  // global timestamp source for commit ids
};

}  // namespace qrdtm::baselines
