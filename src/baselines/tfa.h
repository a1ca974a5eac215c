// TFA baseline: Saad & Ravindran's Transaction Forwarding Algorithm, the
// protocol behind HyFlow (paper §VI-D comparison).
//
// Single-copy model: every object lives at exactly one home node
// (hash-placed); all communication is unicast RPC.  Concurrency control is
// the asynchronous-clock scheme:
//   * each node keeps a local clock, bumped by commits it hosts;
//   * a transaction starts at its node's clock value;
//   * reading an object whose home clock has advanced past the
//     transaction's clock triggers *forwarding*: the read-set is
//     revalidated at the owners and, if intact, the transaction's clock
//     jumps forward; otherwise it aborts;
//   * commit locks the write-set at the owners (vote), revalidates the
//     read-set, then writes back with a fresh timestamp.
//
// TFA cannot tolerate node failures (single copy), but in failure-free runs
// its unicast reads beat QR's multicast quorum reads -- the ordering the
// paper reports (HyFlow > QR-DTM > Decent-STM).
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

/// Control-flow exception: abort and retry.  `scope` identifies the
/// innermost closed-nested scope that must retry under N-TFA (0 = the whole
/// transaction; scopes are 1-based stack indices).
struct TfaAbort {
  std::string reason;
  std::size_t scope = 0;
};

class TfaNode;
class TfaCluster;
class TfaTxn;

using TfaBody = std::function<sim::Task<void>(TfaTxn&)>;

/// Client-side transaction context.  With TfaConfig::closed_nesting the
/// context implements N-TFA (Turcu, Ravindran & Saad: "On closed nesting in
/// distributed transactional memory"): `nested` opens a closed-nested
/// scope whose read/write sets merge into the parent on success and retry
/// alone when forwarding validation pins the conflict on them.
class TfaTxn {
 public:
  sim::Task<Bytes> read(ObjectId id);
  sim::Task<Bytes> read_for_write(ObjectId id);  // read + intend to write
  void write(ObjectId id, Bytes data);

  /// Closed-nested scope under N-TFA; inlined when closed nesting is off
  /// (flat TFA ignores inner transactions).
  sim::Task<void> nested(TfaBody body);

  TxnId id() const { return id_; }
  std::uint64_t clock() const { return clock_; }
  std::size_t depth() const { return scopes_.size(); }

 private:
  friend class TfaCluster;
  TfaTxn(TfaCluster& cluster, net::NodeId node, TxnId id,
         std::uint64_t start_clock);

  /// Transaction forwarding (the algorithm's namesake): revalidate every
  /// scope's read-set at the owners and advance the clock, or abort the
  /// outermost scope owning an invalid entry.
  sim::Task<void> forward(std::uint64_t to_clock);

  struct ReadEntry {
    Version version;
    Bytes data;
  };
  struct WriteEntry {
    Version base;
    Bytes data;
    bool dirty = false;
  };
  /// One nesting level: scopes_[0] is the root; nested() pushes deeper
  /// levels and merges them down on success.
  struct Scope {
    std::map<ObjectId, ReadEntry> readset;
    std::map<ObjectId, WriteEntry> writeset;
  };

  const ReadEntry* find_read(ObjectId id) const;
  const WriteEntry* find_write(ObjectId id) const;
  Scope& top() { return scopes_.back(); }
  /// Union views used at commit (after merges only the root scope remains).
  const std::map<ObjectId, ReadEntry>& root_readset() const {
    return scopes_.front().readset;
  }
  const std::map<ObjectId, WriteEntry>& root_writeset() const {
    return scopes_.front().writeset;
  }

  TfaCluster& cluster_;
  net::NodeId node_;
  TxnId id_;
  std::uint64_t clock_;
  std::vector<Scope> scopes_;
};

struct TfaConfig {
  std::uint32_t num_nodes = 13;
  std::uint64_t seed = 1;
  // The network (2 ms unicast links) and the RPC timeout are fixed
  // constants in tfa.cpp; root-abort backoff is core/backoff.h's.
  /// N-TFA: closed-nested scopes with partial abort (off = flat TFA, the
  /// HyFlow baseline the paper compares against).
  bool closed_nesting = false;
  /// Coordinator-liveness lease on home-node locks: a lock outstanding this
  /// long is presumed orphaned (its coordinator died between lock and
  /// writeback/unlock) and is shed on the next conflicting request.  Far
  /// above any legitimate lock->writeback gap, so failure-free runs never
  /// trip it.  0 disables shedding.
  sim::Tick lock_lease = sim::sec(5);
};

/// One simulated TFA deployment (simulator + network + home nodes).
class TfaCluster {
 public:
  explicit TfaCluster(TfaConfig cfg);
  ~TfaCluster();

  TfaCluster(const TfaCluster&) = delete;
  TfaCluster& operator=(const TfaCluster&) = delete;

  /// Install an object at its home node (setup only).
  ObjectId seed_new_object(const Bytes& data);

  void spawn_client(net::NodeId node, TfaBody body);
  using BodyFactory = std::function<TfaBody(Rng&)>;
  void spawn_loop_client(net::NodeId node, BodyFactory factory);

  /// Run one transaction, giving up after `max_attempts` aborts (0 =
  /// unlimited).  Returns true on commit.  Chaos runs still want the bound:
  /// a lock orphaned by a dropped response is only shed after
  /// TfaConfig::lock_lease, and a victim stuck behind it would otherwise
  /// spin in retries for the whole lease window.
  sim::Task<bool> run_transaction_bounded(net::NodeId node, TfaBody body,
                                          std::uint32_t max_attempts);

  /// Record commits/aborts into `rec` (nullptr = off); attach before
  /// seeding.
  void set_history_recorder(core::HistoryRecorder* rec) { recorder_ = rec; }

  void run_for(sim::Tick duration);
  void run_to_completion();

  core::Metrics& metrics() { return metrics_; }
  /// Cluster-wide latency histograms (commit latency, backoff waits, retry
  /// gaps -- TFA reads are unicast, so read_rtt stays empty).
  const core::LatencyMetrics& latency() const { return latency_; }
  net::Network& network() { return *net_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Tick duration() const { return sim_.now(); }
  std::uint32_t num_nodes() const { return cfg_.num_nodes; }
  net::NodeId home_of(ObjectId id) const;

  /// True while `id`'s home node holds a transaction lock on it (test
  /// observability for the lease-shedding path).
  bool object_locked(ObjectId id) const;
  /// Total locks shed by the coordinator-liveness lease, across all nodes.
  std::uint64_t lock_lease_breaks() const;

 private:
  friend class TfaTxn;

  sim::Task<void> run_transaction(net::NodeId node, TfaBody body);
  sim::Task<bool> try_commit(TfaTxn& txn);
  void record_commit_history(const TfaTxn& txn, Version commit_ts);

  TfaConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<net::RpcEndpoint>> endpoints_;
  std::vector<std::unique_ptr<TfaNode>> nodes_;
  core::Metrics metrics_;
  core::LatencyMetrics latency_;
  core::HistoryRecorder* recorder_ = nullptr;
  Rng rng_;
  TxnId next_txn_id_ = 1;
  ObjectId next_object_id_ = 1;
};

}  // namespace qrdtm::baselines
