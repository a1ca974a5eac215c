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
#include <memory>
#include <vector>

#include "baselines/baseline.h"

namespace qrdtm::baselines {

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
  ReadSet readset_;
  WriteSet writeset_;
};

using DecentBody = std::function<sim::Task<void>(DecentTxn&)>;

struct DecentConfig : BaselineConfig {
  std::uint32_t replication = 3;
  // The version-history depth and the (12 ms multicast-class) links are
  // fixed constants in decent.cpp.
  /// Snapshot-algorithm bookkeeping charged per remote operation.
  sim::Tick snapshot_compute = sim::msec(15);
};

/// One simulated DecentSTM deployment: the baseline shell plus one replica
/// server per node.
class DecentCluster final : public BaselineCluster<DecentTxn> {
 public:
  using Config = DecentConfig;

  explicit DecentCluster(DecentConfig cfg);
  ~DecentCluster() override;

  /// Replica group of an object (first member is the read primary).
  std::vector<net::NodeId> replicas_of(ObjectId id) const;

  /// True while any replica of `id` holds a transaction lock on it (test
  /// observability for the lease-shedding path).
  bool object_locked(ObjectId id) const;

 private:
  friend class DecentTxn;

  DecentTxn begin(net::NodeId node, TxnId id) override;
  sim::Task<bool> try_commit(DecentTxn& txn) override;
  void place(ObjectId id, const Bytes& data) override;

  DecentConfig cfg_;
  std::vector<std::unique_ptr<DecentNode>> nodes_;
  std::uint64_t clock_ = 1;  // global timestamp source for commit ids
};

}  // namespace qrdtm::baselines
