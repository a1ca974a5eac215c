// Quorum providers for the QR replication protocol.
//
// QR's correctness rests on two properties (paper §II):
//   (Q1) every read quorum intersects every write quorum, and
//   (Q2) every pair of write quorums intersects.
// Q1 gives 1-copy equivalence on reads (some read-quorum member saw the last
// commit); Q2 serialises writers (the 2PC vote at the intersection node
// detects protected/newer objects).
//
// Since the sharded-cohort refactor both properties are *per cohort*: a
// deterministic CohortMap hashes every ObjectId to one of S shards, each
// shard owning its own quorum structure over a subset of nodes.  The classic
// fully-replicated providers are the degenerate single-cohort case (every
// object in cohort 0, every node a replica).
//
// Four providers are implemented:
//   * TreeQuorumProvider     -- Agrawal & El Abbadi's tree quorum protocol on
//     a logical ternary tree (the paper's configuration, Fig. 3).  A read
//     quorum is a majority of children at one level; a write quorum is a
//     majority of children at *every* level (rooted).
//   * MajorityQuorumProvider -- plain majorities, used for ablation.
//   * FlatFailureAwareProvider -- the Fig. 10 configuration: a read quorum of
//     (failures + 1) live nodes assigned round-robin per client node, with
//     the write quorum being all live nodes.
//   * ShardedQuorumProvider  -- S cohorts of `cohort_size` consecutive nodes
//     (mod n), each running an inner tree or majority provider over its
//     members; objects hash to cohorts via CohortMap.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.h"
#include "store/object.h"

namespace qrdtm::quorum {

using net::NodeId;

/// Thrown when no quorum can be formed from the live nodes.
class QuorumUnavailable : public std::runtime_error {
 public:
  explicit QuorumUnavailable(const std::string& what)
      : std::runtime_error(what) {}
};

/// Deterministic object -> shard map: a splitmix64 finalizer over the id,
/// reduced mod S.  Pure function of (id, S), so every node agrees without
/// coordination and the map survives membership changes unchanged.
class CohortMap {
 public:
  explicit CohortMap(std::uint32_t num_shards) : num_shards_(num_shards) {}

  std::uint32_t num_shards() const { return num_shards_; }

  std::uint32_t shard_of(store::ObjectId id) const {
    return static_cast<std::uint32_t>(mix(id) % num_shards_);
  }

  /// splitmix64 finalizer: avalanches sequential ids (seed_new_object hands
  /// out 1,2,3,...) so shard populations stay balanced.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  std::uint32_t num_shards_;
};

class QuorumProvider {
 public:
  virtual ~QuorumProvider() = default;

  /// The read quorum designated to transactions running on `node` for
  /// objects in `cohort`.  Single-cohort providers ignore the cohort.
  virtual std::vector<NodeId> cohort_read_quorum(NodeId node,
                                                 std::uint32_t cohort)
      const = 0;

  /// The write quorum designated to transactions running on `node` for
  /// objects in `cohort`.
  virtual std::vector<NodeId> cohort_write_quorum(NodeId node,
                                                  std::uint32_t cohort)
      const = 0;

  /// Inform the provider of a fail-stop so later quorums avoid the node.
  /// No-op for a node already reported failed.
  virtual void on_failure(NodeId dead);

  /// Re-admit a previously failed node.  Callers must only invoke this once
  /// the node has caught up (Cluster::recover_node's anti-entropy pull):
  /// re-admitting a stale replica would let a read quorum observe versions
  /// older than the last commit, breaking the Q1 argument.  No-op for a node
  /// that was never reported failed.
  virtual void on_recovery(NodeId node);

  /// Number of quorum cohorts (shards).  1 = classic full replication.
  virtual std::uint32_t num_cohorts() const { return 1; }

  /// The cohort an object's replicas live in.
  virtual std::uint32_t cohort_of(store::ObjectId) const { return 0; }

  /// Whether `node` holds a replica of `id` (i.e. is a member of the
  /// object's cohort).  Fully-replicated providers replicate everywhere.
  virtual bool replicates(NodeId, store::ObjectId) const { return true; }

  /// The cohorts `node` is a replica member of, ascending.
  virtual std::vector<std::uint32_t> node_cohorts(NodeId) const {
    return {0};
  }

  /// Object-addressed convenience wrappers over the cohort primitives.
  std::vector<NodeId> read_quorum(NodeId node, store::ObjectId id) const {
    return cohort_read_quorum(node, cohort_of(id));
  }
  std::vector<NodeId> write_quorum(NodeId node, store::ObjectId id) const {
    return cohort_write_quorum(node, cohort_of(id));
  }

  /// Monotone counter advanced whenever the live set changes.  Quorums are
  /// a pure function of the live set, so clients may cache a computed
  /// quorum for as long as generation() holds still (TxnRuntime does, keyed
  /// on (generation, cohort)).
  std::uint64_t generation() const { return generation_; }

 protected:
  /// A provider over nodes 0..num_nodes-1, all alive.
  explicit QuorumProvider(std::uint32_t num_nodes) : dead_(num_nodes, false) {}

  bool alive(NodeId v) const { return !dead_[v]; }
  /// Nodes reported failed and not yet recovered.
  std::uint32_t dead_count() const { return dead_count_; }
  /// The live nodes, ascending.
  std::vector<NodeId> live_nodes() const;

 private:
  std::vector<bool> dead_;
  std::uint32_t dead_count_ = 0;
  std::uint64_t generation_ = 0;
};

/// Logical complete d-ary tree over nodes 0..n-1 (node 0 = root, children of
/// i are d*i+1 .. d*i+d).
class TreeQuorumProvider final : public QuorumProvider {
 public:
  struct Config {
    std::uint32_t num_nodes = 13;
    std::uint32_t degree = 3;
    /// Tree level whose members form read quorums (0 = root only).  The
    /// paper's Fig. 3 example uses level 1 (majority of the root's
    /// children).
    std::uint32_t read_level = 1;
    /// If true every node gets the same quorums (the paper's experimental
    /// setting); otherwise the majority choices rotate with the node id to
    /// spread load.
    bool same_for_all = true;
  };

  explicit TreeQuorumProvider(Config cfg);

  std::vector<NodeId> cohort_read_quorum(NodeId node,
                                         std::uint32_t cohort) const override;
  std::vector<NodeId> cohort_write_quorum(NodeId node,
                                          std::uint32_t cohort) const override;

 private:
  std::vector<NodeId> children(NodeId v) const;

  /// Append a read quorum for the subtree at v to `out`: either descend to
  /// `level` below, or fall back on deeper levels when members are dead.
  /// Returns false when none can be formed; `out` then holds partial
  /// members the caller discards.
  bool read_rec(NodeId v, std::uint32_t level, std::uint64_t salt,
                std::vector<NodeId>& out) const;

  /// Append a rooted write quorum for the subtree at v to `out`; false (with
  /// partial members in `out`) when the subtree cannot form one.
  bool write_rec(NodeId v, std::uint64_t salt, std::vector<NodeId>& out) const;

  Config cfg_;
  std::uint32_t height_;
};

/// Simple majority quorums: both read and write quorums are any
/// floor(n/2)+1 live nodes; selection rotates with the node id.
class MajorityQuorumProvider final : public QuorumProvider {
 public:
  MajorityQuorumProvider(std::uint32_t num_nodes, bool same_for_all = true);

  std::vector<NodeId> cohort_read_quorum(NodeId node,
                                         std::uint32_t cohort) const override;
  std::vector<NodeId> cohort_write_quorum(NodeId node,
                                          std::uint32_t cohort) const override;

 private:
  std::vector<NodeId> pick(NodeId node, std::size_t count) const;

  std::uint32_t n_;
  bool same_for_all_;
};

/// Fig. 10 policy: |read quorum| = failures+1 live nodes (round-robin per
/// client node), write quorum = all live nodes.  Intersection is immediate
/// since every read quorum is a subset of the write quorum.
class FlatFailureAwareProvider final : public QuorumProvider {
 public:
  explicit FlatFailureAwareProvider(std::uint32_t num_nodes);

  std::vector<NodeId> cohort_read_quorum(NodeId node,
                                         std::uint32_t cohort) const override;
  std::vector<NodeId> cohort_write_quorum(NodeId node,
                                          std::uint32_t cohort) const override;
};

/// Sharded partial replication: S cohorts, cohort c owning the
/// `cohort_size` consecutive nodes (mod n) starting at c*n/S, each cohort
/// running its own inner tree or majority provider over its members.  An
/// object's replicas are exactly its cohort's members; cross-shard
/// transactions span several cohorts' write quorums through the ordinary
/// 2PC path.  Q1/Q2 hold per cohort because the inner providers guarantee
/// them over the member set.
class ShardedQuorumProvider final : public QuorumProvider {
 public:
  enum class Inner { kTree, kMajority };

  struct Config {
    std::uint32_t num_nodes = 512;
    std::uint32_t num_shards = 16;
    /// Replicas per cohort.  13 mirrors the paper's cluster; cohorts may
    /// overlap when num_shards * cohort_size > num_nodes.
    std::uint32_t cohort_size = 13;
    /// Inner trees are ternary (TreeQuorumProvider's default degree).
    Inner inner = Inner::kTree;
    std::uint32_t tree_read_level = 1;
    bool same_for_all = true;
  };

  explicit ShardedQuorumProvider(Config cfg);

  std::vector<NodeId> cohort_read_quorum(NodeId node,
                                         std::uint32_t cohort) const override;
  std::vector<NodeId> cohort_write_quorum(NodeId node,
                                          std::uint32_t cohort) const override;
  void on_failure(NodeId dead) override;
  void on_recovery(NodeId node) override;

  std::uint32_t num_cohorts() const override { return cfg_.num_shards; }
  std::uint32_t cohort_of(store::ObjectId id) const override {
    return map_.shard_of(id);
  }
  bool replicates(NodeId node, store::ObjectId id) const override {
    return member_of(node, map_.shard_of(id));
  }
  std::vector<std::uint32_t> node_cohorts(NodeId node) const override;

  /// First (global) node of cohort c's member window.
  NodeId cohort_start(std::uint32_t c) const {
    return static_cast<NodeId>(static_cast<std::uint64_t>(c) *
                               cfg_.num_nodes / cfg_.num_shards);
  }
  bool member_of(NodeId node, std::uint32_t c) const {
    const std::uint32_t off =
        (node + cfg_.num_nodes - cohort_start(c)) % cfg_.num_nodes;
    return off < cfg_.cohort_size;
  }
  const CohortMap& map() const { return map_; }
  const Config& config() const { return cfg_; }

 private:
  NodeId to_global(std::uint32_t c, NodeId local) const {
    return static_cast<NodeId>((cohort_start(c) + local) % cfg_.num_nodes);
  }
  /// The local id used to salt quorum rotation for `node` inside cohort c:
  /// its member offset when it is a member, a stable hash of the node id
  /// otherwise (non-members still get deterministic, spread-out quorums).
  NodeId local_salt(NodeId node, std::uint32_t c) const {
    const std::uint32_t off =
        (node + cfg_.num_nodes - cohort_start(c)) % cfg_.num_nodes;
    return static_cast<NodeId>(off < cfg_.cohort_size
                                   ? off
                                   : node % cfg_.cohort_size);
  }

  Config cfg_;
  CohortMap map_;
  std::vector<std::unique_ptr<QuorumProvider>> inner_;
};

/// Returns true iff the two node sets share at least one member.
bool intersects(const std::vector<NodeId>& a, const std::vector<NodeId>& b);

}  // namespace qrdtm::quorum
