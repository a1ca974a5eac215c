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
#include <memory>
#include <vector>

#include "baselines/baseline.h"

namespace qrdtm::baselines {

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

  /// One nesting level: scopes_[0] is the root; nested() pushes deeper
  /// levels and merges them down on success.
  struct Scope {
    ReadSet readset;
    WriteSet writeset;
  };

  const ReadEntry* find_read(ObjectId id) const;
  const WriteEntry* find_write(ObjectId id) const;
  Scope& top() { return scopes_.back(); }
  /// Union views used at commit (after merges only the root scope remains).
  const ReadSet& root_readset() const { return scopes_.front().readset; }
  const WriteSet& root_writeset() const { return scopes_.front().writeset; }

  TfaCluster& cluster_;
  net::NodeId node_;
  TxnId id_;
  std::uint64_t clock_;
  std::vector<Scope> scopes_;
};

struct TfaConfig : BaselineConfig {
  /// N-TFA: closed-nested scopes with partial abort (off = flat TFA, the
  /// HyFlow baseline the paper compares against).
  bool closed_nesting = false;
};

/// One simulated TFA deployment: the baseline shell plus one home-node
/// server per node.
class TfaCluster final : public BaselineCluster<TfaTxn> {
 public:
  using Config = TfaConfig;

  explicit TfaCluster(TfaConfig cfg);
  ~TfaCluster() override;

  net::NodeId home_of(ObjectId id) const;

  /// True while `id`'s home node holds a transaction lock on it (test
  /// observability for the lease-shedding path).
  bool object_locked(ObjectId id) const;

 private:
  friend class TfaTxn;

  TfaTxn begin(net::NodeId node, TxnId id) override;
  sim::Task<bool> try_commit(TfaTxn& txn) override;
  void place(ObjectId id, const Bytes& data) override;

  TfaConfig cfg_;
  std::vector<std::unique_ptr<TfaNode>> nodes_;
};

}  // namespace qrdtm::baselines
