#include "baselines/tfa.h"

#include <algorithm>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::baselines {

namespace {

constexpr net::MsgKind kTfaRead = 0x0201;
constexpr net::MsgKind kTfaValidate = 0x0202;
constexpr net::MsgKind kTfaLock = 0x0203;
constexpr net::MsgKind kTfaUnlock = 0x0204;     // one-way
constexpr net::MsgKind kTfaWriteback = 0x0205;  // one-way

/// Unicast one-way link latency (HyFlow's remote requests averaged ~5 ms
/// round trip on the paper's testbed).
constexpr sim::Tick kLinkLatency = sim::msec(2);
constexpr sim::Tick kLinkJitter = sim::msec(1);

struct ObjectState {
  Version version = 0;
  Bytes data;
  TxnId locked_by = 0;
  sim::Tick locked_at = 0;
};

}  // namespace

/// Home-node server: owns the single authoritative copy of its objects and
/// the node's TFA clock.
///
/// Locks carry a coordinator-liveness lease: a lock held longer than
/// BaselineConfig::lock_lease means the coordinator died mid-commit (its
/// unlock or writeback never arrived), so the home node sheds it on the next
/// conflicting lock/validate instead of leaving the object unwritable
/// forever.  A writeback whose transaction no longer holds the lock is
/// dropped -- the lease already presumed that coordinator dead, and
/// applying its write over a successor's could roll the version backwards.
class TfaNode {
 public:
  TfaNode(net::RpcEndpoint& rpc, sim::Tick lock_lease, core::Metrics& metrics)
      : sim_(rpc.simulator()), lock_lease_(lock_lease), metrics_(metrics) {
    rpc.register_service(kTfaRead, [this](net::NodeId, const Bytes& b) {
      return handle_read(b);
    });
    rpc.register_service(kTfaValidate, [this](net::NodeId, const Bytes& b) {
      return handle_validate(b);
    });
    rpc.register_service(kTfaLock, [this](net::NodeId, const Bytes& b) {
      return handle_lock(b);
    });
    rpc.register_service(
        kTfaUnlock, [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
          handle_unlock(b);
          return std::nullopt;
        });
    rpc.register_service(
        kTfaWriteback,
        [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
          handle_writeback(b);
          return std::nullopt;
        });
  }

  void seed(ObjectId id, const Bytes& data) {
    objects_[id] = ObjectState{1, data, 0, 0};
  }

  std::uint64_t clock() const { return clock_; }
  void advance_clock(std::uint64_t to) { clock_ = std::max(clock_, to); }

  bool locked(ObjectId id) const {
    auto it = objects_.find(id);
    return it != objects_.end() && it->second.locked_by != 0;
  }

 private:
  /// Shed a lock whose holder's commit is overdue by the whole lease.
  void shed_stale_lock(ObjectState& s) {
    if (lock_lease_ == 0 || s.locked_by == 0) return;
    if (sim_.now() < s.locked_at + lock_lease_) return;
    s.locked_by = 0;
    ++metrics_.lease_breaks;
  }

  std::optional<Bytes> handle_read(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    Writer w;
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      w.boolean(false);
      w.u64(0);
      w.blob({});
    } else {
      w.boolean(true);
      w.u64(it->second.version);
      w.blob(it->second.data);
    }
    w.u64(clock_);
    return std::move(w).take();
  }

  std::optional<Bytes> handle_validate(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    Version version = r.u64();
    TxnId txn = r.u64();
    bool ok = false;
    auto it = objects_.find(id);
    if (it != objects_.end()) {
      shed_stale_lock(it->second);
      ok = it->second.version == version &&
           (it->second.locked_by == 0 || it->second.locked_by == txn);
    }
    Writer w;
    w.boolean(ok);
    return std::move(w).take();
  }

  std::optional<Bytes> handle_lock(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    Version base = r.u64();
    TxnId txn = r.u64();
    bool ok = false;
    auto it = objects_.find(id);
    if (it != objects_.end()) shed_stale_lock(it->second);
    if (it == objects_.end() && base == 0) {
      // First write to a transaction-created object: claim it.
      objects_[id] = ObjectState{0, {}, txn, sim_.now()};
      ok = true;
    } else if (it != objects_.end() && it->second.version == base &&
               (it->second.locked_by == 0 || it->second.locked_by == txn)) {
      it->second.locked_by = txn;
      it->second.locked_at = sim_.now();
      ok = true;
    }
    Writer w;
    w.boolean(ok);
    return std::move(w).take();
  }

  void handle_unlock(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    TxnId txn = r.u64();
    auto it = objects_.find(id);
    if (it != objects_.end() && it->second.locked_by == txn) {
      it->second.locked_by = 0;
    }
  }

  void handle_writeback(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    Version version = r.u64();
    Bytes data = r.blob();
    TxnId txn = r.u64();
    ObjectState& s = objects_[id];
    if (s.locked_by != txn) {
      // The lease shed this writer's lock (and possibly granted it to a
      // successor): its writeback is stale and must not clobber state it
      // no longer owns.
      return;
    }
    s.version = version;
    s.data = std::move(data);
    s.locked_by = 0;
    clock_ = std::max(clock_, version);
  }

  sim::Simulator& sim_;
  sim::Tick lock_lease_;
  core::Metrics& metrics_;
  std::uint64_t clock_ = 0;
  std::map<ObjectId, ObjectState> objects_;
};

// --------------------------------------------------------------- TfaTxn

TfaTxn::TfaTxn(TfaCluster& cluster, net::NodeId node, TxnId id,
               std::uint64_t start_clock)
    : cluster_(cluster), node_(node), id_(id), clock_(start_clock) {
  scopes_.emplace_back();  // the root scope
}

const ReadEntry* TfaTxn::find_read(ObjectId id) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    if (auto e = it->readset.find(id); e != it->readset.end()) {
      return &e->second;
    }
  }
  return nullptr;
}

const WriteEntry* TfaTxn::find_write(ObjectId id) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    if (auto e = it->writeset.find(id); e != it->writeset.end()) {
      return &e->second;
    }
  }
  return nullptr;
}

sim::Task<void> TfaTxn::forward(std::uint64_t to_clock) {
  // Revalidate every scope's read-set at the owners; all intact -> jump the
  // transaction clock forward.  Under N-TFA a failure aborts the OUTERMOST
  // scope owning an invalid entry (everything since its start is discarded,
  // like abortClosed in QR-CN).
  auto& c = cluster_;
  std::size_t outermost_invalid = scopes_.size();  // sentinel: none
  for (std::size_t si = 0; si < scopes_.size(); ++si) {
    for (const auto& [id, entry] : scopes_[si].readset) {
      Writer w;
      w.u64(id);
      w.u64(entry.version);
      w.u64(id_);
      ++c.metrics_.read_messages;
      auto res = co_await c.endpoints_[node_]->call(
          c.home_of(id), kTfaValidate, std::move(w).take(), kRpcTimeout);
      bool ok = false;
      if (res.ok) {
        Reader r(res.payload);
        ok = r.boolean();
      }
      if (!ok) {
        ++c.metrics_.validation_failures;
        outermost_invalid = std::min(outermost_invalid, si);
        break;  // this scope is doomed; no need to validate more of it
      }
    }
    if (outermost_invalid == 0) break;  // whole transaction doomed
  }
  if (outermost_invalid < scopes_.size()) {
    throw BaselineAbort{"forwarding validation failed", outermost_invalid};
  }
  clock_ = std::max(clock_, to_clock);
}

sim::Task<Bytes> TfaTxn::read(ObjectId id) {
  auto& c = cluster_;
  if (const WriteEntry* we = find_write(id)) {
    ++c.metrics_.local_read_hits;
    co_return we->data;
  }
  if (const ReadEntry* re = find_read(id)) {
    ++c.metrics_.local_read_hits;
    co_return re->data;
  }
  Writer w;
  w.u64(id);
  ++c.metrics_.remote_reads;
  ++c.metrics_.read_messages;
  auto res = co_await c.endpoints_[node_]->call(
      c.home_of(id), kTfaRead, std::move(w).take(), kRpcTimeout);
  if (!res.ok) throw BaselineAbort{"read timeout", scopes_.size() - 1};
  Reader r(res.payload);
  bool found = r.boolean();
  Version version = r.u64();
  Bytes data = r.blob();
  std::uint64_t home_clock = r.u64();
  if (!found) throw BaselineAbort{"object missing", 0};

  if (home_clock > clock_) {
    co_await forward(home_clock);
  }
  top().readset[id] = ReadEntry{version, data};
  co_return data;
}

sim::Task<Bytes> TfaTxn::read_for_write(ObjectId id) {
  Bytes data = co_await read(id);
  // Copy-on-write into the current scope: an aborted scope must be able to
  // discard its buffered writes without touching ancestors.
  if (auto it = top().writeset.find(id); it == top().writeset.end()) {
    Version base;
    if (const WriteEntry* ancestor = find_write(id)) {
      base = ancestor->base;  // keep the original acquisition base
    } else {
      const ReadEntry* re = find_read(id);
      QRDTM_CHECK(re != nullptr);
      base = re->version;
    }
    top().writeset[id] = WriteEntry{base, data};
  }
  co_return data;
}

void TfaTxn::write(ObjectId id, Bytes data) {
  auto it = top().writeset.find(id);
  QRDTM_CHECK_MSG(it != top().writeset.end(),
                  "write() requires read_for_write() first (in this scope)");
  it->second.data = std::move(data);
}

sim::Task<void> TfaTxn::nested(TfaBody body) {
  if (!cluster_.cfg_.closed_nesting) {
    co_await body(*this);  // flat TFA ignores inner transactions
    co_return;
  }
  const std::size_t my_index = scopes_.size();
  for (;;) {
    scopes_.emplace_back();
    bool retry = false;
    bool propagate = false;
    BaselineAbort saved;
    try {
      co_await body(*this);
    } catch (BaselineAbort& a) {
      scopes_.pop_back();  // discard this scope's sets
      if (a.scope == my_index) {
        retry = true;
      } else {
        saved = a;
        propagate = true;
      }
    }
    if (propagate) throw saved;
    if (retry) {
      ++cluster_.metrics_.ct_aborts;
      continue;
    }
    // commitCT: merge this scope into its parent (purely local).
    Scope child = std::move(scopes_.back());
    scopes_.pop_back();
    Scope& parent = scopes_.back();
    for (auto& [id, e] : child.readset) parent.readset[id] = std::move(e);
    for (auto& [id, e] : child.writeset) parent.writeset[id] = std::move(e);
    co_return;
  }
}

// ------------------------------------------------------------ TfaCluster

TfaCluster::TfaCluster(TfaConfig cfg)
    : BaselineCluster(cfg, kLinkLatency, kLinkJitter), cfg_(cfg) {
  for (auto& rpc : endpoints_) {
    nodes_.push_back(
        std::make_unique<TfaNode>(*rpc, cfg_.lock_lease, metrics_));
  }
}

TfaCluster::~TfaCluster() = default;

bool TfaCluster::object_locked(ObjectId id) const {
  return nodes_[home_of(id)]->locked(id);
}

net::NodeId TfaCluster::home_of(ObjectId id) const {
  return static_cast<net::NodeId>((id * 0x9e3779b97f4a7c15ULL >> 32) %
                                  cfg_.num_nodes);
}

void TfaCluster::place(ObjectId id, const Bytes& data) {
  nodes_[home_of(id)]->seed(id, data);
}

TfaTxn TfaCluster::begin(net::NodeId node, TxnId id) {
  return TfaTxn(*this, node, id, nodes_[node]->clock());
}

sim::Task<bool> TfaCluster::try_commit(TfaTxn& txn) {
  QRDTM_CHECK_MSG(txn.scopes_.size() == 1,
                  "commit with unmerged nested scopes");
  const auto& readset = txn.root_readset();
  const auto& writeset = txn.root_writeset();
  if (writeset.empty()) {
    // Read-only: every read was (re)validated at its forwarding points;
    // commit needs no communication.
    ++metrics_.local_commits;
    record_commit(txn.id_, txn.node_, 0, readset, writeset, 0);
    co_return true;
  }
  auto* rpc = endpoints_[txn.node_].get();
  // Lock phase, in id order (global order prevents lock-order deadlock).
  std::vector<ObjectId> locked;
  bool ok = true;
  for (const auto& [id, entry] : writeset) {
    Writer w;
    w.u64(id);
    w.u64(entry.base);
    w.u64(txn.id_);
    ++metrics_.commit_messages;
    auto res = co_await rpc->call(home_of(id), kTfaLock, std::move(w).take(),
                                  kRpcTimeout);
    if (!res.ok) {
      ok = false;
      break;
    }
    Reader r(res.payload);
    if (!r.boolean()) {
      ok = false;
      break;
    }
    locked.push_back(id);
  }
  // Read-set validation (entries not being written).
  if (ok) {
    for (const auto& [id, entry] : readset) {
      if (writeset.contains(id)) continue;
      Writer w;
      w.u64(id);
      w.u64(entry.version);
      w.u64(txn.id_);
      ++metrics_.commit_messages;
      auto res = co_await rpc->call(home_of(id), kTfaValidate,
                                    std::move(w).take(), kRpcTimeout);
      if (!res.ok) {
        ok = false;
        break;
      }
      Reader r(res.payload);
      if (!r.boolean()) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    for (ObjectId id : locked) {
      Writer w;
      w.u64(id);
      w.u64(txn.id_);
      ++metrics_.commit_messages;
      rpc->notify(home_of(id), kTfaUnlock, std::move(w).take());
    }
    ++metrics_.vote_aborts;
    co_return false;
  }
  // Write-back with a fresh timestamp.  The timestamp must exceed every
  // written object's base version, or a later reader could match the old
  // version number against new data (ABA lost update).
  std::uint64_t commit_ts = txn.clock_;
  for (const auto& [id, entry] : writeset) {
    commit_ts = std::max(commit_ts, static_cast<std::uint64_t>(entry.base));
  }
  ++commit_ts;
  for (const auto& [id, entry] : writeset) {
    Writer w;
    w.u64(id);
    w.u64(commit_ts);
    w.blob(entry.data);
    w.u64(txn.id_);
    ++metrics_.commit_messages;
    rpc->notify(home_of(id), kTfaWriteback, std::move(w).take());
  }
  nodes_[txn.node_]->advance_clock(commit_ts);
  // TFA is checked at the serializable level: no snapshot pin.
  record_commit(txn.id_, txn.node_, 0, readset, writeset, commit_ts);
  co_return true;
}

}  // namespace qrdtm::baselines
