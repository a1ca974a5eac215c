#include "baselines/decent.h"

#include <algorithm>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::baselines {

namespace {

constexpr net::MsgKind kDecentRead = 0x0301;
constexpr net::MsgKind kDecentVote = 0x0302;
constexpr net::MsgKind kDecentApply = 0x0303;  // one-way

/// Committed versions each replica keeps per object.
constexpr std::size_t kHistoryDepth = 8;
/// DecentSTM is a replicated DTM: like QR-DTM it pays multicast-class
/// group-communication latency (the paper's ~5 ms unicast advantage is
/// HyFlow's single-copy model only).
constexpr sim::Tick kLinkLatency = sim::msec(12);
constexpr sim::Tick kLinkJitter = sim::msec(5);

}  // namespace

/// Replica node: version histories for the objects it replicates.
///
/// Write locks carry a coordinator-liveness lease: a lock held longer than
/// BaselineConfig::lock_lease means the coordinator died between vote and
/// apply, so the replica sheds it on the next conflicting vote instead of
/// leaving the object unwritable forever.  A commit-apply whose transaction
/// no longer holds the lock is dropped -- the lease already presumed that
/// coordinator dead, and appending its version behind a successor's would
/// break the history's timestamp order.
class DecentNode {
 public:
  DecentNode(net::RpcEndpoint& rpc, sim::Tick lock_lease,
             core::Metrics& metrics)
      : sim_(rpc.simulator()), lock_lease_(lock_lease), metrics_(metrics) {
    rpc.register_service(kDecentRead, [this](net::NodeId, const Bytes& b) {
      return handle_read(b);
    });
    rpc.register_service(kDecentVote, [this](net::NodeId, const Bytes& b) {
      return handle_vote(b);
    });
    rpc.register_service(
        kDecentApply,
        [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
          handle_apply(b);
          return std::nullopt;
        });
  }

  void seed(ObjectId id, const Bytes& data) {
    objects_[id].versions = {{1, data}};
    clock_ = std::max<Version>(clock_, 1);
  }

  bool locked(ObjectId id) const {
    auto it = objects_.find(id);
    return it != objects_.end() && it->second.locked_by != 0;
  }

 private:
  struct Entry {
    std::vector<std::pair<Version, Bytes>> versions;  // ascending by ts
    TxnId locked_by = 0;
    sim::Tick locked_at = 0;
  };

  /// Shed a lock whose holder's apply is overdue by the whole lease.
  void shed_stale_lock(Entry& e) {
    if (lock_lease_ == 0 || e.locked_by == 0) return;
    if (sim_.now() < e.locked_at + lock_lease_) return;
    e.locked_by = 0;
    ++metrics_.lease_breaks;
  }

  std::optional<Bytes> handle_read(const Bytes& b) {
    Reader r(b);
    ObjectId id = r.u64();
    std::uint64_t snapshot = r.u64();  // 0 = not yet pinned: serve newest

    Writer w;
    auto it = objects_.find(id);
    bool served = false;
    if (it != objects_.end() && !it->second.versions.empty()) {
      const auto& vs = it->second.versions;
      // Newest version with ts <= snapshot (or the newest overall when the
      // snapshot is unpinned).  A pruned history may no longer cover an old
      // snapshot: that is the "snapshot too old" abort.
      for (std::size_t i = vs.size(); i-- > 0;) {
        if (snapshot != 0 && vs[i].first > snapshot) continue;
        w.boolean(true);
        w.u64(vs[i].first);
        w.blob(vs[i].second);
        served = true;
        break;
      }
    }
    if (!served) {
      w.boolean(false);
      w.u64(0);
      w.blob({});
    }
    // The replica's clock (newest commit timestamp it has applied): the
    // first read pins the transaction snapshot to this, so later reads'
    // histories always reach down to it.
    w.u64(clock_);
    return std::move(w).take();
  }

  std::optional<Bytes> handle_vote(const Bytes& b) {
    Reader r(b);
    TxnId txn = r.u64();
    ObjectId id = r.u64();
    Version base = r.u64();
    Entry& e = objects_[id];
    shed_stale_lock(e);
    const Version newest = e.versions.empty() ? 0 : e.versions.back().first;
    // First-committer-wins: a newer committed version (or a competing lock)
    // kills the update.
    bool ok = newest <= base && (e.locked_by == 0 || e.locked_by == txn);
    if (ok) {
      e.locked_by = txn;
      e.locked_at = sim_.now();
    }
    Writer w;
    w.boolean(ok);
    return std::move(w).take();
  }

  void handle_apply(const Bytes& b) {
    Reader r(b);
    TxnId txn = r.u64();
    ObjectId id = r.u64();
    bool commit = r.boolean();
    Version ts = r.u64();
    Bytes data = r.blob();
    auto it = objects_.find(id);
    if (it == objects_.end()) return;
    Entry& e = it->second;
    if (commit && e.locked_by != txn) {
      // The lease shed this writer's lock (and possibly granted it to a
      // successor): appending its version now could land behind a newer
      // timestamp and corrupt the history's ordering invariant.
      return;
    }
    if (e.locked_by == txn) e.locked_by = 0;
    if (commit) {
      e.versions.emplace_back(ts, std::move(data));
      clock_ = std::max<Version>(clock_, ts);
      if (e.versions.size() > kHistoryDepth) {
        e.versions.erase(e.versions.begin());
      }
    }
  }

  sim::Simulator& sim_;
  sim::Tick lock_lease_;
  core::Metrics& metrics_;
  Version clock_ = 0;  // newest commit timestamp applied here
  std::map<ObjectId, Entry> objects_;
};

// ------------------------------------------------------------- DecentTxn

sim::Task<Bytes> DecentTxn::read_version(ObjectId id, std::uint64_t snapshot,
                                         bool pin) {
  auto& c = cluster_;
  if (auto it = writeset_.find(id); it != writeset_.end()) {
    ++c.metrics_.local_read_hits;
    co_return it->second.data;
  }
  if (auto it = readset_.find(id); it != readset_.end()) {
    ++c.metrics_.local_read_hits;
    co_return it->second.data;
  }
  Writer w;
  w.u64(id);
  w.u64(snapshot);
  ++c.metrics_.remote_reads;
  // Fault-tolerant decentralized read: gather from the whole replica group
  // and take the newest fitting version (replicas can lag behind).
  const auto replicas = c.replicas_of(id);
  c.metrics_.read_messages += replicas.size();
  std::vector<sim::Future<net::RpcResult>> futures;
  c.endpoints_[node_]->multicast(replicas, kDecentRead, w.bytes(), kRpcTimeout,
                                 &futures);
  bool found = false;
  Version ts = 0;
  Bytes data;
  Version max_clock = 0;
  for (auto& f : futures) {
    auto res = co_await f;
    if (!res.ok) continue;
    Reader r(res.payload);
    bool has = r.boolean();
    Version vts = r.u64();
    Bytes vdata = r.blob();
    max_clock = std::max(max_clock, static_cast<Version>(r.u64()));
    if (!has) continue;
    if (!found || vts > ts) {
      found = true;
      ts = vts;
      data = std::move(vdata);
    }
  }
  if (!found) {
    // No live replica's history covers the snapshot point.
    ++c.metrics_.validation_failures;
    throw BaselineAbort{"snapshot too old for history"};
  }
  // Snapshot-merge bookkeeping (see DecentConfig::snapshot_compute).
  if (c.cfg_.snapshot_compute > 0) {
    co_await c.sim_.delay(c.cfg_.snapshot_compute);
  }
  if (pin && snapshot_ == 0) {
    // Pin the snapshot to the freshest replica clock observed, not the
    // object's own version: a cold object's old version would otherwise
    // pin a point below hot objects' pruned histories ("snapshot too old"
    // livelock).
    snapshot_ = std::max<std::uint64_t>(ts, max_clock);
  }
  readset_[id] = ReadEntry{ts, data};
  co_return data;
}

sim::Task<Bytes> DecentTxn::read(ObjectId id) {
  co_return co_await read_version(id, snapshot_, /*pin=*/true);
}

sim::Task<Bytes> DecentTxn::read_for_write(ObjectId id) {
  // Write intents fetch the *latest* committed version: first-committer-wins
  // validation compares the base against the newest version, so reading an
  // old snapshot version would doom the update (commit-time-locking STMs,
  // DecentSTM included, acquire the freshest copy for writes).
  Bytes data = co_await read_version(id, /*snapshot=*/0, /*pin=*/false);
  writeset_[id] = WriteEntry{readset_.at(id).version, data};
  co_return data;
}

void DecentTxn::write(ObjectId id, Bytes data) {
  auto it = writeset_.find(id);
  QRDTM_CHECK_MSG(it != writeset_.end(),
                  "write() requires read_for_write() first");
  it->second.data = std::move(data);
}

// --------------------------------------------------------- DecentCluster

DecentCluster::DecentCluster(DecentConfig cfg)
    : BaselineCluster(cfg, kLinkLatency, kLinkJitter), cfg_(cfg) {
  QRDTM_CHECK(cfg_.replication >= 1 && cfg_.replication <= cfg_.num_nodes);
  for (auto& rpc : endpoints_) {
    nodes_.push_back(
        std::make_unique<DecentNode>(*rpc, cfg_.lock_lease, metrics_));
  }
}

DecentCluster::~DecentCluster() = default;

bool DecentCluster::object_locked(ObjectId id) const {
  for (net::NodeId rep : replicas_of(id)) {
    if (nodes_[rep]->locked(id)) return true;
  }
  return false;
}

std::vector<net::NodeId> DecentCluster::replicas_of(ObjectId id) const {
  std::vector<net::NodeId> out;
  std::uint64_t h = id * 0x9e3779b97f4a7c15ULL;
  const net::NodeId first =
      static_cast<net::NodeId>((h >> 32) % cfg_.num_nodes);
  for (std::uint32_t i = 0; i < cfg_.replication; ++i) {
    out.push_back((first + i) % cfg_.num_nodes);
  }
  return out;
}

void DecentCluster::place(ObjectId id, const Bytes& data) {
  for (net::NodeId n : replicas_of(id)) {
    nodes_[n]->seed(id, data);
  }
}

DecentTxn DecentCluster::begin(net::NodeId node, TxnId id) {
  return DecentTxn(*this, node, id);
}

sim::Task<bool> DecentCluster::try_commit(DecentTxn& txn) {
  if (txn.writeset_.empty()) {
    // Read-only: every read was served as of the pinned snapshot point, and
    // versions valid at that point stay valid forever (commit timestamps
    // are monotone) -- the snapshot is consistent with no communication.
    ++metrics_.local_commits;
    record_commit(txn.id_, txn.node_, txn.snapshot_, txn.readset_,
                  txn.writeset_, 0);
    co_return true;
  }
  auto* rpc = endpoints_[txn.node_].get();
  // Vote round: lock every replica of every written object.
  struct Voted {
    ObjectId id;
    net::NodeId replica;
  };
  std::vector<Voted> locked;
  bool ok = true;
  Version max_base = 0;
  for (const auto& [id, entry] : txn.writeset_) {
    max_base = std::max(max_base, entry.base);
    for (net::NodeId rep : replicas_of(id)) {
      Writer w;
      w.u64(txn.id_);
      w.u64(id);
      w.u64(entry.base);
      ++metrics_.commit_messages;
      auto res = co_await rpc->call(rep, kDecentVote, std::move(w).take(),
                                    kRpcTimeout);
      bool yes = false;
      if (res.ok) {
        Reader r(res.payload);
        yes = r.boolean();
      }
      if (!yes) {
        ok = false;
        break;
      }
      locked.push_back(Voted{id, rep});
    }
    if (!ok) break;
  }
  if (cfg_.snapshot_compute > 0) {
    co_await sim_.delay(cfg_.snapshot_compute);
  }

  if (!ok) {
    for (const Voted& v : locked) {
      Writer w;
      w.u64(txn.id_);
      w.u64(v.id);
      w.boolean(false);
      w.u64(0);
      w.blob({});
      ++metrics_.commit_messages;
      rpc->notify(v.replica, kDecentApply, std::move(w).take());
    }
    ++metrics_.vote_aborts;
    co_return false;
  }

  // Apply round.  Commit timestamps come from a monotone source; real
  // DecentSTM derives them from its decentralized consensus -- a global
  // counter is the simulation shortcut (documented in DESIGN.md).
  clock_ = std::max(clock_, static_cast<std::uint64_t>(max_base)) + 1;
  const Version ts = clock_;
  for (const auto& [id, entry] : txn.writeset_) {
    for (net::NodeId rep : replicas_of(id)) {
      Writer w;
      w.u64(txn.id_);
      w.u64(id);
      w.boolean(true);
      w.u64(ts);
      w.blob(entry.data);
      ++metrics_.commit_messages;
      rpc->notify(rep, kDecentApply, std::move(w).take());
    }
  }
  // A written object's read_for_write fetched the *newest* version (it may
  // exceed the pinned snapshot); record_commit lists it with the write only.
  record_commit(txn.id_, txn.node_, txn.snapshot_, txn.readset_,
                txn.writeset_, ts);
  co_return true;
}

}  // namespace qrdtm::baselines
