#include "baselines/baseline.h"

#include "baselines/decent.h"
#include "baselines/tfa.h"
#include "core/backoff.h"
#include "core/history.h"
#include "net/latency.h"

namespace qrdtm::baselines {

namespace {
/// Per-message service time at the receiving node.
constexpr sim::Tick kServiceTime = sim::usec(60);
}  // namespace

template <class TxnT>
BaselineCluster<TxnT>::BaselineCluster(const BaselineConfig& cfg,
                                       sim::Tick link_latency,
                                       sim::Tick link_jitter)
    : rng_(cfg.seed) {
  net_ = std::make_unique<net::Network>(
      sim_, std::make_unique<net::UniformLatency>(link_latency, link_jitter),
      rng_.next(), kServiceTime);
  for (std::uint32_t i = 0; i < cfg.num_nodes; ++i) {
    endpoints_.push_back(std::make_unique<net::RpcEndpoint>(sim_, *net_));
  }
}

template <class TxnT>
BaselineCluster<TxnT>::~BaselineCluster() = default;

template <class TxnT>
ObjectId BaselineCluster<TxnT>::seed_new_object(const Bytes& data) {
  ObjectId id = next_object_id_++;
  place(id, data);
  if (recorder_ != nullptr) recorder_->record_seed(id, 1, data);
  return id;
}

template <class TxnT>
void BaselineCluster<TxnT>::record_commit(TxnId txn, net::NodeId node,
                                          Version snapshot,
                                          const ReadSet& reads,
                                          const WriteSet& writes,
                                          Version installed) {
  if (recorder_ == nullptr) return;
  core::CommittedTxn rec;
  rec.txn = txn;
  rec.node = node;
  rec.commit_tick = sim_.now();
  rec.snapshot = snapshot;
  for (const auto& [id, entry] : reads) {
    if (writes.contains(id)) continue;
    rec.reads.push_back(core::HistoryRead{id, entry.version});
  }
  for (const auto& [id, entry] : writes) {
    rec.writes.push_back(
        core::HistoryWrite{id, entry.base, installed, entry.data});
  }
  recorder_->record_commit(std::move(rec));
}

template <class TxnT>
sim::Task<void> BaselineCluster<TxnT>::run_transaction(net::NodeId node,
                                                       Body body) {
  co_await run_transaction_bounded(node, std::move(body), 0);
}

template <class TxnT>
sim::Task<bool> BaselineCluster<TxnT>::run_transaction_bounded(
    net::NodeId node, Body body, std::uint32_t max_attempts) {
  const sim::Tick txn_start = sim_.now();
  std::uint32_t attempt = 0;
  for (;;) {
    const TxnId id = next_txn_id_++;
    Txn txn = begin(node, id);
    std::string reason = "commit validation failed";
    try {
      co_await body(txn);
      ++metrics_.commit_requests;
      if (co_await try_commit(txn)) {
        ++metrics_.commits;
        latency_.commit_latency.record(sim_.now() - txn_start);
        co_return true;
      }
    } catch (const BaselineAbort& a) {
      reason = a.reason;
    }
    ++metrics_.root_aborts;
    if (recorder_ != nullptr) {
      recorder_->record_abort(sim_.now(), node, id, std::move(reason));
    }
    ++attempt;
    if (max_attempts != 0 && attempt >= max_attempts) co_return false;
    const sim::Tick abort_tick = sim_.now();
    const sim::Tick wait = core::draw_backoff_wait(
        core::kRootBackoffBase, core::kRootBackoffCap, attempt, rng_);
    latency_.backoff_wait.record(wait);
    if (wait > 0) co_await sim_.delay(wait);
    latency_.retry_gap.record(sim_.now() - abort_tick);
  }
}

template <class TxnT>
void BaselineCluster<TxnT>::spawn_client(net::NodeId node, Body body) {
  sim_.spawn(run_transaction(node, std::move(body)));
}

template <class TxnT>
void BaselineCluster<TxnT>::spawn_loop_client(net::NodeId node,
                                              BodyFactory factory) {
  auto loop = [](BaselineCluster* self, net::NodeId n,
                 BodyFactory f) -> sim::Task<void> {
    Rng rng = self->rng_.split(n + 1);
    while (!self->sim_.stopping()) {
      co_await self->run_transaction(n, f(rng));
    }
  };
  sim_.spawn(loop(this, node, std::move(factory)));
}

template <class TxnT>
void BaselineCluster<TxnT>::run_for(sim::Tick duration) {
  sim_.run_until(sim_.now() + duration);
}

template <class TxnT>
void BaselineCluster<TxnT>::run_to_completion() {
  sim_.run();
}

template class BaselineCluster<TfaTxn>;
template class BaselineCluster<DecentTxn>;

}  // namespace qrdtm::baselines
