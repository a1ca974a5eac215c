#include "core/batch.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/history.h"

namespace qrdtm::core {

BatchPlanner::BatchPlanner(TxnRuntime& rt)
    : rt_(rt), order_rng_(rt.rng().split(0x5155)) {}

sim::Future<bool> BatchPlanner::submit(TxnBody body,
                                       std::uint32_t max_attempts) {
  Pending p{std::move(body), sim::Promise<bool>(rt_.simulator()), max_attempts,
            rt_.simulator().now()};
  sim::Future<bool> fut = p.done.future();
  pending_.push_back(std::move(p));
  if (!loop_active_) {
    loop_active_ = true;
    rt_.simulator().spawn(run_loop());
  }
  return fut;
}

std::optional<BatchPlanner::Head> BatchPlanner::lookup(ObjectId id) const {
  const std::uint32_t* i = index_.find(id);
  if (i == nullptr) return std::nullopt;
  const BatchObject& bo = objects_[*i];
  return Head{bo.base + bo.steps, bo.data};
}

BatchPlanner::BatchObject& BatchPlanner::entry(ObjectId id) {
  if (const std::uint32_t* i = index_.find(id)) return objects_[*i];
  if (nobjects_ == objects_.size()) objects_.emplace_back();
  BatchObject& bo = objects_[nobjects_];
  bo.id = id;
  bo.base = 0;
  bo.steps = 0;
  bo.base_data.clear();
  bo.data.clear();
  bo.written = false;
  bo.fetched = false;
  index_[id] = static_cast<std::uint32_t>(nobjects_++);
  return bo;
}

void BatchPlanner::admit(ObjectId id, Version version,
                         std::span<const std::uint8_t> data) {
  QRDTM_CHECK_MSG(!index_.contains(id),
                  "object admitted to the batch cache twice");
  BatchObject& bo = entry(id);
  bo.base = version;
  assign_bytes(bo.base_data, data);
  assign_bytes(bo.data, data);
  bo.fetched = true;
}

void BatchPlanner::clear_cache() {
  nobjects_ = 0;
  index_.clear();
}

sim::Task<void> BatchPlanner::run_loop() {
  // Formation window: let concurrent submitters on this node join the first
  // batch.  Later batches form from whatever queued while the previous one
  // executed -- those members already waited at least a batch's worth.
  if (rt_.config().batch_window > 0) {
    co_await rt_.simulator().delay(rt_.config().batch_window);
  }
  while (!pending_.empty()) {
    const std::size_t n =
        std::min<std::size_t>(pending_.size(), rt_.config().batch_max_txns);
    std::vector<Pending> batch;
    batch.reserve(n);
    std::move(pending_.begin(),
              pending_.begin() + static_cast<std::ptrdiff_t>(n),
              std::back_inserter(batch));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(n));
    // Seeded batch order (Fisher-Yates): deterministic per run, independent
    // of the runtime's workload RNG stream.
    for (std::size_t i = batch.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(order_rng_.below(i));
      std::swap(batch[i - 1], batch[j]);
    }
    co_await run_batch(std::move(batch));
  }
  loop_active_ = false;
}

void BatchPlanner::absorb(Txn& txn, std::vector<CommittedTxn>* records) {
  // The member's sets, ids ascending: the write fold mutates the queue
  // cache, so it must run in a fixed order.
  std::vector<CommitReadEntry>& reads = round_.readset;
  std::vector<store::WriteView>& writes = round_.writeset;
  txn.log_->commit_sets(&reads, &writes);
  CommittedTxn rec;
  if (records != nullptr) {
    rec.txn = txn.scope_id_;
    rec.node = rt_.node();
    rec.reads.reserve(reads.size());
    for (const CommitReadEntry& e : reads) {
      rec.reads.push_back(HistoryRead{e.id, e.version});
    }
  }
  for (const store::WriteView& w : writes) {
    // An object first seen in a write record was created inside the batch:
    // base version 0, nothing fetched.
    BatchObject& bo = entry(w.id);
    // Sequential speculation: the member acquired the copy at the current
    // speculative head.
    QRDTM_DCHECK(w.base == bo.base + bo.steps);
    if (records != nullptr) {
      rec.writes.push_back(HistoryWrite{w.id, w.base, w.base + 1,
                                        Bytes(w.data.begin(), w.data.end())});
    }
    ++bo.steps;
    assign_bytes(bo.data, w.data);
    bo.written = true;
  }
  if (records != nullptr) records->push_back(std::move(rec));
}

void BatchPlanner::rollback_cache(std::span<const ObjectId> stale) {
  // An empty stale set means the round failed without a diagnosis (dead
  // member, syncing replica): invalidate everything.
  if (stale.empty()) {
    clear_cache();
    return;
  }
  index_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < nobjects_; ++i) {
    BatchObject& bo = objects_[i];
    if (!bo.fetched || std::binary_search(stale.begin(), stale.end(), bo.id)) {
      // Stale queues are re-fetched on next touch; created objects get
      // fresh ids when the bodies re-execute.
      continue;
    }
    bo.steps = 0;
    bo.written = false;
    assign_bytes(bo.data, bo.base_data);
    // Swapping keeps both entries' buffers for reuse.
    if (kept != i) std::swap(objects_[kept], bo);
    index_[objects_[kept].id] = static_cast<std::uint32_t>(kept);
    ++kept;
  }
  nobjects_ = kept;
}

sim::Task<bool> BatchPlanner::commit_round(TxnId batch_id) {
  CommitScratch& round = round_;
  round.readset.clear();
  round.writeset.clear();
  round.touched.clear();
  for (std::size_t i = 0; i < nobjects_; ++i) {
    const BatchObject& bo = objects_[i];
    round.touched.push_back(bo.id);
    if (bo.written) {
      round.writeset.push_back(store::WriteView{
          .id = bo.id, .base = bo.base, .steps = bo.steps, .data = bo.data});
    } else {
      round.readset.push_back(CommitReadEntry{bo.id, bo.base});
    }
  }
  const sim::Tick commit_start = rt_.simulator().now();

  // round.wq is a copy of the memoised quorum: the confirm must reach the
  // same members the request went to even if a failure regenerates the
  // cache mid-round.  round.touched holds every batch object (reads and
  // writes), so the union spans all touched cohorts.
  Abort unformable;
  bool formed = false;
  try {
    // False: unformable quorum under a zombie coordinator.
    formed = rt_.union_write_quorum(round.touched, &round.wq, &unformable);
  } catch (const quorum::QuorumUnavailable&) {
    // Live coordinator but too many members down mid-chaos: equally
    // transient.
  }
  if (!formed) {
    // Infrastructure failure: re-fetch everything on the next round, once
    // membership heals.
    round.stale.clear();
    co_return false;
  }
  const bool all_commit =
      co_await rt_.commit_vote(batch_id, round, msg::kBatchCommitRequest);

  // With no writes nothing was protected and nothing is applied: the vote
  // alone validates the read bases, so the confirm phase is skipped.
  const std::uint64_t nwrites = round.writeset.size();
  if (nwrites > 0) {
    const bool sent = co_await rt_.commit_confirm(batch_id, all_commit, round,
                                                  msg::kBatchCommitConfirm);
    if (!sent) {
      // Crashed before the decision was durable: no confirm left and the
      // batch must not succeed -- members retry (and stall against the dead
      // node) while the prepared replicas presumed-abort.
      round.stale.clear();
      co_return false;
    }
  }

  if (rt_.tracer_ != nullptr) {
    rt_.tracer_->span(TraceKind::kCommit2pc, rt_.node(), batch_id,
                      commit_start, rt_.simulator().now(), nwrites,
                      /*local=*/0);
  }
  co_return all_commit;
}

sim::Task<void> BatchPlanner::run_batch(std::vector<Pending> batch) {
  // A bounded member caps the whole batch's rounds; an unlimited member
  // (max_attempts 0) lifts the cap.
  std::uint32_t budget = 0;
  bool unlimited = false;
  for (const Pending& p : batch) {
    if (p.max_attempts == 0) unlimited = true;
    budget = std::max(budget, p.max_attempts);
  }

  const sim::Tick exec_start = rt_.simulator().now();
  for (const Pending& p : batch) {
    rt_.latency_.batch_wait.record(exec_start - p.enqueue_tick);
  }

  HistoryRecorder* rec = rt_.recorder_;
  std::vector<CommittedTxn> records;
  const std::coroutine_handle<> self = co_await sim::CurrentHandle{};
  for (std::uint32_t attempt = 0;; ++attempt) {
    const TxnId batch_id = rt_.next_scope_id();
    records.clear();
    bool exec_ok = true;
    std::string exec_abort_reason;
    for (Pending& p : batch) {
      Txn txn(rt_, nullptr);
      txn.batch_ = this;
      txn.boundary_ = self;
      try {
        // An abort inside the body resumes us here with the body suspended;
        // destroying the body's Task (end of this statement) frees its
        // frames.
        co_await p.body(txn);
        if (txn.abort_) {
          // Infrastructure abort (unreachable quorum, step guard): no
          // replica state to diagnose, so the whole round restarts from
          // fresh fetches.
          exec_ok = false;
          exec_abort_reason = std::move(txn.abort_->reason);
        }
      } catch (const quorum::QuorumUnavailable& e) {
        // Live member, quorum transiently unformable mid-chaos: same
        // restart-from-fresh-fetches treatment as an infrastructure abort.
        exec_ok = false;
        exec_abort_reason = e.what();
      }
      if (!exec_ok) break;
      absorb(txn, rec != nullptr ? &records : nullptr);
    }

    bool committed = false;
    if (exec_ok) {
      if (nobjects_ == 0) {
        // Nothing read or written by any member: local commit, no messages.
        rt_.metrics().local_commits += batch.size();
        committed = true;
      } else {
        committed = co_await commit_round(batch_id);
        if (!committed) ++rt_.metrics().vote_aborts;
      }
    }

    if (committed) {
      const sim::Tick now = rt_.simulator().now();
      rt_.metrics().commits += batch.size();
      ++rt_.metrics().batches_committed;
      rt_.latency_.batch_size.record(
          static_cast<sim::Tick>(batch.size()));
      for (Pending& p : batch) {
        rt_.latency_.commit_latency.record(now - p.enqueue_tick);
        p.done.set(true);
      }
      if (rec != nullptr) {
        for (CommittedTxn& r : records) {
          r.commit_tick = now;
          rec->record_commit(std::move(r));
        }
        rec->record_batch(now, rt_.node(), batch_id, batch.size());
      }
      if (rt_.tracer_ != nullptr) {
        rt_.tracer_->span(TraceKind::kBatch, rt_.node(), batch_id, exec_start,
                          now, batch.size(), attempt + 1);
        for (const Pending& p : batch) {
          rt_.tracer_->span(TraceKind::kTxn, rt_.node(), batch_id,
                            p.enqueue_tick, now, attempt + 1);
        }
      }
      clear_cache();
      co_return;
    }

    // Speculation rollback: the round's speculative state is discarded and
    // only the stale queues are re-fetched on the next attempt.
    ++rt_.metrics().speculation_rollbacks;
    const sim::Tick abort_tick = rt_.simulator().now();
    if (rec != nullptr) {
      rec->record_abort(abort_tick, rt_.node(), batch_id,
                        exec_ok ? "batch speculation rollback"
                                : exec_abort_reason);
    }
    if (rt_.tracer_ != nullptr) {
      rt_.tracer_->instant(TraceKind::kAbort, rt_.node(), batch_id, abort_tick,
                           attempt + 1);
    }
    rollback_cache(exec_ok ? std::span<const ObjectId>(round_.stale)
                           : std::span<const ObjectId>());

    if (!unlimited && attempt + 1 >= budget) {
      for (Pending& p : batch) p.done.set(false);
      clear_cache();
      co_return;
    }
    co_await rt_.backoff(attempt + 1, batch_id);
    rt_.latency_.retry_gap.record(rt_.simulator().now() - abort_tick);
  }
}

}  // namespace qrdtm::core
