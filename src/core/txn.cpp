#include "core/txn.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/check.h"
#include "core/backoff.h"
#include "core/batch.h"
#include "core/history.h"
#include "store/commit_log.h"

namespace qrdtm::core {

namespace {
constexpr std::uint32_t kDepthMax = std::numeric_limits<std::uint32_t>::max();
constexpr ChkEpoch kChkMax = std::numeric_limits<ChkEpoch>::max();
/// Zombie-execution guard: a single attempt performing more operations than
/// this aborts (flat QR can read inconsistent snapshots and chase stale
/// pointers; see DESIGN.md).
constexpr std::uint32_t kMaxOpsPerAttempt = 100000;
/// QR-ON: abstract-lock acquisition attempts before the root aborts (and
/// compensates) to break potential cross-root lock-order cycles.
constexpr std::uint32_t kMaxLockAttempts = 8;
}  // namespace

// ------------------------------------------------------------------ Txn

Txn::Txn(TxnRuntime& rt, Txn* parent)
    : rt_(rt),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this),
      log_(parent != nullptr ? parent->log_ : nullptr),
      scope_id_(rt.next_scope_id()),
      depth_(parent != nullptr ? parent->depth_ + 1 : 0) {
  if (parent == nullptr) {
    pool_ = rt.logs_;
    owned_log_ = pool_->acquire();
    log_ = owned_log_.get();
  } else {
    record_mark_ = log_->size();
    dataset_mark_ = log_->dataset.size();
  }
}

Txn::~Txn() {
  if (owned_log_ != nullptr) pool_->release(std::move(owned_log_));
}

Rng& Txn::rng() { return rt_.rng(); }

Txn::Unwind Txn::abort(AbortTarget target, TxnId scope_id, ChkEpoch chk,
                       const char* reason) {
  root().abort_ = Abort{target, scope_id, chk, reason};
  return unwind();
}

Txn::Unwind Txn::unwind() {
  const Txn& r = root();
  QRDTM_DCHECK(r.abort_.has_value() && r.active_->boundary_);
  return Unwind{r.active_->boundary_};
}

Txn::OpToken Txn::begin_op() {
  Txn& r = root();
  if (r.abort_) return OpToken{0, false, /*aborted=*/true};
  const std::uint64_t idx = r.op_seq_++;
  if (++r.ops_this_attempt_ > kMaxOpsPerAttempt) {
    ++rt_.metrics().step_guard_trips;
    r.abort_ = Abort{AbortTarget::kRoot, r.scope_id_, 0, "step guard"};
    return OpToken{idx, false, /*aborted=*/true};
  }
  const bool replay = idx < r.replay_until_;
  if (rt_.config().mode == NestingMode::kCheckpoint && !replay) {
    QRDTM_CHECK_MSG(log_->ops() == idx, "op log out of sync with op sequence");
    (void)log_->push_op();
  }
  return OpToken{idx, replay};
}

void Txn::log_op(const OpToken& token, ValueSpan data, ObjectId created) {
  if (rt_.config().mode != NestingMode::kCheckpoint) return;
  QRDTM_CHECK(token.idx < log_->ops());
  TxnOpResult& o = log_->op(token.idx);
  assign_bytes(o.data, data);
  o.created = created;
}

sim::Task<Version> Txn::quorum_fetch(ObjectId id, bool for_write) {
  const RuntimeConfig& cfg = rt_.config();
  Txn& r = root();

  // Encode straight from the root's materialised data-set into a pooled
  // buffer: no ReadRequest struct, no per-fetch data-set rebuild.
  // Only the Rqv modes ship the data-set; flat QR and QR-Q validate at
  // commit time (per transaction and per batch respectively).
  static const std::vector<DataSetEntry> kNoDataSet;
  const std::vector<DataSetEntry>& ds =
      cfg.mode == NestingMode::kClosed || cfg.mode == NestingMode::kCheckpoint
          ? dataset()
          : kNoDataSet;
  Writer w(rt_.rpc_.acquire_buffer(msg::kRead));
  encode_read_request(w, r.scope_id_, cfg.mode, id, for_write, ds);

  Abort unformable;
  const std::vector<net::NodeId>* quorum = rt_.read_quorum(id, &unformable);
  if (quorum == nullptr) {
    r.abort_ = std::move(unformable);
    co_await unwind();
  }
  const std::vector<net::NodeId>& rq = *quorum;
  ++rt_.metrics().remote_reads;
  rt_.metrics().read_messages += rq.size();

  Bytes encoded = std::move(w).take();
  const sim::Tick fetch_start = rt_.simulator().now();
  // Stamp the span context right before the sends; multicast issues them
  // without suspending, so no other client on this shared endpoint can
  // interleave and be mis-attributed.
  std::vector<sim::Future<net::RpcResult>>& replies = log_->gather;
  if (rt_.tracer_ != nullptr) rt_.rpc_.set_trace_context(r.scope_id_);
  rt_.rpc_.multicast(rq, msg::kRead, encoded, cfg.rpc_timeout, &replies);
  if (rt_.tracer_ != nullptr) rt_.rpc_.set_trace_context(0);
  rt_.rpc_.release_buffer(std::move(encoded));

  // The winning OK reply's buffer is kept and its value copied into the
  // new record once, after the gather; every other reply is parsed in place
  // and released.
  bool have_best = false;
  Version best_version = 0;
  Bytes best_reply;
  ValueSpan best_value;  // into best_reply
  bool have_abort = false;
  TxnId abort_scope = 0;
  std::uint32_t abort_depth = kDepthMax;
  ChkEpoch abort_chk = kChkMax;
  std::size_t ok_replies = 0;
  const std::size_t members = replies.size();

  for (auto& f : replies) {
    net::RpcResult res = co_await f;
    rt_.report_rpc_outcome(res.from, res.ok);
    if (!res.ok) continue;  // dead member or lost reply
    ++ok_replies;
    const ReadResponseView resp = ReadResponse::decode_view(res.payload);
    switch (resp.status) {
      case ReadStatus::kAbort:
        have_abort = true;
        if (cfg.mode == NestingMode::kClosed) {
          // Combine across replies: shallowest owner wins; the "conflict on
          // the fetched object itself" sentinel (scope 0 / depth max) only
          // applies when no data-set entry was invalid anywhere.
          if (resp.abort_depth < abort_depth ||
              (abort_depth == kDepthMax && abort_scope == 0)) {
            abort_depth = resp.abort_depth;
            abort_scope = resp.abort_scope;
          }
        } else {
          abort_chk = std::min(abort_chk, resp.abort_chk);
        }
        break;
      case ReadStatus::kOk:
        if (!have_best || resp.version > best_version) {
          // Moving a vector keeps its storage, so the span stays valid.
          best_version = resp.version;
          best_value = resp.data;
          std::swap(best_reply, res.payload);
          have_best = true;
        }
        break;
      case ReadStatus::kMissing:
        break;
    }
    rt_.rpc_.release_buffer(std::move(res.payload));
  }
  replies.clear();
  if (have_best && !have_abort) assign_bytes(log_->next_value(), best_value);
  rt_.rpc_.release_buffer(std::move(best_reply));

  // Record the fetch before the abort checks so aborted fetches still count
  // toward read RTT (they cost the same wall-clock round trip).
  rt_.latency_.read_rtt.record(rt_.simulator().now() - fetch_start);
  if (rt_.tracer_ != nullptr) {
    rt_.tracer_->span(TraceKind::kReadFetch, rt_.node(), r.scope_id_,
                      fetch_start, rt_.simulator().now(), id, ok_replies);
  }

  if (have_abort) {
    ++rt_.metrics().validation_failures;
    if (cfg.mode == NestingMode::kClosed) {
      const TxnId target = abort_scope == 0 ? scope_id_ : abort_scope;
      co_await abort(AbortTarget::kScope, target, 0, "rqv");
    } else if (cfg.mode == NestingMode::kCheckpoint) {
      const ChkEpoch target = std::min(abort_chk, r.epoch_);
      co_await abort(AbortTarget::kCheckpoint, r.scope_id_, target, "rqv");
    } else {
      co_await abort(AbortTarget::kRoot, r.scope_id_, 0, "rqv");
    }
  } else if (ok_replies == 0) {
    co_await abort(AbortTarget::kRoot, r.scope_id_, 0,
                   "read quorum unreachable");
  } else if (ok_replies < members) {
    // Strict gather: quorum intersection (Q1) only covers this fetch if
    // EVERY read-quorum member answered -- the member whose reply was lost
    // (dropped message, mid-fetch kill) may be exactly the one holding the
    // newest version, and a partial snapshot could commit unvalidated under
    // QR-CN's local read-only commit.  Abort and retry against the (possibly
    // reconfigured) quorum.
    co_await abort(AbortTarget::kRoot, r.scope_id_, 0,
                   "read quorum incomplete");
  } else if (!have_best) {
    // No live replica holds the object: either a stale pointer chased by a
    // zombie flat transaction, or a data-structure bug.  Abort and retry.
    co_await abort(AbortTarget::kRoot, r.scope_id_, 0,
                   "object missing on read quorum");
  }
  co_return best_version;
}

sim::Task<Version> Txn::acquire_copy(ObjectId id, bool for_write) {
  BatchPlanner* bp = root().batch_;
  if (bp != nullptr) {
    if (const std::optional<BatchPlanner::Head> head = bp->lookup(id)) {
      // Served at the speculative head: one quorum fetch covers every later
      // touch of this object by any batch member.
      ++rt_.metrics().batch_read_hits;
      assign_bytes(log_->next_value(), head->data);
      co_return head->version;
    }
    const Version version = co_await quorum_fetch(id, for_write);
    bp->admit(id, version, log_->next_value());
    co_return version;
  }
  co_return co_await quorum_fetch(id, for_write);
}

sim::Task<void> Txn::after_fetch_chk() {
  Txn& r = root();
  if (++r.objs_since_chk_ < rt_.config().chk_threshold) co_return;
  // Automatic checkpoint: charge creation cost (fixed + per object in the
  // read/write sets, which the paper's implementation copies), mark the
  // logs and the execution cursor, open a new epoch.
  const sim::Tick chk_start = rt_.simulator().now();
  const std::size_t objects = log_->set_sizes();
  const sim::Tick cost = rt_.config().chk_create_cost +
                         rt_.config().chk_create_cost_per_obj *
                             static_cast<sim::Tick>(objects);
  if (cost > 0) {
    co_await rt_.simulator().delay(cost);
  }
  if (rt_.tracer_ != nullptr) {
    rt_.tracer_->span(TraceKind::kChkCreate, rt_.node(), r.scope_id_,
                      chk_start, rt_.simulator().now(), r.epoch_ + 1, objects);
  }
  ++r.epoch_;
  log_->mark_checkpoint(r.epoch_, r.op_seq_);
  r.objs_since_chk_ = 0;
  ++rt_.metrics().checkpoints_created;
}

sim::Task<ValueSpan> Txn::read(ObjectId id) {
  const OpToken op = begin_op();
  if (op.aborted) co_await unwind();
  QRDTM_CHECK_MSG(id != store::kNullObject, "read of null object id");
  if (op.replay) {
    // Fast-forward: the restored records already contain this operation's
    // effects; just reproduce its result.
    co_return ValueSpan(log_->op(op.idx).data);
  }
  if (const std::uint32_t i = log_->latest(id); i != kNoRecord) {
    ++rt_.metrics().local_read_hits;
    const ValueSpan data = log_->at(i).value;
    log_op(op, data, store::kNullObject);
    co_return data;
  }
  const Version ver = co_await acquire_copy(id, /*for_write=*/false);
  const ChkEpoch chk = root().epoch_;
  const ValueSpan data =
      log_->append(id, ver, scope_id_, depth_, chk, /*read=*/true,
                   /*write=*/false)
          .value;
  dataset_append(id, ver, chk);
  log_op(op, data, store::kNullObject);
  if (rt_.config().mode == NestingMode::kCheckpoint) {
    co_await after_fetch_chk();
  }
  co_return data;
}

sim::Task<ValueSpan> Txn::read_for_write(ObjectId id) {
  const OpToken op = begin_op();
  if (op.aborted) co_await unwind();
  QRDTM_CHECK_MSG(id != store::kNullObject, "write of null object id");
  if (op.replay) {
    co_return ValueSpan(log_->op(op.idx).data);
  }
  if (const std::uint32_t i = log_->latest(id); i != kNoRecord) {
    ++rt_.metrics().local_read_hits;
    if (log_->at(i).owner == scope_id_) {
      // Already this scope's: a write-set hit, or a same-scope upgrade of
      // its read (read then read_for_write), whose data-set entry already
      // has this id/version/owner.
      if (!log_->at(i).write) {
        log_->save_for_rollback(i);  // QR-CHK: keep it for a rollback
        log_->at(i).write = true;
      }
      const ValueSpan data = log_->at(i).value;
      log_op(op, data, store::kNullObject);
      co_return data;
    }
    // Copy-on-write from an ancestor scope: a record of this scope hides
    // the ancestor's until this scope merges or aborts.  The base version
    // (and the QR-CHK fetch epoch) travel with the copy so commit and
    // rollback semantics are unchanged.  The data-set gains an entry under
    // the new owner (the duplicate that leaves after a CT merge is
    // compacted there).
    assign_bytes(log_->next_value(), log_->at(i).value);
    const Version ver = log_->at(i).version;
    const ChkEpoch chk = log_->at(i).owner_chk;
    const ValueSpan data =
        log_->append(id, ver, scope_id_, depth_, chk, /*read=*/false,
                     /*write=*/true)
            .value;
    dataset_append(id, ver, chk);
    log_op(op, data, store::kNullObject);
    co_return data;
  }
  const Version ver = co_await acquire_copy(id, /*for_write=*/true);
  const ChkEpoch chk = root().epoch_;
  const ValueSpan data =
      log_->append(id, ver, scope_id_, depth_, chk, /*read=*/false,
                   /*write=*/true)
          .value;
  dataset_append(id, ver, chk);
  log_op(op, data, store::kNullObject);
  if (rt_.config().mode == NestingMode::kCheckpoint) {
    co_await after_fetch_chk();
  }
  co_return data;
}

void Txn::write(ObjectId id, ValueSpan data) {
  const Txn& r = root();
  // Re-executed pre-checkpoint code: the restored records already hold
  // this write's effect.  An aborting attempt (create() tripped the step
  // guard) writes nothing; its next co_awaited operation unwinds.
  if (r.op_seq_ < r.replay_until_ || r.abort_) return;
  // The scope's write-set holds the id exactly when its latest record is
  // this scope's write record (records of merged CTs are this scope's).
  const std::uint32_t i = log_->latest(id);
  QRDTM_CHECK_MSG(i != kNoRecord && log_->at(i).owner == scope_id_ &&
                      log_->at(i).write,
                  "write() requires read_for_write() or create() first");
  log_->save_for_rollback(i);
  assign_bytes(log_->at(i).value, data);
}

ObjectId Txn::create(ValueSpan data) {
  const OpToken op = begin_op();
  if (op.aborted) return store::kNullObject;
  Txn& r = root();
  if (op.replay) {
    return log_->op(op.idx).created;  // the records already hold the object
  }
  ObjectId id = rt_.allocate_object_id();
  log_op(op, ValueSpan{}, id);
  assign_bytes(log_->next_value(), data);
  (void)log_->append(id, 0, scope_id_, depth_, r.epoch_, /*read=*/false,
                     /*write=*/true);
  dataset_append(id, 0, r.epoch_);
  return id;
}

sim::Task<void> Txn::compute(sim::Tick cost) {
  const OpToken op = begin_op();
  if (op.aborted) co_await unwind();
  if (!op.replay && cost > 0) {
    co_await rt_.simulator().delay(cost);
  }
}

sim::Task<void> Txn::nested(TxnBodyRef body) {
  Txn& r = root();
  if (r.abort_) co_await unwind();  // create() tripped the step guard
  if (rt_.config().mode != NestingMode::kClosed) {
    // Flat nesting ignores inner transactions; QR-CHK transactions are flat
    // with checkpoints (paper §IV-A).
    co_await body(*this);
    co_return;
  }
  const std::coroutine_handle<> self = co_await sim::CurrentHandle{};
  for (;;) {
    Txn child(rt_, this);
    child.boundary_ = self;
    const sim::Tick scope_start = rt_.simulator().now();
    r.active_ = &child;
    // An abort inside the body resumes us here with the body suspended;
    // destroying the body's Task (end of this statement) frees its frames.
    co_await body(child);
    r.active_ = this;
    const bool aborted = r.abort_.has_value();
    // abortClosed naming this CT retries just this scope; any other abort
    // names an ancestor (or the root) and keeps unwinding.
    const bool retry = aborted && r.abort_->target == AbortTarget::kScope &&
                       r.abort_->scope_id == child.scope_id_;
    if (rt_.tracer_ != nullptr) {
      rt_.tracer_->span(TraceKind::kCtScope, rt_.node(), r.scope_id_,
                        scope_start, rt_.simulator().now(), child.scope_id_,
                        aborted ? 0 : 1);
    }
    if (aborted) {
      // The child's sets die with it: drop its records and materialised
      // entries (ancestor boundaries truncate their own marks in turn).
      log_->truncate(child.record_mark_);
      dataset_truncate(child.dataset_mark_);
    }
    if (aborted && !retry) co_await unwind();
    if (retry) {
      r.abort_.reset();
      ++rt_.metrics().ct_aborts;
      if (HistoryRecorder* rec = rt_.history_recorder()) {
        rec->record_abort(rt_.simulator().now(), rt_.node(), child.scope_id_,
                          "ct retry (abortClosed)");
      }
      const sim::Tick base = rt_.config().ct_retry_backoff;
      if (base > 0) {
        const sim::Tick wait = base / 2 + rt_.rng().below(base);
        rt_.latency_.backoff_wait.record(wait);
        const sim::Tick wait_start = rt_.simulator().now();
        co_await rt_.simulator().delay(wait);
        if (rt_.tracer_ != nullptr) {
          rt_.tracer_->span(TraceKind::kBackoff, rt_.node(), r.scope_id_,
                            wait_start, rt_.simulator().now(), 0);
        }
      }
      continue;  // paper: retry T_closed from its beginning
    }
    child.merge_into_parent();  // commitCT (Alg. 3): local, zero messages
    co_return;
  }
}

sim::Task<void> Txn::open_nested(OpenOp op) {
  QRDTM_CHECK_MSG(parent_ == nullptr,
                  "open_nested is only valid at root depth");
  QRDTM_CHECK_MSG(rt_.config().mode != NestingMode::kCheckpoint,
                  "open nesting cannot compose with checkpoint replay");
  QRDTM_CHECK_MSG(rt_.config().mode != NestingMode::kQueued,
                  "open nesting cannot compose with batched speculation");
  if (abort_) co_await unwind();  // create() tripped the step guard
  // Deterministic per-operation lock order; cross-operation cycles are
  // broken by acquire_abstract_lock's bounded retries (root abort +
  // compensation).
  std::sort(op.locks.begin(), op.locks.end());
  op.locks.erase(std::unique(op.locks.begin(), op.locks.end()),
                 op.locks.end());
  for (AbstractLockId lock : op.locks) {
    co_await rt_.acquire_abstract_lock(*this, lock);
  }
  // The body is an independent transaction: it commits globally NOW, while
  // this root is still running (the defining property of open nesting).
  bool ok = co_await rt_.run_txn_impl(op.body, 0, /*count_commit=*/false);
  QRDTM_CHECK(ok);
  ++rt_.metrics().open_commits;
  if (op.compensation) {
    open_log_.push_back(std::move(op.compensation));
  }
}

void Txn::merge_into_parent() {
  QRDTM_CHECK(parent_ != nullptr);
  // Ownership transfers to the parent: a later conflict on these objects
  // must abort the parent, since this CT no longer exists (Alg. 3).  The
  // records stay where they are; a merged copy-on-write record keeps
  // hiding the parent's older record of the same id, so the parent now
  // reads and commits the CT's value.
  log_->rehome(record_mark_, parent_->scope_id_, parent_->depth_);
  // Re-home this scope's materialised entries (everything appended since the
  // scope opened, including already-merged grandchildren's).
  auto& cache = log_->dataset;
  for (std::size_t i = dataset_mark_; i < cache.size(); ++i) {
    cache[i].owner = parent_->scope_id_;
    cache[i].owner_depth = parent_->depth_;
  }
  // Compact duplicates: a CT upgrade of an object already in an ancestor's
  // set appended a second entry for the same id, now identical in role to
  // the ancestor's.  Keep the ancestor's (shallower) entry -- when the
  // object is invalid, every scope holding it is doomed and abortClosed
  // must name the shallowest one.
  if (dataset_mark_ > 0) {
    std::size_t out = dataset_mark_;
    for (std::size_t i = dataset_mark_; i < cache.size(); ++i) {
      bool dup = false;
      for (std::size_t j = 0; j < dataset_mark_; ++j) {
        if (cache[j].id == cache[i].id) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        if (out != i) cache[out] = std::move(cache[i]);
        ++out;
      }
    }
    cache.resize(out);
  }
}

void Txn::reset_full() {
  QRDTM_CHECK(parent_ == nullptr);
  QRDTM_CHECK_MSG(open_log_.empty() && held_locks_.empty(),
                  "open-nesting state must be settled before a reset");
  log_->clear();
  epoch_ = 0;
  objs_since_chk_ = 0;
  op_seq_ = 0;
  replay_until_ = 0;
  ops_this_attempt_ = 0;
}

void Txn::rollback_to(ChkEpoch epoch) {
  QRDTM_CHECK(parent_ == nullptr);
  QRDTM_CHECK_MSG(epoch >= 1, "rollback to epoch 0 is a full abort");
  std::vector<TxnCheckpoint>& chks = log_->checkpoints;
  while (!chks.empty() && chks.back().epoch > epoch) {
    chks.pop_back();
  }
  QRDTM_CHECK_MSG(!chks.empty() && chks.back().epoch == epoch,
                  "rollback target checkpoint not found");
  const TxnCheckpoint& c = chks.back();
  log_->restore(c);
  log_->dataset.resize(c.dataset_len);
  epoch_ = c.epoch;
  objs_since_chk_ = c.objs_since_chk;
  replay_until_ = c.op_cursor;
  // Drop results of the abandoned suffix; the replay's fresh execution
  // logs new ones from the cursor on.
  log_->truncate_ops(c.op_cursor);
  op_seq_ = 0;
  ops_this_attempt_ = 0;
}

// ------------------------------------------------------------ TxnRuntime

TxnRuntime::TxnRuntime(net::RpcEndpoint& rpc, quorum::QuorumProvider& quorums,
                       Metrics& metrics, RuntimeConfig config,
                       std::uint64_t seed, store::CommitLog& local_log)
    : rpc_(rpc),
      quorums_(quorums),
      metrics_(metrics),
      // Once per node, not per transaction.
      // qrdtm-lint: allow(hot-make-shared)
      logs_(std::make_shared<TxnLogPool>()),
      local_log_(local_log),
      config_(config),
      rng_(seed),
      // Scope ids are node-prefixed so ids never collide across nodes; id 0
      // is reserved as the "current scope" sentinel in abort replies.
      next_scope_id_((static_cast<TxnId>(rpc.id()) + 1) << 40) {
  if (config_.mode == NestingMode::kQueued) {
    planner_ = std::make_unique<BatchPlanner>(*this);
  }
}

TxnRuntime::~TxnRuntime() = default;

const std::vector<net::NodeId>* TxnRuntime::cached_quorum(
    std::vector<CohortQuorum>& cache, std::uint32_t cohort,
    QuorumFn provider_quorum, Abort* unformable) {
  if (cache.size() < quorums_.num_cohorts()) {
    cache.resize(quorums_.num_cohorts());
  }
  CohortQuorum& q = cache[cohort];
  const std::uint64_t g = quorums_.generation();
  if (q.gen != g) {
    // A zombie coroutine (the requester was killed mid-transaction, so the
    // provider no longer routes under it) turns an unformable quorum into
    // an infrastructure abort: bounded retry loops absorb it, and the next
    // cross-epoch send would drop anyway.  A *live* requester keeps the
    // original contract and sees QuorumUnavailable directly.
    try {
      q.nodes = (quorums_.*provider_quorum)(node(), cohort);
    } catch (const quorum::QuorumUnavailable& e) {
      if (!rpc_.network().alive(node())) {
        *unformable = Abort{AbortTarget::kRoot, 0, 0, e.what()};
        return nullptr;
      }
      throw;
    }
    q.gen = g;
  }
  return &q.nodes;
}

const std::vector<net::NodeId>* TxnRuntime::read_quorum(ObjectId id,
                                                        Abort* unformable) {
  return cached_quorum(rq_cache_, quorums_.cohort_of(id),
                       &quorum::QuorumProvider::cohort_read_quorum,
                       unformable);
}

bool TxnRuntime::union_write_quorum(const std::vector<ObjectId>& ids,
                                    std::vector<net::NodeId>* out,
                                    Abort* unformable) {
  const std::uint32_t n = quorums_.num_cohorts();
  const QuorumFn wq_of = &quorum::QuorumProvider::cohort_write_quorum;
  // Single cohort: the exact pre-shard behaviour (a copy of the one write
  // quorum), no per-id hashing.
  if (n <= 1) {
    const std::vector<net::NodeId>* wq =
        cached_quorum(wq_cache_, 0, wq_of, unformable);
    if (wq == nullptr) return false;
    *out = *wq;
    return true;
  }
  std::vector<bool> seen(n, false);
  std::uint32_t distinct = 0;
  out->clear();
  for (ObjectId id : ids) {
    const std::uint32_t c = quorums_.cohort_of(id);
    if (seen[c]) continue;
    seen[c] = true;
    ++distinct;
    const std::vector<net::NodeId>* wq =
        cached_quorum(wq_cache_, c, wq_of, unformable);
    if (wq == nullptr) return false;
    out->insert(out->end(), wq->begin(), wq->end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  if (distinct > 1) ++metrics_.cross_shard_rounds;
  return true;
}

ObjectId TxnRuntime::allocate_object_id() {
  return ((static_cast<ObjectId>(rpc_.id()) + 1) << 40) |
         (0x8000000000ULL + next_object_seq_++);
}

sim::Task<void> TxnRuntime::run_transaction(TxnBody body) {
  bool ok = co_await run_txn_impl(std::move(body), 0, /*count_commit=*/true);
  QRDTM_CHECK(ok);
}

sim::Task<bool> TxnRuntime::run_txn_impl(TxnBody body,
                                         std::uint32_t max_attempts,
                                         bool count_commit) {
  if (config_.mode == NestingMode::kQueued) {
    // QR-Q: hand the body to the batch planner; it executes as a member of
    // a speculative batch and commits through the batch 2PC round.
    QRDTM_CHECK_MSG(count_commit,
                    "open-nested side transactions cannot run under kQueued");
    co_return co_await planner_->submit(std::move(body), max_attempts);
  }
  Txn root(*this, nullptr);
  root.boundary_ = co_await sim::CurrentHandle{};
  const sim::Tick txn_start = simulator().now();
  std::uint32_t attempt = 0;
  for (;;) {
    const sim::Tick attempt_start = simulator().now();
    root.active_ = &root;  // a thrown error may have left a CT active
    try {
      // An abort inside the body resumes us here with the body suspended;
      // destroying the body's Task (end of this statement) frees its frames.
      co_await body(root);
      if (!root.abort_) co_await commit_root(root);
    } catch (const quorum::QuorumUnavailable& e) {
      // A live requester that cannot form a quorum mid-chaos: bounded
      // callers (the fuzz harness, QR-Q batch members) treat it as one
      // failed attempt and retry after membership heals.  Unbounded
      // clients keep the raw error -- a permanently lost quorum must
      // surface, not spin forever (Failures.WholeReadQuorumDead...).
      if (max_attempts == 0) throw;
      root.abort_ = Abort{AbortTarget::kRoot, root.scope_id_, 0, e.what()};
    }
    const bool committed = !root.abort_;
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kAttempt, node(), root.scope_id_, attempt_start,
                    simulator().now(), attempt + 1, committed ? 1 : 0);
    }
    if (committed) {
      const sim::Tick now = simulator().now();
      latency_.commit_latency.record(now - txn_start);
      if (tracer_ != nullptr) {
        tracer_->span(TraceKind::kTxn, node(), root.scope_id_, txn_start, now,
                      attempt + 1);
      }
      if (recorder_ != nullptr) record_commit_history(root);
      co_await finish_open(root, /*committed=*/true);
      if (count_commit) ++metrics_.commits;
      co_return true;
    }
    const Abort abort = std::move(*root.abort_);
    root.abort_.reset();
    const sim::Tick abort_tick = simulator().now();
    if (tracer_ != nullptr) {
      tracer_->instant(TraceKind::kAbort, node(), root.scope_id_, abort_tick,
                       attempt + 1);
    }

    if (config_.mode == NestingMode::kCheckpoint &&
        abort.target == AbortTarget::kCheckpoint) {
      const ChkEpoch target = std::min(abort.chk, root.epoch_);
      if (target >= 1) {
        // Partial rollback: restore the checkpoint and resume (replay).
        // Restoring the saved continuation + transaction copy costs time.
        ++metrics_.partial_rollbacks;
        if (recorder_ != nullptr) {
          recorder_->record_rollback(simulator().now(), node(),
                                     root.scope_id_, target);
        }
        root.rollback_to(target);
        if (config_.chk_restore_cost > 0) {
          co_await rpc_.simulator().delay(config_.chk_restore_cost);
        }
        if (tracer_ != nullptr) {
          tracer_->span(TraceKind::kChkRollback, node(), root.scope_id_,
                        abort_tick, simulator().now(), target);
        }
        continue;
      }
      // Rolling back to the start is a full abort.
    }

    ++metrics_.root_aborts;
    if (recorder_ != nullptr) {
      recorder_->record_abort(simulator().now(), node(), root.scope_id_,
                              abort.reason);
    }
    // QR-ON: undo globally-committed open-nested work before retrying.
    co_await finish_open(root, /*committed=*/false);
    root.reset_full();
    ++attempt;
    if (max_attempts != 0 && attempt >= max_attempts) co_return false;
    co_await backoff(attempt, root.scope_id_);
    latency_.retry_gap.record(simulator().now() - abort_tick);
  }
}

void TxnRuntime::record_commit_history(const Txn& root) {
  CommittedTxn rec;
  rec.txn = root.scope_id_;
  rec.node = node();
  rec.commit_tick = simulator().now();
  // The commit sets come sorted by object id.
  std::vector<CommitReadEntry> reads;
  std::vector<store::WriteView> writes;
  root.log_->commit_sets(&reads, &writes);
  rec.reads.reserve(reads.size());
  for (const CommitReadEntry& e : reads) {
    rec.reads.push_back(HistoryRead{e.id, e.version});
  }
  rec.writes.reserve(writes.size());
  for (const store::WriteView& e : writes) {
    // QR installs base+1 (see QrServer::handle_commit_confirm).
    rec.writes.push_back(HistoryWrite{e.id, e.base, e.base + 1,
                                      Bytes(e.data.begin(), e.data.end())});
  }
  recorder_->record_commit(std::move(rec));
}

sim::Task<void> TxnRuntime::acquire_abstract_lock(Txn& root,
                                                  AbstractLockId lock) {
  if (std::find(root.held_locks_.begin(), root.held_locks_.end(), lock) !=
      root.held_locks_.end()) {
    co_return;  // already held by this root (reentrant)
  }
  const net::NodeId home = lock_home(lock, rpc_.network().num_nodes());
  for (std::uint32_t attempt = 0;; ++attempt) {
    Writer w(rpc_.acquire_buffer(msg::kLockAcquire));
    w.u64(lock);
    w.u64(root.scope_id_);
    ++metrics_.lock_messages;
    auto res = co_await rpc_.call(home, msg::kLockAcquire,
                                  std::move(w).take(), config_.rpc_timeout);
    report_rpc_outcome(home, res.ok);
    if (res.ok) {
      Reader r(res.payload);
      const bool granted = r.boolean();
      rpc_.release_buffer(std::move(res.payload));
      if (granted) {
        root.held_locks_.push_back(lock);
        co_return;
      }
    }
    ++metrics_.lock_conflicts;
    if (attempt + 1 >= kMaxLockAttempts) {
      // Could not get the lock: break the (potential) cross-root cycle by
      // aborting this root, which compensates and releases what it holds.
      co_await root.abort(AbortTarget::kRoot, root.scope_id_, 0,
                          "abstract lock conflict");
    }
    co_await backoff(attempt + 1, root.scope_id_);
  }
}

sim::Task<void> TxnRuntime::finish_open(Txn& root, bool committed) {
  if (root.open_log_.empty() && root.held_locks_.empty()) co_return;
  if (!committed) {
    // Undo committed open-nested bodies, newest first.  Compensations are
    // independent committed transactions; they must not use open_nested
    // themselves (no recursion).
    for (auto it = root.open_log_.rbegin(); it != root.open_log_.rend();
         ++it) {
      bool ok = co_await run_txn_impl(*it, 0, /*count_commit=*/false);
      QRDTM_CHECK(ok);
      ++metrics_.compensations_run;
    }
  }
  for (AbstractLockId lock : root.held_locks_) {
    Writer w(rpc_.acquire_buffer(msg::kLockRelease));
    w.u64(lock);
    w.u64(root.scope_id_);
    ++metrics_.lock_messages;
    rpc_.notify(lock_home(lock, rpc_.network().num_nodes()),
                msg::kLockRelease, std::move(w).take());
  }
  root.open_log_.clear();
  root.held_locks_.clear();
}

sim::Task<void> TxnRuntime::commit_root(Txn& root) {
  CommitScratch& round = root.log_->commit;
  root.log_->commit_sets(&round.readset, &round.writeset);
  // An empty transaction (no reads, no writes) has nothing to validate, and
  // Rqv makes read-only commits free under QR-CN (paper §III-A); flat QR
  // and QR-CHK always run the 2PC (QR-CHK commit "exactly the same as flat",
  // §IV-A).
  if (round.writeset.empty() &&
      (round.readset.empty() || (config_.mode == NestingMode::kClosed &&
                                 config_.cn_local_readonly_commit))) {
    ++metrics_.local_commits;
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kCommit2pc, node(), root.scope_id_,
                    simulator().now(), simulator().now(), 0, /*local=*/1);
    }
    co_return;
  }
  const sim::Tick commit_start = simulator().now();

  // round.wq is a copy of the memoised quorum: a failure mid-commit may
  // regenerate the cache while we await votes, and the confirm must reach
  // the same members the request went to.  The multicast spans the write
  // quorums of every cohort the transaction touched -- the read-set cohorts
  // included, since read validation only happens on nodes replicating
  // those objects.
  round.touched.clear();
  for (const CommitReadEntry& e : round.readset) round.touched.push_back(e.id);
  for (const store::WriteView& e : round.writeset) {
    round.touched.push_back(e.id);
  }
  Abort unformable;
  if (!union_write_quorum(round.touched, &round.wq, &unformable)) {
    root.abort_ = std::move(unformable);
    co_return;
  }
  const bool all_commit =
      co_await commit_vote(root.scope_id_, round, msg::kCommitRequest);

  // The confirm goes out even for a read-only round or an abort: voters
  // that protected the write-set must release it on abort.
  const bool sent = co_await commit_confirm(root.scope_id_, all_commit, round,
                                            msg::kCommitConfirm);
  if (!sent) {
    // Crashed before the decision was durable: no confirm left, so the
    // attempt must not be recorded as a commit (the prepared replicas will
    // presumed-abort it once the restarted coordinator answers).
    root.abort_ = Abort{AbortTarget::kRoot, root.scope_id_, 0,
                        "coordinator crashed before decision log"};
    co_return;
  }

  if (tracer_ != nullptr) {
    tracer_->span(TraceKind::kCommit2pc, node(), root.scope_id_, commit_start,
                  simulator().now(), round.writeset.size(), /*local=*/0);
  }

  if (!all_commit) {
    ++metrics_.vote_aborts;
    root.abort_ =
        Abort{AbortTarget::kRoot, root.scope_id_, 0, "commit vote failed"};
  }
}

sim::Task<bool> TxnRuntime::commit_vote(TxnId txn, CommitScratch& round,
                                        net::MsgKind tag) {
  ++metrics_.commit_requests;
  metrics_.commit_messages += round.wq.size();
  Writer reqw(rpc_.acquire_buffer(tag));
  encode_commit_request(reqw, txn, round.readset, round.writeset);
  Bytes reqbytes = std::move(reqw).take();
  if (tracer_ != nullptr) rpc_.set_trace_context(txn);
  rpc_.multicast(round.wq, tag, reqbytes, config_.rpc_timeout, &round.gather);
  if (tracer_ != nullptr) rpc_.set_trace_context(0);
  rpc_.release_buffer(std::move(reqbytes));

  // Each vote is read in place; abort votes fold their stale ids straight
  // into the sorted, unique union.
  bool all_commit = true;
  round.stale.clear();
  for (auto& f : round.gather) {
    net::RpcResult res = co_await f;
    report_rpc_outcome(res.from, res.ok);
    if (!res.ok) {
      all_commit = false;  // dead or unreachable member counts as abort
      continue;
    }
    const VoteResponseView vote = VoteResponse::decode_view(res.payload);
    if (!vote.commit) {
      all_commit = false;
      for (std::size_t i = 0; i < vote.stale.size(); ++i) {
        const ObjectId id = vote.stale[i];
        const auto at =
            std::lower_bound(round.stale.begin(), round.stale.end(), id);
        if (at == round.stale.end() || *at != id) round.stale.insert(at, id);
      }
    }
    rpc_.release_buffer(std::move(res.payload));
  }
  round.gather.clear();
  co_return all_commit;
}

sim::Task<bool> TxnRuntime::commit_confirm(TxnId txn, bool commit,
                                           const CommitScratch& round,
                                           net::MsgKind tag) {
  const std::vector<net::NodeId>& wq = round.wq;
  // The canonical checkpoint/recovery race window: votes are gathered (the
  // write quorum has protected + durably prepared the write-set) but the
  // confirm has not been sent.  Tests park the coordinator here, cut
  // checkpoints / crash replicas, then resume (fp::kCommitBeforeConfirm).
  if (faults_ != nullptr &&
      faults_->fire(fp::kCommitBeforeConfirm, node()) == FaultAction::kSuspend) {
    co_await faults_->suspend(fp::kCommitBeforeConfirm, node());
  }

  Writer cw(rpc_.acquire_buffer(tag));
  encode_commit_confirm(cw, txn, commit, round.writeset);
  Bytes encoded = std::move(cw).take();

  // Durable decision record (DESIGN.md §17): the outcome -- commit AND
  // abort, so termination rounds get authoritative abort answers too -- is
  // on the local WAL BEFORE any confirm leaves this node.  A coordinator
  // restart therefore proves: no decision in the log => no confirm was ever
  // sent => in-doubt replicas may presumed-abort safely.  Read-only rounds
  // (empty writeset) take no protections and log nothing.  One decision
  // covers a whole QR-Q batch.
  const bool log_decision = !round.writeset.empty();
  if (log_decision) {
    const FaultAction at_decision =
        faults_ != nullptr ? faults_->fire(fp::kDecisionBeforeLog, node())
                           : FaultAction::kNone;
    if (at_decision == FaultAction::kPanic) {
      rpc_.release_buffer(std::move(encoded));
      co_return false;
    }
    if (at_decision != FaultAction::kSkip) {
      // kSkip = the --break-termination canary: confirms go out with no
      // durable decision, so a restart presumed-aborts an acked commit.
      // The confirm is its head, then the write run (core/wire.h).
      const std::size_t run = store::write_run_bytes(round.writeset);
      const std::span<const std::uint8_t> confirm(encoded);
      local_log_.append_decision(txn, rpc_.network().epoch(node()), commit, wq,
                                 confirm.first(confirm.size() - run),
                                 confirm.last(run));
    }
  }

  metrics_.commit_messages += wq.size();
  if (tracer_ != nullptr) rpc_.set_trace_context(txn);
  bool died_mid_broadcast = false;
  for (net::NodeId n : wq) {
    // Coordinator crash after a strict subset of the confirms left the node
    // (arm with delay_fires=K to let K members hear the outcome).  The dead
    // node's remaining sends are cut at the network, so just keep looping.
    if (faults_ != nullptr &&
        faults_->fire(fp::kConfirmPartial, node()) == FaultAction::kPanic) {
      died_mid_broadcast = true;
    }
    Bytes copy = rpc_.acquire_buffer(tag);
    copy.assign(encoded.begin(), encoded.end());
    rpc_.notify(n, tag, std::move(copy));
  }
  if (tracer_ != nullptr) rpc_.set_trace_context(0);
  rpc_.release_buffer(std::move(encoded));
  // The broadcast completed in this incarnation: stop re-driving it.  A
  // coordinator that died mid-broadcast must NOT settle -- recovery replays
  // the decision and re-sends (receivers dedupe duplicates).
  if (log_decision && !died_mid_broadcast) {
    local_log_.settle_decision(txn);
  }

  // Charge the one-way confirm propagation (paper: commit-confirm cost is
  // the distance to the write quorum) -- once per round, so a QR-Q batch
  // pays it once for all its members.  This also keeps the client's next
  // attempt from racing its own confirms.
  if (config_.commit_settle > 0) {
    co_await rpc_.simulator().delay(config_.commit_settle);
  }
  co_return true;
}

sim::Task<void> TxnRuntime::backoff(std::uint32_t attempt, TxnId txn) {
  const sim::Tick wait =
      draw_backoff_wait(kRootBackoffBase, kRootBackoffCap, attempt, rng_);
  latency_.backoff_wait.record(wait);
  if (wait > 0) {
    const sim::Tick start = simulator().now();
    co_await rpc_.simulator().delay(wait);
    if (tracer_ != nullptr) {
      tracer_->span(TraceKind::kBackoff, node(), txn, start, simulator().now(),
                    attempt);
    }
  }
}

}  // namespace qrdtm::core
