#include "store/commit_log.h"

#include <algorithm>
#include <utility>

#include "common/serde.h"

namespace qrdtm::store {

namespace {

// Tail record types.
constexpr std::uint8_t kApply = 1;
constexpr std::uint8_t kPrepare = 2;
constexpr std::uint8_t kConfirm = 3;
constexpr std::uint8_t kDecision = 4;

/// A decision after its epoch: the tail record's header carries the epoch.
void put_decision_body(Writer& w, TxnId txn, const Decision& d) {
  w.u64(txn);
  w.boolean(d.commit);
  encode_vec(w, d.members, [](Writer& w2, std::uint32_t n) { w2.u32(n); });
  w.blob(d.payload);
}

void put_decision(Writer& w, TxnId txn, const Decision& d) {
  w.u32(d.epoch);
  put_decision_body(w, txn, d);
}

std::pair<TxnId, Decision> get_decision(Reader& r) {
  Decision d;
  d.epoch = r.u32();
  const TxnId txn = r.u64();
  d.commit = r.boolean();
  d.members =
      decode_vec<std::uint32_t>(r, [](Reader& r2) { return r2.u32(); });
  d.payload = r.blob();
  return {txn, std::move(d)};
}

void put_write(Writer& w, const LoggedWrite& lw) {
  w.u64(lw.id);
  w.u64(lw.base);
  w.u32(lw.steps);
  w.blob(lw.data);
}

/// The encoded write run that starts at `r`'s cursor, walked and checked.
LoggedWrites read_run(Reader& r) {
  return decode_entries<LoggedWriteView, decode_logged_write>(r);
}

/// Dead runs tolerated before a compaction, beyond as many bytes as the
/// live ones hold.
constexpr std::size_t kRunSlack = 1024;

}  // namespace

// Each record is framed in place: u32 length prefix + payload.  The prefix
// is what lets replay drop a torn (partially written) final record instead
// of misparsing it; it is written as zero and filled in once the payload is.
Writer CommitLog::open_record(std::uint8_t type, std::uint32_t epoch,
                              std::size_t body, std::size_t* len_at) {
  // Room for the whole record, growing the tail as one append of it would.
  const std::size_t record = 4 + 1 + 4 + body;
  if (tail_.capacity() - tail_.size() < record) {
    tail_.reserve(tail_.size() + std::max(tail_.size(), record));
  }
  Writer w = Writer::appending(std::move(tail_));
  *len_at = w.size();
  w.u32(0);
  w.u8(type);
  w.u32(epoch);
  return w;
}

void CommitLog::close_record(Writer&& w, std::size_t len_at) {
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - len_at - 4));
  tail_ = std::move(w).take();
  ++tail_records_;
}

void CommitLog::append_apply(ObjectId id, Version version, const Bytes& data,
                             std::uint32_t epoch) {
  std::size_t len_at = 0;
  Writer w = open_record(kApply, epoch, 8 + 8 + 4 + data.size(), &len_at);
  w.u64(id);
  w.u64(version);
  w.blob(data);
  close_record(std::move(w), len_at);
  high_version_ = std::max(high_version_, version);
}

void CommitLog::append_prepare(TxnId txn, std::vector<LoggedWrite> writes,
                               std::uint32_t epoch) {
  std::size_t run_bytes = 4;
  for (const LoggedWrite& lw : writes) {
    run_bytes += 8 + 8 + 4 + 4 + lw.data.size();
    high_version_ = std::max(high_version_, lw.base + lw.steps);
  }
  std::size_t len_at = 0;
  Writer w = open_record(kPrepare, epoch, 8 + run_bytes, &len_at);
  w.u64(txn);
  const std::size_t run_at = w.size();
  encode_vec(w, writes, put_write);
  close_record(std::move(w), len_at);
  track_prepare(txn, epoch, run_at);
}

void CommitLog::append_encoded_prepare(TxnId txn,
                                       std::span<const std::uint8_t> writes,
                                       std::uint32_t epoch) {
  // Walk the run first: a malformed one throws before anything changes.
  Version high = high_version_;
  for (const LoggedWriteView& lw : read_logged_writes(writes)) {
    high = std::max(high, lw.base + lw.steps);
  }
  high_version_ = high;
  std::size_t len_at = 0;
  Writer w = open_record(kPrepare, epoch, 8 + writes.size(), &len_at);
  w.u64(txn);
  const std::size_t run_at = w.size();
  w.raw(writes);
  close_record(std::move(w), len_at);
  track_prepare(txn, epoch, run_at);
}

void CommitLog::track_prepare(TxnId txn, std::uint32_t epoch,
                              std::size_t run_at) {
  const std::span<const std::uint8_t> run(tail_.data() + run_at,
                                          tail_.size() - run_at);
  drop_pending(txn);  // a re-prepare replaces the earlier run
  if (runs_.size() > kRunSlack + 2 * live_run_bytes_) compact_runs();
  Pending& p = pending_[txn];
  p.epoch = epoch;
  p.at = runs_.size();
  p.size = run.size();
  runs_.insert(runs_.end(), run.begin(), run.end());
  live_run_bytes_ += run.size();
}

void CommitLog::drop_pending(TxnId txn) {
  const Pending* p = pending_.find(txn);
  if (p == nullptr) return;
  live_run_bytes_ -= p->size;
  pending_.erase(txn);
  if (pending_.empty()) runs_.clear();
}

void CommitLog::compact_runs() {
  spare_runs_.clear();
  // Runs are copied in slot order, which is deterministic; where each lands
  // changes no byte the log writes.
  pending_.for_each([&](TxnId, Pending& p) {
    const std::span<const std::uint8_t> run = run_of(p);
    p.at = spare_runs_.size();
    spare_runs_.insert(spare_runs_.end(), run.begin(), run.end());
  });
  std::swap(runs_, spare_runs_);
}

void CommitLog::append_confirm(TxnId txn, bool commit, std::uint32_t epoch) {
  std::size_t len_at = 0;
  Writer w = open_record(kConfirm, epoch, 8 + 1, &len_at);
  w.u64(txn);
  w.boolean(commit);
  close_record(std::move(w), len_at);
  drop_pending(txn);
}

void CommitLog::append_decision(TxnId txn, Decision d) {
  std::size_t len_at = 0;
  Writer w = open_record(
      kDecision, d.epoch,
      8 + 1 + 4 + 4 * d.members.size() + 4 + d.payload.size(), &len_at);
  // The decision's epoch already leads the record, like the other records'.
  put_decision_body(w, txn, d);
  close_record(std::move(w), len_at);
  verdicts_[txn] = d.commit;
  decisions_[txn] = std::move(d);
}

void CommitLog::settle_decision(TxnId txn) { decisions_.erase(txn); }

std::optional<bool> CommitLog::decision_verdict(TxnId txn) const {
  const bool* verdict = verdicts_.find(txn);
  if (verdict == nullptr) return std::nullopt;
  return *verdict;
}

std::optional<LoggedWrites> CommitLog::find_pending(TxnId txn) const {
  const Pending* p = pending_.find(txn);
  if (p == nullptr) return std::nullopt;
  return read_logged_writes(run_of(*p));
}

void CommitLog::cut(const ReplicaStore& store, std::uint32_t epoch,
                    bool carry_in_flight) {
  // Snapshot the committed image, ids ascending (the disk bytes must not
  // depend on the store's insertion order).
  std::vector<ObjectId> ids;
  ids.reserve(store.num_objects());
  for (const auto& [id, e] : store.entries()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  Writer w;
  w.u32(epoch);
  Version high = high_version_;
  for (ObjectId id : ids) high = std::max(high, store.find(id)->version);
  w.u64(high);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (ObjectId id : ids) {
    const ReplicaEntry* e = store.find(id);
    w.u64(id);
    w.u64(e->version);
    w.blob(e->data);
  }

  // Carry the in-flight prepares (the getDtxCheckPointInfo analogue): a
  // transaction mid-2PC at cut time will be confirmed AFTER the cut, and
  // its confirm record carries no writeset -- without the carry, replay
  // silently loses the write (the Greengage bug the chk.cut.carry fault
  // point re-creates).  Each carried prepare is its write run, verbatim.
  if (carry_in_flight) {
    std::vector<TxnId> txns;
    txns.reserve(pending_.size());
    pending_.for_each([&](TxnId txn, const Pending&) { txns.push_back(txn); });
    std::sort(txns.begin(), txns.end());
    w.u32(static_cast<std::uint32_t>(txns.size()));
    for (TxnId txn : txns) {
      const Pending& p = *pending_.find(txn);
      w.u32(p.epoch);
      w.u64(txn);
      w.raw(run_of(p));
    }
  } else {
    w.u32(0);
  }

  // Carry the unsettled coordinator decisions: a decision whose confirm
  // broadcast has not completed must survive the cut, or a restart after
  // the cut could presumed-abort a transaction whose confirms were already
  // partially delivered.  decisions_ is a std::map, so iteration is already
  // txn-ordered (deterministic disk bytes).
  w.u32(static_cast<std::uint32_t>(decisions_.size()));
  for (const auto& [txn, d] : decisions_) put_decision(w, txn, d);

  image_ = std::move(w).take();
  tail_.clear();
  tail_records_ = 0;
  high_version_ = high;
  ++cuts_;
  compact_runs();
}

std::size_t CommitLog::replay_into(ReplicaStore& store,
                                   FlatTable<ConfirmOutcome>* outcomes) const {
  // A prepare replayed but not yet confirmed: its write run, borrowed from
  // the image or the tail.
  struct Replayed {
    std::uint32_t epoch = 0;
    LoggedWrites writes;
  };
  std::size_t applied = 0;
  FlatTable<Replayed> pending;

  if (!image_.empty()) {
    try {
      Reader r(image_);
      r.u32();  // image epoch (observability; not needed to replay)
      r.u64();  // high version bound
      const std::uint32_t nobj = r.u32();
      for (std::uint32_t i = 0; i < nobj; ++i) {
        const ObjectId id = r.u64();
        const Version version = r.u64();
        store.apply(id, version, r.blob_view());
        ++applied;
      }
      const std::uint32_t ncarry = r.u32();
      for (std::uint32_t i = 0; i < ncarry; ++i) {
        const std::uint32_t epoch = r.u32();
        const TxnId txn = r.u64();
        const LoggedWrites writes = read_run(r);
        pending[txn] = Replayed{epoch, writes};
      }
      // Carried decisions (see cut()).  Nothing to apply here -- the live
      // decisions_/verdicts_ members survive with the log object; parsing
      // keeps the image walk aligned and validates the bytes.  Images cut
      // before the decisions section existed simply end here.
      if (r.remaining() > 0) {
        const std::uint32_t ndec = r.u32();
        for (std::uint32_t i = 0; i < ndec; ++i) get_decision(r);
      }
    } catch (const SerdeError&) {
      // A corrupt image voids the whole log: the tail's confirms would
      // resolve against prepares we may have lost.  The delta pull becomes
      // a full pull, which is safe (just slow).
      return 0;
    }
  }

  Reader r(tail_);
  while (r.remaining() >= 4) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining()) break;  // torn tail: partial record dropped
    try {
      // Read the framed payload through a bounded sub-reader so a corrupt
      // record cannot consume its successors.
      const std::span<const std::uint8_t> payload = r.borrow(len);
      Reader rec(payload.data(), payload.size());
      const std::uint8_t type = rec.u8();
      const std::uint32_t epoch = rec.u32();
      switch (type) {
        case kApply: {
          const ObjectId id = rec.u64();
          const Version version = rec.u64();
          store.apply(id, version, rec.blob_view());
          ++applied;
          break;
        }
        case kPrepare: {
          const TxnId txn = rec.u64();
          const LoggedWrites writes = read_run(rec);
          pending[txn] = Replayed{epoch, writes};
          break;
        }
        case kConfirm: {
          const TxnId txn = rec.u64();
          const bool commit = rec.boolean();
          const Replayed* p = pending.find(txn);
          // Epoch stamping: a prepare taken in incarnation e can only be
          // confirmed in incarnation e (the network drops cross-epoch
          // traffic), so a mismatched pair is a stale record, not a commit.
          if (p != nullptr && p->epoch == epoch) {
            if (commit) {
              for (const LoggedWriteView& lw : p->writes) {
                store.apply(lw.id, lw.base + lw.steps, lw.data);
                ++applied;
              }
            }
            pending.erase(txn);
            if (outcomes != nullptr) (*outcomes)[txn] = {epoch, commit};
          }
          break;
        }
        case kDecision:
          // Coordinator decision: nothing to apply to the store (its own
          // confirm record, if it is a quorum member, does that).  The
          // decisions_/verdicts_ members survive with the log object and
          // drive the re-delivery (Cluster::recover_node).
          break;
        default:
          break;  // unknown record type: skip (forward compatibility)
      }
    } catch (const SerdeError&) {
      break;  // torn/corrupt record payload: drop it and everything after
    }
  }
  // Whatever is still pending is in-doubt: the crash landed between this
  // node's vote and the coordinator's confirm.  Not applied here -- the
  // termination protocol (DESIGN.md §17) resolves it once the lease runs
  // out, and a commit resolved elsewhere also arrives via the delta pull.
  return applied;
}

void CommitLog::clear() {
  image_.clear();
  tail_.clear();
  pending_.clear();
  runs_.clear();
  live_run_bytes_ = 0;
  decisions_.clear();
  verdicts_.clear();
  high_version_ = 0;
  tail_records_ = 0;
  cuts_ = 0;
}

void CommitLog::truncate_tail_for_test(std::size_t bytes) {
  const std::size_t drop = std::min(bytes, tail_.size());
  tail_.resize(tail_.size() - drop);
}

}  // namespace qrdtm::store
