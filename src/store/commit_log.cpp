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
// A decision record holds the confirm's head, then its run's index (u32)
// in place of the run.
constexpr std::uint8_t kDecision = 4;

// Record header: u32 length prefix, u8 type, u32 epoch.
constexpr std::size_t kHeaderBytes = 4 + 1 + 4;
// A prepare record after its header: u64 txn, u32 run index.  The bytes it
// counts for replace the index with the run.
constexpr std::size_t kPrepareBody = 8 + 4;

// Segment slots made on a log's first append: a 1 MiB tail (the default
// auto-cut) in 32 KiB segments, so the slot vector rarely regrows.
constexpr std::size_t kSegmentSlots = 32;

/// Walks one carried decision of an image (u32 epoch, then the decision
/// record's body) to keep the image walk aligned and check its bytes.
void skip_decision(Reader& r) {
  r.u32();  // epoch
  r.u64();  // txn
  r.boolean();
  (void)decode_records<4, std::uint32_t, decode_member>(r);
  (void)r.blob_view();
}

/// The keys of `table`, ascending (the disk bytes and the re-drive order
/// must not depend on the table's layout).
template <class V>
std::vector<TxnId> sorted_keys(const FlatTable<V>& table) {
  std::vector<TxnId> keys;
  keys.reserve(table.size());
  table.for_each([&](TxnId k, const V&) { keys.push_back(k); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

CommitLog::CommitLog() : CommitLog(std::make_shared<RunShelf>()) {}

CommitLog::CommitLog(std::shared_ptr<RunShelf> shelf) : runs_(std::move(shelf)) {}

// Each record is framed in place: u32 length prefix + payload.  The prefix
// is what lets replay drop a torn (partially written) final record instead
// of misparsing it; it is written as zero and filled in once the payload is.
Writer CommitLog::open_record(std::uint8_t type, std::uint32_t epoch,
                              std::size_t body, std::size_t* len_at) {
  drop_torn_record();
  const std::size_t record = kHeaderBytes + body;
  if (segments_.empty() ||
      segments_.back().capacity() - segments_.back().size() < record) {
    // The last segment is full or the log has none: start one.  Records
    // never span segments, so a record larger than a segment gets its own
    // (an empty last segment is grown into it rather than left empty).
    if (segments_.capacity() == 0) segments_.reserve(kSegmentSlots);
    if (segments_.empty() || !segments_.back().empty()) {
      segments_.emplace_back();
    }
    segments_.back().reserve(std::max(kSegmentBytes, record));
  }
  Writer w = Writer::appending(std::move(segments_.back()));
  *len_at = w.size();
  w.u32(0);
  w.u8(type);
  w.u32(epoch);
  return w;
}

void CommitLog::close_record(Writer&& w, std::size_t len_at) {
  const std::size_t record = w.size() - len_at;
  w.patch_u32(len_at, static_cast<std::uint32_t>(record - 4));
  segments_.back() = std::move(w).take();
  tail_bytes_ += record;
  ++tail_records_;
}

void CommitLog::drop_torn_record() {
  if (torn_ == 0) return;
  Bytes& last = segments_.back();
  last.resize(last.size() - torn_);
  tail_bytes_ -= torn_counted_;
  --tail_records_;
  torn_ = 0;
  torn_counted_ = 0;
}

CommitLog::Loc CommitLog::tail_loc(std::size_t at) const {
  return {static_cast<std::uint32_t>(segments_.size() - 1),
          static_cast<std::uint32_t>(at),
          static_cast<std::uint32_t>(segments_.back().size() - at)};
}

std::span<const std::uint8_t> CommitLog::bytes_at(const Loc& loc) const {
  if (loc.seg == Loc::kShelf) return runs_[loc.at];
  const Bytes& buf = loc.seg == Loc::kImage        ? image_
                     : loc.seg == Loc::kUncarried ? uncarried_
                                                  : segments_[loc.seg];
  return {buf.data() + loc.at, loc.size};
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

void CommitLog::append_prepare(TxnId txn,
                               const std::vector<LoggedWrite>& writes,
                               std::uint32_t epoch) {
  for (const LoggedWrite& lw : writes) {
    high_version_ = std::max(high_version_, lw.base + lw.steps);
  }
  Writer w(std::move(encode_scratch_));
  encode_vec(w, writes,
             [](Writer& w2, const LoggedWrite& lw) { encode_write(w2, lw); });
  encode_scratch_ = std::move(w).take();
  append_run(txn, encode_scratch_, epoch);
}

void CommitLog::append_encoded_prepare(TxnId txn,
                                       std::span<const std::uint8_t> writes,
                                       std::uint32_t epoch) {
  // Walk the run first: a malformed one throws before anything changes.
  Reader r(writes);
  Version high = high_version_;
  for (const WriteView& lw : read_write_run(r)) {
    high = std::max(high, lw.base + lw.steps);
  }
  r.expect_done();
  high_version_ = high;
  append_run(txn, writes, epoch);
}

void CommitLog::append_run(TxnId txn, std::span<const std::uint8_t> writes,
                           std::uint32_t epoch) {
  const std::uint32_t run = runs_.add(txn, writes);
  std::size_t len_at = 0;
  Writer w = open_record(kPrepare, epoch, kPrepareBody, &len_at);
  w.u64(txn);
  w.u32(run);
  close_record(std::move(w), len_at);
  // The record counts for its run as if the run were in it.
  tail_bytes_ += writes.size() - 4;
  // A re-prepare replaces the earlier run.
  pending_[txn] = Pending{
      epoch, Loc{Loc::kShelf, run, static_cast<std::uint32_t>(writes.size())}};
}

void CommitLog::append_confirm(TxnId txn, bool commit, std::uint32_t epoch) {
  std::size_t len_at = 0;
  Writer w = open_record(kConfirm, epoch, 8 + 1, &len_at);
  w.u64(txn);
  w.boolean(commit);
  close_record(std::move(w), len_at);
  pending_.erase(txn);
}

void CommitLog::append_decision(TxnId txn, std::uint32_t epoch, bool commit,
                                std::span<const std::uint32_t> members,
                                std::span<const std::uint8_t> head,
                                std::span<const std::uint8_t> run) {
  // The run is on the shelf already when the write quorum logged it; an
  // abort whose quorum prepared nothing places it here.
  const std::uint32_t ref = runs_.add(txn, run);
  std::size_t len_at = 0;
  Writer w = open_record(
      kDecision, epoch, 8 + 1 + 4 + 4 * members.size() + 4 + head.size() + 4,
      &len_at);
  // The decision's epoch already leads the record, like the other records'.
  const std::size_t body_at = w.size();
  w.u64(txn);
  w.boolean(commit);
  encode_records<4>(w, members,
                    [](RecordWriter& r, std::uint32_t n) { r.u32(n); });
  w.u32(static_cast<std::uint32_t>(head.size() + run.size()));
  w.raw(head);
  w.u32(ref);
  close_record(std::move(w), len_at);
  // The record counts for its run as if the run were in it.
  tail_bytes_ += run.size() - 4;
  verdicts_[txn] = commit;
  decisions_[txn] = OpenDecision{epoch, tail_loc(body_at), ref};
}

void CommitLog::settle_decision(TxnId txn) { decisions_.erase(txn); }

std::vector<TxnId> CommitLog::open_decisions() const {
  return sorted_keys(decisions_);
}

std::optional<DecisionView> CommitLog::open_decision(TxnId txn) const {
  const OpenDecision* d = decisions_.find(txn);
  if (d == nullptr) return std::nullopt;
  Reader r(bytes_at(d->body));
  DecisionView view;
  view.epoch = d->epoch;
  r.u64();  // txn
  view.commit = r.boolean();
  view.members = decode_records<4, std::uint32_t, decode_member>(r);
  const std::uint32_t size = r.u32();
  if (d->run != OpenDecision::kInImage) view.payload.run = runs_[d->run];
  view.payload.head = r.borrow(size - view.payload.run.size());
  return view;
}

std::optional<bool> CommitLog::decision_verdict(TxnId txn) const {
  const bool* verdict = verdicts_.find(txn);
  if (verdict == nullptr) return std::nullopt;
  return *verdict;
}

std::optional<WriteRun> CommitLog::find_pending(TxnId txn) const {
  const Pending* p = pending_.find(txn);
  if (p == nullptr) return std::nullopt;
  Reader r(bytes_at(p->run));
  return read_write_run(r);
}

void CommitLog::cut(const ReplicaStore& store, std::uint32_t epoch,
                    bool carry_in_flight) {
  // Snapshot the committed image, ids ascending (the disk bytes must not
  // depend on the store's insertion order).
  std::vector<ObjectId> ids;
  ids.reserve(store.num_objects());
  for (const auto& [id, e] : store.entries()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  const std::vector<TxnId> carried = sorted_keys(pending_);
  const std::vector<TxnId> open = sorted_keys(decisions_);

  // The image is sized exactly, so the log holds no spare capacity for it.
  std::size_t image_bytes = 4 + 8 + 4 + 4 + 4;
  for (ObjectId id : ids) {
    image_bytes += 8 + 8 + 4 + store.find(id)->data.size();
  }
  for (TxnId txn : carried) {
    if (carry_in_flight) image_bytes += 4 + 8 + pending_.find(txn)->run.size;
  }
  for (TxnId txn : open) {
    const OpenDecision& d = *decisions_.find(txn);
    image_bytes += 4 + d.body.size;
    if (d.run != OpenDecision::kInImage) image_bytes += runs_[d.run].size() - 4;
  }

  Writer w;
  w.reserve(image_bytes);
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
  // point re-creates).  Each carried prepare is its write run, verbatim,
  // and is read from the new image from here on.  A skipped carry keeps
  // the runs in memory only, where a live confirm still finds them.
  Bytes uncarried;
  w.u32(carry_in_flight ? static_cast<std::uint32_t>(carried.size()) : 0);
  for (TxnId txn : carried) {
    Pending& p = *pending_.find(txn);
    const std::span<const std::uint8_t> run = bytes_at(p.run);
    if (carry_in_flight) {
      w.u32(p.epoch);
      w.u64(txn);
      p.run = {Loc::kImage, static_cast<std::uint32_t>(w.size()), p.run.size};
      w.raw(run);
    } else {
      p.run = {Loc::kUncarried, static_cast<std::uint32_t>(uncarried.size()),
               p.run.size};
      uncarried.insert(uncarried.end(), run.begin(), run.end());
    }
  }

  // Carry the unsettled coordinator decisions: a decision whose confirm
  // broadcast has not completed must survive the cut, or a restart after
  // the cut could presumed-abort a transaction whose confirms were already
  // partially delivered.  Txn-ordered, like the prepares.  A decision in
  // the tail is written in full: its head, then the run in place of the
  // run's index.
  w.u32(static_cast<std::uint32_t>(open.size()));
  for (TxnId txn : open) {
    OpenDecision& d = *decisions_.find(txn);
    const std::span<const std::uint8_t> body = bytes_at(d.body);
    w.u32(d.epoch);
    const std::size_t at = w.size();
    if (d.run == OpenDecision::kInImage) {
      w.raw(body);
    } else {
      w.raw(body.first(body.size() - 4));
      w.raw(runs_[d.run]);
    }
    d.body = {Loc::kImage, static_cast<std::uint32_t>(at),
              static_cast<std::uint32_t>(w.size() - at)};
    d.run = OpenDecision::kInImage;
  }

  // Only now, with every carried record in the new image, do the old image
  // and the tail segments go.
  image_ = std::move(w).take();
  uncarried_ = std::move(uncarried);
  release_tail();
  // The verdicts grow here, back to half full, rather than inside a 2PC
  // round (the table is built with late growth).
  verdicts_.reserve(verdicts_.size());
  high_version_ = high;
  ++cuts_;
}

void CommitLog::release_tail() {
  runs_.truncate(0);
  torn_ = 0;
  torn_counted_ = 0;
  // Keep one standard segment for the next appends; an oversized one goes.
  const auto keep =
      std::find_if(segments_.begin(), segments_.end(), [](const Bytes& seg) {
        return seg.capacity() == kSegmentBytes;
      });
  if (keep != segments_.end() && keep != segments_.begin()) {
    std::swap(*keep, segments_.front());
  }
  const bool kept = keep != segments_.end();
  segments_.erase(segments_.begin() + (kept ? 1 : 0), segments_.end());
  if (kept) segments_.front().clear();
  tail_bytes_ = 0;
  tail_records_ = 0;
}

std::size_t CommitLog::capacity_bytes() const {
  std::size_t held = image_.capacity() + uncarried_.capacity();
  for (const Bytes& seg : segments_) held += seg.capacity();
  return held + runs_.referenced_bytes();
}

std::size_t CommitLog::replay_into(ReplicaStore& store,
                                   FlatTable<ConfirmOutcome>* outcomes) const {
  // A prepare replayed but not yet confirmed: its write run, borrowed from
  // the image or the tail.
  struct Replayed {
    std::uint32_t epoch = 0;
    WriteRun writes;
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
        pending[txn] = Replayed{epoch, read_write_run(r)};
      }
      // Carried decisions (see cut()).  Nothing to apply here -- the live
      // decisions_/verdicts_ members survive with the log object; parsing
      // keeps the image walk aligned and validates the bytes.
      const std::uint32_t ndec = r.u32();
      for (std::uint32_t i = 0; i < ndec; ++i) skip_decision(r);
      r.expect_done();
    } catch (const SerdeError&) {
      // A corrupt image voids the whole log: the tail's confirms would
      // resolve against prepares we may have lost.  The delta pull becomes
      // a full pull, which is safe (just slow).
      return 0;
    }
  }

  // The tail, segment by segment.  Records never span segments, so a
  // segment not read to its end held a torn or corrupt record: it and
  // everything after it is dropped.
  bool intact = true;
  for (auto seg = segments_.begin(); intact && seg != segments_.end(); ++seg) {
    Reader r(*seg);
    while (intact && r.remaining() >= 4) {
      const std::uint32_t len = r.u32();
      if (len > r.remaining()) {
        intact = false;  // torn tail: partial record dropped
        break;
      }
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
            const std::uint32_t run = rec.u32();
            if (run >= runs_.size()) throw SerdeError("unknown prepare run");
            Reader rr(runs_[run]);
            pending[txn] = Replayed{epoch, read_write_run(rr)};
            rr.expect_done();
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
                for (const WriteView& lw : p->writes) {
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
            throw SerdeError("unknown record type");
        }
      } catch (const SerdeError&) {
        intact = false;  // torn/corrupt record payload: drop it and all after
      }
    }
    if (!r.done()) intact = false;
  }
  // Whatever is still pending is in-doubt: the crash landed between this
  // node's vote and the coordinator's confirm.  Not applied here -- the
  // termination protocol (DESIGN.md §17) resolves it once the lease runs
  // out, and a commit resolved elsewhere also arrives via the delta pull.
  return applied;
}

void CommitLog::clear() {
  image_.clear();
  uncarried_.clear();
  release_tail();
  pending_.clear();
  decisions_.clear();
  verdicts_.clear();
  high_version_ = 0;
  cuts_ = 0;
}

void CommitLog::truncate_tail_for_test(std::size_t bytes) {
  drop_torn_record();
  // Every record of the tail: where it lies, and the bytes it counts for.
  constexpr std::size_t kNoRun = ~std::size_t{0};
  struct Record {
    std::size_t seg = 0;
    std::size_t at = 0;
    std::size_t size = 0;
    std::size_t counted = 0;
    std::size_t run = kNoRun;  // a prepare's or decision's run index
  };
  std::vector<Record> records;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Reader r(segments_[i]);
    while (!r.done()) {
      Record rec{.seg = i, .at = segments_[i].size() - r.remaining()};
      const std::uint32_t len = r.u32();
      const std::span<const std::uint8_t> payload = r.borrow(len);
      rec.size = 4 + len;
      rec.counted = rec.size;
      const std::uint8_t type = payload[0];
      if (type == kPrepare || type == kDecision) {
        // The run's index ends either record.
        rec.run = Reader(payload.last(4)).u32();
        rec.counted += runs_[rec.run].size() - 4;
      }
      records.push_back(rec);
    }
  }

  std::size_t drop = std::min(bytes, tail_bytes_);
  std::size_t runs_kept = runs_.size();
  while (drop > 0) {
    const Record& rec = records.back();
    if (rec.run != kNoRun) runs_kept = rec.run;
    Bytes& seg = segments_[rec.seg];
    if (drop >= rec.counted) {
      seg.resize(rec.at);
      tail_bytes_ -= rec.counted;
      --tail_records_;
      drop -= rec.counted;
      records.pop_back();
      continue;
    }
    // A torn record: it keeps what was written of it, and at least a byte
    // short of its frame, so replay sees the tear.
    torn_counted_ = rec.counted - drop;
    torn_ = std::min(torn_counted_, rec.size - 1);
    seg.resize(rec.at + torn_);
    tail_bytes_ -= drop;
    drop = 0;
  }
  while (segments_.size() > 1 && segments_.back().empty()) {
    segments_.pop_back();
  }
  runs_.truncate(runs_kept);

  // Forget what lay in the dropped bytes, so nothing reads past them.
  const auto torn = [&](const Loc& loc) {
    if (loc.seg == Loc::kShelf) return loc.at >= runs_kept;
    return loc.seg < Loc::kShelf &&
           (loc.seg >= segments_.size() ||
            std::size_t{loc.at} + loc.size > segments_[loc.seg].size());
  };
  std::vector<TxnId> lost;
  pending_.for_each([&](TxnId txn, const Pending& p) {
    if (torn(p.run)) lost.push_back(txn);
  });
  for (TxnId txn : lost) pending_.erase(txn);
  lost.clear();
  decisions_.for_each([&](TxnId txn, const OpenDecision& d) {
    if (torn(d.body)) lost.push_back(txn);
  });
  for (TxnId txn : lost) decisions_.erase(txn);
}

}  // namespace qrdtm::store
