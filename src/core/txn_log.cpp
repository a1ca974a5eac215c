#include "core/txn_log.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "common/check.h"

namespace qrdtm::core {

void assign_bytes(Bytes& dst, std::span<const std::uint8_t> src) {
  const std::less<const std::uint8_t*> before;
  if (!src.empty() && !dst.empty() && !before(src.data(), dst.data()) &&
      before(src.data(), dst.data() + dst.size())) {
    // src lies inside dst (a value written back from its own span), so it
    // fits: slide it to the front.
    std::memmove(dst.data(), src.data(), src.size());
    dst.resize(src.size());
    return;
  }
  dst.assign(src.begin(), src.end());
}

Bytes& TxnLog::next_value() {
  if (len_ == recs_.size()) recs_.emplace_back();
  return recs_[len_].value;
}

TxnRecord& TxnLog::append(ObjectId id, Version version, TxnId owner,
                          std::uint32_t owner_depth, ChkEpoch owner_chk,
                          bool read, bool write) {
  if (len_ == recs_.size()) recs_.emplace_back();
  TxnRecord& r = recs_[len_];
  r.id = id;
  r.version = version;
  r.owner = owner;
  r.owner_depth = owner_depth;
  r.owner_chk = owner_chk;
  r.shadows = latest(id);
  r.saved_epoch = 0;
  r.read = read;
  r.write = write;
  // A read record enters only where no record of the id exists.
  QRDTM_DCHECK(!read || r.shadows == kNoRecord);
  index_[id] = static_cast<std::uint32_t>(len_);
  ++len_;
  return r;
}

void TxnLog::truncate(std::size_t mark) {
  QRDTM_DCHECK(mark <= len_);
  while (len_ > mark) {
    const TxnRecord& r = recs_[--len_];
    if (r.shadows == kNoRecord) {
      index_.erase(r.id);
    } else {
      index_[r.id] = r.shadows;
    }
  }
}

void TxnLog::rehome(std::size_t mark, TxnId owner, std::uint32_t depth) {
  for (std::size_t i = mark; i < len_; ++i) {
    recs_[i].owner = owner;
    recs_[i].owner_depth = depth;
  }
}

void TxnLog::commit_sets(std::vector<CommitReadEntry>* readset,
                         std::vector<store::WriteView>* writeset) const {
  readset->clear();
  writeset->clear();
  for (std::size_t i = 0; i < len_; ++i) {
    const TxnRecord& r = recs_[i];
    if (r.read) readset->push_back(CommitReadEntry{r.id, r.version});
    if (r.write && latest(r.id) == i) {
      writeset->push_back(store::WriteView{
          .id = r.id, .base = r.version, .steps = 1, .data = r.value});
    }
  }
  std::sort(readset->begin(), readset->end(),
            [](const CommitReadEntry& a, const CommitReadEntry& b) {
              return a.id < b.id;
            });
  std::sort(writeset->begin(), writeset->end(),
            [](const store::WriteView& a, const store::WriteView& b) {
              return a.id < b.id;
            });
}

std::size_t TxnLog::set_sizes() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < len_; ++i) {
    const TxnRecord& r = recs_[i];
    if (r.read) ++n;
    if (r.write && latest(r.id) == i) ++n;
  }
  return n;
}

void TxnLog::mark_checkpoint(ChkEpoch epoch, std::uint64_t op_cursor) {
  checkpoints.push_back(TxnCheckpoint{.epoch = epoch,
                                      .op_cursor = op_cursor,
                                      .objs_since_chk = 0,
                                      .dataset_len = dataset.size(),
                                      .records = len_,
                                      .undo = undo_len_});
}

void TxnLog::save_for_rollback(std::size_t i) {
  if (checkpoints.empty()) return;
  const TxnCheckpoint& c = checkpoints.back();
  TxnRecord& r = recs_[i];
  if (i >= c.records || r.saved_epoch == c.epoch) return;
  if (undo_len_ == undo_.size()) undo_.emplace_back();
  Undo& u = undo_[undo_len_++];
  u.record = static_cast<std::uint32_t>(i);
  u.saved_epoch = r.saved_epoch;
  u.read = r.read;
  u.write = r.write;
  assign_bytes(u.value, r.value);
  r.saved_epoch = c.epoch;
}

void TxnLog::restore(const TxnCheckpoint& c) {
  while (undo_len_ > c.undo) {
    Undo& u = undo_[--undo_len_];
    TxnRecord& r = recs_[u.record];
    r.read = u.read;
    r.write = u.write;
    r.saved_epoch = u.saved_epoch;
    std::swap(r.value, u.value);
  }
  truncate(c.records);
}

TxnOpResult& TxnLog::push_op() {
  if (ops_len_ == ops_.size()) ops_.emplace_back();
  TxnOpResult& o = ops_[ops_len_++];
  o.data.clear();
  o.created = store::kNullObject;
  return o;
}

void TxnLog::clear() {
  truncate(0);
  undo_len_ = 0;
  ops_len_ = 0;
  checkpoints.clear();
  dataset.clear();
}

std::unique_ptr<TxnLog> TxnLogPool::acquire() {
  if (free_.empty()) return std::make_unique<TxnLog>();
  std::unique_ptr<TxnLog> log = std::move(free_.back());
  free_.pop_back();
  return log;
}

void TxnLogPool::release(std::unique_ptr<TxnLog> log) {
  log->clear();
  free_.push_back(std::move(log));
}

}  // namespace qrdtm::core
