#include "core/wire.h"

namespace qrdtm::core {

namespace {

// Exact encoded sizes, used to reserve() writers before encoding so even a
// cold (unpooled) buffer allocates at most once.
constexpr std::size_t kReadReqHeader = 8 + 1 + 8 + 1 + 4;   // + entries
constexpr std::size_t kReadRespHeader = 1 + 8 + 4 + 8 + 4 + 8;  // + data

void encode_read_entry(RecordWriter& w, const CommitReadEntry& e) {
  w.u64(e.id);
  w.u64(e.version);
}

void encode_stale_id(RecordWriter& w, ObjectId id) { w.u64(id); }

/// The one CommitRequest encoder, over an owned or a borrowed write-set.
template <class WriteSet>
void encode_commit_request_from(Writer& w, TxnId txn,
                                std::span<const CommitReadEntry> readset,
                                const WriteSet& writeset) {
  w.reserve(w.size() + 8 + 4 + readset.size() * kCommitReadEntryBytes +
            store::write_run_bytes(writeset));
  w.u64(txn);
  encode_records<kCommitReadEntryBytes>(w, readset, encode_read_entry);
  encode_vec(w, writeset,
             [](Writer& w2, const auto& e) { store::encode_write(w2, e); });
}

/// The one CommitConfirm encoder, over an owned or a borrowed write-set.
template <class WriteSet>
void encode_commit_confirm_from(Writer& w, TxnId txn, bool commit,
                                const WriteSet& writeset) {
  w.reserve(w.size() + 8 + 1 + store::write_run_bytes(writeset));
  encode_commit_confirm_head(w, txn, commit);
  encode_vec(w, writeset,
             [](Writer& w2, const auto& e) { store::encode_write(w2, e); });
}

void encode_dataset_entry(RecordWriter& w, const DataSetEntry& e) {
  w.u64(e.id);
  w.u64(e.version);
  w.u64(e.owner);
  w.u32(e.owner_depth);
  w.u64(e.owner_chk);
}

/// The enum whose underlying byte is `raw`, or SerdeError when `raw` lies
/// past `last`, the enum's highest value (all wire enums are dense from 0).
template <class E>
E checked_enum(std::uint8_t raw, E last) {
  if (raw > static_cast<std::uint8_t>(last)) {
    throw SerdeError("enum value out of range");
  }
  return static_cast<E>(raw);
}

}  // namespace

void encode_read_request(Writer& w, TxnId root, NestingMode mode,
                         ObjectId object, bool for_write,
                         const std::vector<DataSetEntry>& dataset) {
  w.reserve(w.size() + kReadReqHeader + dataset.size() * kDataSetEntryBytes);
  w.u64(root);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u64(object);
  w.boolean(for_write);
  encode_records<kDataSetEntryBytes>(w, dataset, encode_dataset_entry);
}

void ReadRequest::encode_into(Writer& w) const {
  encode_read_request(w, root, mode, object, for_write, dataset);
}

ReadRequestView ReadRequest::decode_view(const Bytes& b) {
  Reader r(b);
  ReadRequestView v;
  v.root = r.u64();
  v.mode = checked_enum(r.u8(), NestingMode::kQueued);
  v.object = r.u64();
  v.for_write = r.boolean();
  v.dataset =
      decode_records<kDataSetEntryBytes, DataSetEntry, decode_dataset_entry>(
          r);
  r.expect_done();
  return v;
}

ReadRequest ReadRequest::decode(const Bytes& b) {
  const ReadRequestView v = decode_view(b);
  ReadRequest req;
  req.root = v.root;
  req.mode = v.mode;
  req.object = v.object;
  req.for_write = v.for_write;
  req.dataset.reserve(v.dataset.size());
  for (std::size_t i = 0; i < v.dataset.size(); ++i) {
    req.dataset.push_back(v.dataset[i]);
  }
  return req;
}

void encode_read_response(Writer& w, const ReadResponseView& resp) {
  w.reserve(w.size() + kReadRespHeader + resp.data.size());
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.u64(resp.version);
  w.blob(resp.data);
  w.u64(resp.abort_scope);
  w.u32(resp.abort_depth);
  w.u64(resp.abort_chk);
}

void ReadResponse::encode_into(Writer& w) const {
  encode_read_response(w, ReadResponseView{.status = status,
                                           .version = version,
                                           .data = data,
                                           .abort_scope = abort_scope,
                                           .abort_depth = abort_depth,
                                           .abort_chk = abort_chk});
}

ReadResponseView ReadResponse::decode_view(const Bytes& b) {
  Reader r(b);
  ReadResponseView v;
  v.status = checked_enum(r.u8(), ReadStatus::kAbort);
  v.version = r.u64();
  v.data = r.blob_view();
  v.abort_scope = r.u64();
  v.abort_depth = r.u32();
  v.abort_chk = r.u64();
  r.expect_done();
  return v;
}

void CommitRequest::encode_into(Writer& w) const {
  encode_commit_request_from(w, txn, readset, writeset);
}

void encode_commit_request(Writer& w, TxnId txn,
                           std::span<const CommitReadEntry> readset,
                           std::span<const store::WriteView> writeset) {
  encode_commit_request_from(w, txn, readset, writeset);
}

Bytes CommitRequest::encode() const {
  Writer w;
  encode_into(w);
  return std::move(w).take();
}

CommitRequestView CommitRequest::decode_view(const Bytes& b) {
  Reader r(b);
  CommitRequestView v;
  v.txn = r.u64();
  v.readset = decode_records<kCommitReadEntryBytes, CommitReadEntry,
                             decode_read_entry>(r);
  v.writeset = store::read_write_run(r);
  r.expect_done();
  return v;
}

CommitRequest CommitRequest::decode(const Bytes& b) {
  const CommitRequestView v = decode_view(b);
  CommitRequest req;
  req.txn = v.txn;
  req.readset.reserve(v.readset.size());
  for (std::size_t i = 0; i < v.readset.size(); ++i) {
    req.readset.push_back(v.readset[i]);
  }
  req.writeset.reserve(v.writeset.size());
  for (const store::WriteView& e : v.writeset) {
    req.writeset.push_back(CommitWriteEntry{.id = e.id,
                                            .base = e.base,
                                            .data = Bytes(e.data.begin(),
                                                          e.data.end()),
                                            .steps = e.steps});
  }
  return req;
}

void VoteResponse::encode_into(Writer& w) const {
  w.reserve(w.size() + 1 + 4 + stale.size() * 8);
  w.boolean(commit);
  encode_records<8>(w, stale, encode_stale_id);
}

VoteResponseView VoteResponse::decode_view(const Bytes& b) {
  Reader r(b);
  VoteResponseView v;
  v.commit = r.boolean();
  v.stale = decode_records<8, ObjectId, decode_stale_id>(r);
  r.expect_done();
  return v;
}

void SyncPullRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 4 + have.size() * 16);
  encode_vec(w, have, [](Writer& w2, const SyncBound& e) {
    w2.u64(e.id);
    w2.u64(e.version);
  });
}

SyncPullRequest SyncPullRequest::decode(const Bytes& b) {
  Reader r(b);
  SyncPullRequest req;
  req.have = decode_vec<SyncBound>(r, [](Reader& r2) {
    SyncBound e;
    e.id = r2.u64();
    e.version = r2.u64();
    return e;
  });
  r.expect_done();
  return req;
}

void SyncPullResponse::encode_into(Writer& w) const {
  std::size_t n = 1 + 8 + 4;
  for (const SyncEntry& e : entries) n += 8 + 8 + 4 + e.data.size();
  w.reserve(w.size() + n);
  w.boolean(ok);
  w.u64(total_objects);
  encode_vec(w, entries, [](Writer& w2, const SyncEntry& e) {
    w2.u64(e.id);
    w2.u64(e.version);
    w2.blob(e.data);
  });
}

SyncPullResponse SyncPullResponse::decode(const Bytes& b) {
  Reader r(b);
  SyncPullResponse resp;
  resp.ok = r.boolean();
  resp.total_objects = r.u64();
  resp.entries = decode_vec<SyncEntry>(r, [](Reader& r2) {
    SyncEntry e;
    e.id = r2.u64();
    e.version = r2.u64();
    e.data = r2.blob();
    return e;
  });
  r.expect_done();
  return resp;
}

void TxnStatusRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 8);
  w.u64(txn);
}

TxnStatusRequest TxnStatusRequest::decode(const Bytes& b) {
  Reader r(b);
  TxnStatusRequest req;
  req.txn = r.u64();
  r.expect_done();
  return req;
}

void TxnStatusResponse::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 1 + 4);
  w.u64(txn);
  w.u8(static_cast<std::uint8_t>(status));
  w.u32(epoch);
}

TxnStatusResponse TxnStatusResponse::decode(const Bytes& b) {
  Reader r(b);
  TxnStatusResponse resp;
  resp.txn = r.u64();
  resp.status = checked_enum(r.u8(), TxnStatus::kPrepared);
  resp.epoch = r.u32();
  r.expect_done();
  return resp;
}

void CommitConfirm::encode_into(Writer& w) const {
  encode_commit_confirm_from(w, txn, commit, writeset);
}

void encode_commit_confirm(Writer& w, TxnId txn, bool commit,
                           std::span<const store::WriteView> writeset) {
  encode_commit_confirm_from(w, txn, commit, writeset);
}

void encode_commit_confirm_head(Writer& w, TxnId txn, bool commit) {
  w.u64(txn);
  w.boolean(commit);
}

CommitConfirmView CommitConfirm::decode_view(const Bytes& b) {
  Reader r(b);
  CommitConfirmView v;
  v.txn = r.u64();
  v.commit = r.boolean();
  v.writeset = store::read_write_run(r);
  r.expect_done();
  return v;
}

}  // namespace qrdtm::core
