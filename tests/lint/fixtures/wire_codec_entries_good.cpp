// Fixture: a CommitRequest-shaped codec whose write-set travels as
// variable-length entries: encode_vec writes them, and the in-place parser
// decode_view reads them back as a checked run with decode_entries, whose
// entry decoder (its last template argument) borrows each value with
// blob_view.  decode delegates to decode_view.  Symmetric: must produce no
// codec diagnostics.
#include <cstdint>
#include <span>
#include <vector>

struct WriteEntry {
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  Bytes data;
  std::uint32_t steps = 1;
};

struct WriteView {
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  std::uint32_t steps = 1;
  std::span<const std::uint8_t> data;
};

void encode_write(Writer& w, const WriteEntry& e) {
  w.u64(e.id);
  w.u64(e.base);
  w.u32(e.steps);
  w.blob(e.data);
}

WriteView decode_write_view(Reader& r) {
  WriteView e;
  e.id = r.u64();
  e.base = r.u64();
  e.steps = r.u32();
  e.data = r.blob_view();
  return e;
}

struct VoteRequestView;

struct VoteRequest {
  std::uint64_t txn = 0;
  std::vector<WriteEntry> writeset;

  void encode_into(Writer& w) const;
  static VoteRequest decode(const Bytes& b);
  static VoteRequestView decode_view(const Bytes& b);
};

void VoteRequest::encode_into(Writer& w) const {
  w.u64(txn);
  encode_vec(w, writeset, encode_write);
}

VoteRequestView VoteRequest::decode_view(const Bytes& b) {
  Reader r(b);
  VoteRequestView v;
  v.txn = r.u64();
  v.writeset = decode_entries<WriteView, decode_write_view>(r);
  r.expect_done();
  return v;
}

VoteRequest VoteRequest::decode(const Bytes& b) {
  const VoteRequestView v = decode_view(b);
  VoteRequest req;
  req.txn = v.txn;
  for (const WriteView& e : v.writeset) {
    req.writeset.push_back(
        WriteEntry{e.id, e.base, Bytes(e.data.begin(), e.data.end()),
                   e.steps});
  }
  return req;
}
