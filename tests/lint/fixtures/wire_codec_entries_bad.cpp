// The variable-length entry codec of wire_codec_entries_good.cpp with the
// in-place entry decoder skipping `steps`: encode_vec writes four fields per
// entry but decode_entries' entry decoder (its last template argument)
// reads three, so every entry after the first is misparsed.  The analyzer
// must compare the entry codecs and report the mismatch.
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
  // BUG (deliberate): `steps` is never decoded.
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
