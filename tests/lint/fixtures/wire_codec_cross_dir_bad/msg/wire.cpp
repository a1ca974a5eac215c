// Fixture: a commit-shaped message whose write-set entries are coded by
// the namespace-qualified entry codec of ../codec/write_run.h: encode_vec
// with a lambda calling codec::encode_write, and a decode_view reading the
// run through codec::read_write_run.
#include <cstdint>
#include <vector>

struct WriteEntry {
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  Bytes data;
  std::uint32_t steps = 1;
};

struct VoteRequestView;

struct VoteRequest {
  std::uint64_t txn = 0;
  std::vector<WriteEntry> writeset;

  void encode_into(Writer& w) const;
  static VoteRequestView decode_view(const Bytes& b);
};

struct VoteRequestView {
  std::uint64_t txn = 0;
  codec::WriteRun writeset;
};

void VoteRequest::encode_into(Writer& w) const {
  w.u64(txn);
  encode_vec(w, writeset,
             [](Writer& w2, const auto& e) { codec::encode_write(w2, e); });
}

VoteRequestView VoteRequest::decode_view(const Bytes& b) {
  Reader r(b);
  VoteRequestView v;
  v.txn = r.u64();
  v.writeset = codec::read_write_run(r);
  r.expect_done();
  return v;
}
