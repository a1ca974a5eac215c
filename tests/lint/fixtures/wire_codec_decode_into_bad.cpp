// A ReadRequest-shaped codec whose decode delegates to an in-place
// decode_into, and decode_into skips the `object` field.  The analyzer must
// check decode_into as the struct's decoder: a decode that only forwards
// would otherwise leave the struct with no decoder and nothing to compare.
#include <cstdint>
#include <vector>

struct FetchRequest {
  std::uint64_t root = 0;
  std::uint64_t object = 0;
  std::vector<std::uint64_t> dataset;

  void encode_into(Writer& w) const;
  static FetchRequest decode(const Bytes& b);
  void decode_into(const Bytes& b);
};

void FetchRequest::encode_into(Writer& w) const {
  w.u64(root);
  w.u64(object);
  encode_vec(w, dataset, [](Writer& w2, std::uint64_t id) { w2.u64(id); });
}

void FetchRequest::decode_into(const Bytes& b) {
  Reader r(b);
  root = r.u64();
  // BUG (deliberate): `object` is never decoded.
  dataset = decode_vec<std::uint64_t>(
      r, [](Reader& r2) { return r2.u64(); }, std::move(dataset));
  r.expect_done();
}

FetchRequest FetchRequest::decode(const Bytes& b) {
  FetchRequest req;
  req.decode_into(b);
  return req;
}
