// Canary fixture: a deliberate copy of the VoteResponse codec shape from
// src/core/wire.cpp with the decode of the `stale` vector dropped.  The
// analyzer MUST catch this -- it is the regression the codec-symmetry
// family exists to prevent (a voter silently losing its stale-object list
// would mask every batch conflict).
#include <cstdint>
#include <vector>

struct VoteReply {
  bool commit = false;
  std::vector<std::uint64_t> stale;

  void encode_into(Writer& w) const;
  static VoteReply decode(const Bytes& b);
};

void VoteReply::encode_into(Writer& w) const {
  w.reserve(w.size() + 1 + 4 + stale.size() * 8);
  w.boolean(commit);
  encode_vec(w, stale, [](Writer& w2, std::uint64_t id) { w2.u64(id); });
}

VoteReply VoteReply::decode(const Bytes& b) {
  Reader r(b);
  VoteReply v;
  v.commit = r.boolean();
  // BUG (deliberate): the `stale` vector is never decoded.
  r.expect_done();
  return v;
}
