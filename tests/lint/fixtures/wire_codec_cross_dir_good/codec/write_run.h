// Fixture: an entry codec in a directory of its own (codec/), called by a
// message codec in another (msg/wire.cpp).  Linted together, the message's
// element codecs resolve here and agree: no codec diagnostics.
#include <cstdint>
#include <span>

namespace codec {

struct WriteView {
  std::uint64_t id = 0;
  std::uint64_t base = 0;
  std::uint32_t steps = 1;
  std::span<const std::uint8_t> data;
};

inline WriteView decode_write(Reader& r) {
  WriteView e;
  e.id = r.u64();
  e.base = r.u64();
  e.steps = r.u32();
  e.data = r.blob_view();
  return e;
}

using WriteRun = EntryRun<WriteView, decode_write>;

inline WriteRun read_write_run(Reader& r) {
  return decode_entries<WriteView, decode_write>(r);
}

template <class Entry>
void encode_write(Writer& w, const Entry& e) {
  w.u64(e.id);
  w.u64(e.base);
  w.u32(e.steps);
  w.blob(e.data);
}

}  // namespace codec
