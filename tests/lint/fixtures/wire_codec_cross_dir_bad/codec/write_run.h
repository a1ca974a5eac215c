// The cross-directory entry codec of wire_codec_cross_dir_good with `base`
// and `steps` swapped in the encoder: msg/wire.cpp's write-set elements
// resolve here across directories, and the analyzer must report that the
// encoder and decoder disagree.
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
  // BUG (deliberate): `steps` and `base` swapped.
  w.u32(e.steps);
  w.u64(e.base);
  w.blob(e.data);
}

}  // namespace codec
