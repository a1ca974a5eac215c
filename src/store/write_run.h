// The encoded write run: the one byte format of a 2PC write-set.
//
// A run is a u32 count, then per write a u64 id, a u64 base, a u32 steps
// and a u32-length-prefixed value; the committed version is base + steps.
// A coordinator's commit request and confirm carry their write-set as one
// run (core/wire.h), a replica logs its prepare as the run it was sent
// (store/commit_log.h), and a replica resolving an in-doubt commit re-sends
// that logged run behind a confirm header.  This header is the one codec
// for it: the entry view, its decoder, the run reader, the entry encoder
// (over owned and borrowed entries alike) and the run's encoded size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/serde.h"
#include "store/object.h"

namespace qrdtm::store {

/// One write of an encoded run, read in place: `data` borrows the run.
struct WriteView {
  ObjectId id = 0;
  Version base = 0;
  std::uint32_t steps = 1;
  std::span<const std::uint8_t> data;
};

/// Reads one write in place: the decode half of encode_write.
inline WriteView decode_write(Reader& r) {
  WriteView w;
  w.id = r.u64();
  w.base = r.u64();
  w.steps = r.u32();
  w.data = r.blob_view();
  return w;
}

/// A write run left in place in its buffer.
using WriteRun = EntryRun<WriteView, decode_write>;

/// Reads the run that starts at `r`'s cursor, walking every write once;
/// SerdeError when a count or a write overruns the buffer.
inline WriteRun read_write_run(Reader& r) {
  return decode_entries<WriteView, decode_write>(r);
}

/// Writes one entry with an id, base, steps and data, owned or borrowed.
template <class Entry>
void encode_write(Writer& w, const Entry& e) {
  w.u64(e.id);
  w.u64(e.base);
  w.u32(e.steps);
  w.blob(e.data);
}

/// Encoded size of the run of `writes`, count included.
template <class Writes>
std::size_t write_run_bytes(const Writes& writes) {
  std::size_t n = 4;
  for (const auto& e : writes) n += 8 + 8 + 4 + 4 + e.data.size();
  return n;
}

}  // namespace qrdtm::store
