// Hand-rolled wire format: a bounds-checked little-endian reader/writer pair.
//
// All qrdtm RPC payloads and replicated object values are encoded with these
// primitives.  The format is deliberately simple:
//   * fixed-width little-endian integers (u8/u16/u32/u64, i64),
//   * doubles as their IEEE-754 bit pattern,
//   * strings and byte blobs as u32 length + raw bytes,
//   * vectors as u32 count + elements,
//   * runs of fixed-size records as u32 count + count * stride bytes
//     (encode_records / decode_records): written with one buffer extension,
//     bounds-checked as a whole on decode and then read in place through a
//     RecordView, record by record, without a decoded copy,
//   * runs of variable-length entries as u32 count + entries (encode_vec on
//     the write side, decode_entries on the read side): walked once on
//     decode to check every entry's bounds, then read in place through an
//     EntryRun whose entries borrow their blobs from the buffer.
// Decoding is fully bounds-checked and throws SerdeError on malformed input
// (a replica must never crash on a corrupt message).
//
// The host is little-endian (asserted below), so a fixed-width field's
// in-memory bytes already are its wire bytes: Writer and Reader copy each
// field whole with one memcpy instead of shifting it out byte by byte.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace qrdtm {

static_assert(std::endian::native == std::endian::little,
              "Writer/Reader copy fixed-width fields in host byte order");

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only encoder.
class Writer {
 public:
  Writer() = default;

  /// Adopt `reuse` as the backing buffer (cleared, capacity retained).  Pair
  /// with a BufferPool to encode without allocating in steady state.
  explicit Writer(Bytes reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  /// Adopt `buf` and append after what it already holds (a log tail that
  /// frames each record in place).
  static Writer appending(Bytes buf) {
    Writer w;
    w.buf_ = std::move(buf);
    return w;
  }

  /// Pre-size the buffer for an encode of known (or estimated) size.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw append without a length prefix (for nested pre-encoded sections).
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Overwrite the u32 at byte offset `at`, written earlier: a length
  /// prefix filled in once its payload is encoded.
  void patch_u32(std::size_t at, std::uint32_t v) {
    if (at > buf_.size() || buf_.size() - at < sizeof(v)) {
      throw SerdeError("patch past the end");
    }
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }

  /// Append `n` zeroed bytes and return where they start, for a caller
  /// that fills them at fixed offsets (encode_records).  The pointer is
  /// valid until the next append.
  std::uint8_t* extend(std::size_t n) {
    if (buf_.capacity() - buf_.size() < n) grow(n);
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  Bytes take() && { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    std::memcpy(extend(sizeof(T)), &v, sizeof(T));
  }
  // Growth happens here, out of line, so the resize above never reallocates
  // where the optimiser can see it.  GCC 12 at -Wall -Wextra reports false
  // -Warray-bounds for a bare resize + memcpy and -Wstringop-overflow for
  // insert(end, p, p + N); this form compiles clean.
  [[gnu::noinline]] void grow(std::size_t n) {
    buf_.reserve(std::max(buf_.capacity() * 2, buf_.size() + n));
  }
  Bytes buf_;
};

/// Bounds-checked decoder over a borrowed buffer.  The buffer must outlive
/// the Reader.
class Reader {
 public:
  /// Reads a Bytes or a borrowed span (a value Txn::read lent).
  explicit Reader(std::span<const std::uint8_t> buf)
      : buf_(buf.data()), size_(buf.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : buf_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes blob() {
    const std::span<const std::uint8_t> b = blob_view();
    return Bytes(b.begin(), b.end());
  }

  /// A blob left in place: the span borrows the Reader's buffer.
  std::span<const std::uint8_t> blob_view() { return borrow(u32()); }

  /// The next `n` bytes, borrowed in place.
  std::span<const std::uint8_t> borrow(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> b(buf_ + pos_, n);
    pos_ += n;
    return b;
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Where the next read starts.
  const std::uint8_t* cursor() const { return buf_ + pos_; }

  /// Throws unless the whole buffer was consumed; call at the end of a
  /// message decode to catch trailing-garbage bugs.
  void expect_done() const {
    if (!done()) throw SerdeError("trailing bytes after decode");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw SerdeError("buffer underflow");
  }
  template <class T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    std::memcpy(&v, buf_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Fixed-offset encoder over one record of `size` bytes that encode_records
/// has already appended, with Writer's fixed-width integer fields.  Writing
/// past the record's end throws; with the record encoder inlined the
/// offsets are constants and the checks fold away.
class RecordWriter {
 public:
  RecordWriter(std::uint8_t* at, std::size_t size) : at_(at), size_(size) {}

  void u8(std::uint8_t v) { put_le(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }

  bool full() const { return pos_ == size_; }

 private:
  template <class T>
  void put_le(T v) {
    if (size_ - pos_ < sizeof(T)) throw SerdeError("record overflow");
    std::memcpy(at_ + pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }
  std::uint8_t* at_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Fixed-capacity encoder for a small value (an app's object payload): the
/// Writer's fixed-width fields appended into an inline array, so encoding a
/// value allocates nothing.  Appending past kCapacity throws SerdeError.
/// The encoded bytes are borrowed through bytes() (or the implicit span
/// conversion, so an InlineWriter passes straight to Txn::write).
template <std::size_t kCapacity>
class InlineWriter {
 public:
  void u8(std::uint8_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  std::span<const std::uint8_t> bytes() const { return {buf_.data(), size_}; }
  operator std::span<const std::uint8_t>() const { return bytes(); }
  /// An owning copy, for APIs that store the value (cluster seeding).
  Bytes to_bytes() const { return Bytes(buf_.begin(), buf_.begin() + size_); }

 private:
  template <class T>
  void put_le(T v) {
    if (kCapacity - size_ < sizeof(T)) throw SerdeError("inline overflow");
    std::memcpy(buf_.data() + size_, &v, sizeof(T));
    size_ += sizeof(T);
  }
  std::array<std::uint8_t, kCapacity> buf_{};
  std::size_t size_ = 0;
};

/// Encode `v` (a vector or span) as a u32 count plus one kStride-byte record
/// per element: the buffer is extended once, then `enc(RecordWriter&, const
/// T&)` fills each record at its fixed offset.  The record encoder must
/// write exactly kStride bytes.
template <std::size_t kStride, class Range, class EncodeFn>
void encode_records(Writer& w, const Range& v, EncodeFn&& enc) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  std::uint8_t* at = w.extend(v.size() * kStride);
  for (const auto& e : v) {
    RecordWriter rec(at, kStride);
    enc(rec, e);
    if (!rec.full()) throw SerdeError("record short of its stride");
    at += kStride;
  }
}

/// A run of kStride-byte records left in place in a decoded buffer (which
/// must outlive the view).  decode_records checked the run's bounds as a
/// whole; operator[] decodes record i with Decode over exactly its kStride
/// bytes.
template <std::size_t kStride, class T, T (*Decode)(Reader&)>
class RecordView {
 public:
  RecordView() = default;
  RecordView(const std::uint8_t* data, std::size_t count)
      : data_(data), count_(count) {}

  std::size_t size() const { return count_; }

  T operator[](std::size_t i) const {
    Reader rec(data_ + i * kStride, kStride);
    T v = Decode(rec);
    rec.expect_done();
    return v;
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t count_ = 0;
};

/// Decode the count written by encode_records and borrow its records in
/// place.  A count whose records overrun the buffer throws SerdeError here,
/// before any record is read.
template <std::size_t kStride, class T, T (*Decode)(Reader&)>
RecordView<kStride, T, Decode> decode_records(Reader& r) {
  static_assert(kStride > 0);
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / kStride) {
    throw SerdeError("record count exceeds buffer");
  }
  return {r.borrow(n * kStride).data(), n};
}

/// A run of variable-length entries left in place in a decoded buffer
/// (which must outlive the run): the u32 count, then `count` entries each
/// read by Decode, whose spans borrow the buffer.  decode_entries walked the
/// whole run once, so iterating it stays in bounds; each step decodes one
/// entry, and iterator::raw() is that entry's encoded bytes.
template <class T, T (*Decode)(Reader&)>
class EntryRun {
 public:
  class iterator {
   public:
    iterator(const std::uint8_t* at, const std::uint8_t* end,
             std::size_t left)
        : at_(at), end_(end), left_(left) {
      load();
    }
    const T& operator*() const { return cur_; }
    const T* operator->() const { return &cur_; }
    iterator& operator++() {
      at_ = next_;
      --left_;
      load();
      return *this;
    }
    bool operator==(const iterator& o) const { return left_ == o.left_; }
    /// The current entry as encoded.
    std::span<const std::uint8_t> raw() const { return {at_, next_}; }

   private:
    void load() {
      if (left_ == 0) return;
      Reader r(at_, static_cast<std::size_t>(end_ - at_));
      cur_ = Decode(r);
      next_ = r.cursor();
    }
    const std::uint8_t* at_;
    const std::uint8_t* end_;
    const std::uint8_t* next_ = nullptr;
    std::size_t left_;
    T cur_{};
  };

  EntryRun() = default;
  /// `run` holds the u32 count and the entries; decode_entries checked it.
  EntryRun(std::span<const std::uint8_t> run, std::size_t count)
      : run_(run), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  iterator begin() const {
    if (count_ == 0) return end();
    return {run_.data() + 4, run_.data() + run_.size(), count_};
  }
  iterator end() const {
    return {run_.data() + run_.size(), run_.data() + run_.size(), 0};
  }
  /// The whole run as encoded, count included.
  std::span<const std::uint8_t> bytes() const { return run_; }

 private:
  std::span<const std::uint8_t> run_;
  std::size_t count_ = 0;
};

/// Decode the count written by encode_vec and walk its entries with Decode,
/// leaving them in place.  A count past the buffer, or any entry that
/// overruns it, throws SerdeError here, before the caller reads an entry:
/// exactly the inputs decode_vec with the owning element decoder rejects.
template <class T, T (*Decode)(Reader&)>
EntryRun<T, Decode> decode_entries(Reader& r) {
  const std::uint8_t* start = r.cursor();
  const std::uint32_t n = r.u32();
  if (n > r.remaining()) throw SerdeError("vector count exceeds buffer");
  for (std::uint32_t i = 0; i < n; ++i) (void)Decode(r);
  return {{start, r.cursor()}, n};
}

/// Encode a vector (or span) with a u32 count prefix using a per-element
/// encoder.
template <class Range, class EncodeFn>
void encode_vec(Writer& w, const Range& v, EncodeFn&& enc) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) enc(w, e);
}

/// Decode a vector written by encode_vec.  The element decoder returns T.
template <class T, class DecodeFn>
std::vector<T> decode_vec(Reader& r, DecodeFn&& dec) {
  std::uint32_t n = r.u32();
  // Guard against absurd counts from corrupt input before reserving.
  if (n > r.remaining()) throw SerdeError("vector count exceeds buffer");
  std::vector<T> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(dec(r));
  return v;
}

}  // namespace qrdtm
