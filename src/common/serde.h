// Hand-rolled wire format: a bounds-checked little-endian reader/writer pair.
//
// All qrdtm RPC payloads and replicated object values are encoded with these
// primitives.  The format is deliberately simple:
//   * fixed-width little-endian integers (u8/u16/u32/u64, i64),
//   * doubles as their IEEE-754 bit pattern,
//   * strings and byte blobs as u32 length + raw bytes,
//   * vectors as u32 count + elements.
// Decoding is fully bounds-checked and throws SerdeError on malformed input
// (a replica must never crash on a corrupt message).
//
// The host is little-endian (asserted below), so a fixed-width field's
// in-memory bytes already are its wire bytes: Writer and Reader copy each
// field whole with one memcpy instead of shifting it out byte by byte.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
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

  void blob(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw append without a length prefix (for nested pre-encoded sections).
  void raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  Bytes take() && { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    if (buf_.capacity() - buf_.size() < sizeof(T)) grow(sizeof(T));
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
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
  explicit Reader(const Bytes& buf) : buf_(buf.data()), size_(buf.size()) {}
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
    std::uint32_t n = u32();
    need(n);
    Bytes b(buf_ + pos_, buf_ + pos_ + n);
    pos_ += n;
    return b;
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

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

/// Encode a vector with a u32 count prefix using a per-element encoder.
template <class T, class EncodeFn>
void encode_vec(Writer& w, const std::vector<T>& v, EncodeFn&& enc) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const T& e : v) enc(w, e);
}

/// Decode a vector written by encode_vec.  The element decoder returns T.
/// `reuse` lends its storage (cleared first): a caller that decodes into the
/// same vector every time (`v = decode_vec<T>(r, dec, std::move(v))`)
/// allocates only when a count outgrows every earlier one.
template <class T, class DecodeFn>
std::vector<T> decode_vec(Reader& r, DecodeFn&& dec,
                          std::vector<T> reuse = {}) {
  std::uint32_t n = r.u32();
  // Guard against absurd counts from corrupt input before reserving.
  if (n > r.remaining()) throw SerdeError("vector count exceeds buffer");
  reuse.clear();
  reuse.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) reuse.push_back(dec(r));
  return reuse;
}

}  // namespace qrdtm
