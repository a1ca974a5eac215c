// Flat hash table keyed by a 64-bit id (a TxnId or an ObjectId).
//
// Open addressing with linear probing over a power-of-two slot array that
// is at most half full (see below); the home slot is the top bits of
// key * 2^64/phi (Fibonacci hashing), so keys that differ only in their
// high bits still spread.  Erase shifts the following run of the probe chain back (no
// tombstones), so a lookup always ends at the first empty slot.  Slots hold
// the key beside the value and nothing else: key 0 marks an empty slot, and
// the one entry whose key is 0 lives beside the array.  A slot keeps its
// key as two 32-bit halves, so it aligns to its value, not to the key: a
// 4-byte value makes a 12-byte slot, and a probe still reads one slot in
// one place.  Nothing is allocated per entry; the slot array only grows,
// by doubling, when an insert would pass half full (three quarters for a
// table built with late growth, whose owner grows it with reserve at its
// own quiet points), and a default-constructed table has none.
//
// The layout depends only on the keys and the order of the operations, so
// iteration (for_each) is deterministic, though not sorted.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qrdtm {

template <class V>
class FlatTable {
 public:
  using Key = std::uint64_t;

 private:
  struct Slot {
    std::uint32_t lo = 0;  // the key's halves; key 0 = empty
    std::uint32_t hi = 0;
    V value{};
    Key key() const { return (Key{hi} << 32) | lo; }
    void set_key(Key k) {
      lo = static_cast<std::uint32_t>(k);
      hi = static_cast<std::uint32_t>(k >> 32);
    }
  };

 public:
  FlatTable() = default;
  /// With `late_growth`, an insert grows the table only past three
  /// quarters full, for an owner that calls reserve(size()) at its own
  /// quiet points (a log cut) to bring it back to half full: the table
  /// then grows there rather than on an insert.
  explicit FlatTable(bool late_growth) : late_growth_(late_growth) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes of one slot: the key's two halves and the value, padded to the
  /// value's alignment.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
  /// Bytes the slot array holds.
  std::size_t capacity_bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// The value stored for `k`, or nullptr.
  V* find(Key k) {
    return const_cast<V*>(std::as_const(*this).find(k));
  }
  const V* find(Key k) const {
    if (k == 0) return has_zero_ ? &zero_ : nullptr;
    const std::size_t i = locate(k);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  bool contains(Key k) const { return find(k) != nullptr; }

  /// The value for `k`, value-initialised first when absent.  The
  /// reference is valid until the next insert.
  V& operator[](Key k) {
    if (V* v = find(k)) return *v;
    ++size_;
    if (k == 0) {
      has_zero_ = true;
      zero_ = V{};
      return zero_;
    }
    if (late_growth_ ? 4 * size_ > 3 * slots_.size()
                     : 2 * size_ > slots_.size()) {
      grow(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    }
    Slot& s = slots_[free_slot(k)];
    s.set_key(k);
    s.value = V{};
    return s.value;
  }

  /// Remove `k`; false when it was absent.
  bool erase(Key k) {
    if (k == 0) {
      if (!has_zero_) return false;
      has_zero_ = false;
      zero_ = V{};
      --size_;
      return true;
    }
    std::size_t hole = locate(k);
    if (hole == kNone) return false;
    const std::size_t mask = slots_.size() - 1;
    // Pull back every later member of the probe chain whose home does not
    // lie cyclically in (hole, j]: it was displaced past the hole.
    for (std::size_t j = (hole + 1) & mask; slots_[j].key() != 0;
         j = (j + 1) & mask) {
      const std::size_t home = home_of(slots_[j].key());
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Make room for `n` entries at most half full, so inserts up to that
  /// size do not grow the slot array.
  void reserve(std::size_t n) {
    std::size_t slots = slots_.empty() ? kInitialSlots : slots_.size();
    while (2 * n > slots) slots *= 2;
    if (slots > slots_.size()) grow(slots);
  }

  /// Empty the table, keeping its slot array.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    has_zero_ = false;
    zero_ = V{};
    size_ = 0;
  }

  /// Calls f(key, value) for every entry: key 0 first, then slot order.
  template <class F>
  void for_each(F&& f) const {
    if (has_zero_) f(Key{0}, zero_);
    for (const Slot& s : slots_) {
      if (s.key() != 0) f(s.key(), s.value);
    }
  }
  template <class F>
  void for_each(F&& f) {
    if (has_zero_) f(Key{0}, zero_);
    for (Slot& s : slots_) {
      if (s.key() != 0) f(s.key(), s.value);
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kInitialSlots = 16;

  std::size_t home_of(Key k) const {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The slot holding `k` (not 0), or kNone.  The array is at most three
  /// quarters full, so the probe always reaches an empty slot.
  std::size_t locate(Key k) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home_of(k);; i = (i + 1) & mask) {
      const Key at = slots_[i].key();
      if (at == k) return i;
      if (at == 0) return kNone;
    }
  }

  /// The first empty slot from k's home.
  std::size_t free_slot(Key k) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_of(k);
    while (slots_[i].key() != 0) i = (i + 1) & mask;
    return i;
  }

  /// Replace the slot array with one of `n` slots (a larger power of two)
  /// and re-home every entry.
  void grow(std::size_t n) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(n);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (Slot& s : old) {
      if (s.key() != 0) slots_[free_slot(s.key())] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  V zero_{};  // the value of key 0, when has_zero_
  bool has_zero_ = false;
  std::size_t size_ = 0;
  unsigned shift_ = 0;
  bool late_growth_ = false;
};

}  // namespace qrdtm
