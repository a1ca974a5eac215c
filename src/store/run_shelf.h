// RunShelf -- one copy of each logged write run per cluster.
//
// QR commits through 2PC against a write quorum, so every member that votes
// yes logs the same encoded write run (store/commit_log.h), and the
// coordinator's decision record holds it once more, at the end of the
// encoded confirm.  Rather than each log copying the run into its own tail,
// the run lives once on the cluster's shelf, in an immutable
// reference-counted block, and each log's prepare and decision records
// refer to it.  A log takes the run already on the shelf for the same
// transaction only when its bytes are identical (memcmp), so sharing never
// changes what a log replays: a sharded replica that logs a different
// subset of the write-set gets a run of its own, and so does a decision
// whose quorum logged nothing.
//
// Matching is by a direct-mapped table of kSlots weak entries keyed by
// transaction id: the votes of one transaction arrive within a few link
// latencies of each other, so the latest run for a txn is all a lookup
// needs.  A colliding txn merely takes the slot, and a later identical run
// of the displaced txn gets a second copy.
//
// Runs are bump-allocated from kChunkBytes chunks (a bigger run gets a
// chunk of its own).  Each run counts the logs that refer to it, each chunk
// the runs alive in it; a run is freed -- and leaves its slot -- when its
// last reference goes, and a chunk when its last run does, except the open
// chunk, which starts over once it empties.  So a warm 2PC round between
// cuts allocates nothing, and logs that keep thousands of runs alive
// between cuts cost one allocation per chunk, not one per run.  The counts
// are plain integers: a shelf belongs to one simulation, which is
// single-threaded.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "store/object.h"

namespace qrdtm::store {

class RunShelf {
  struct Chunk;

 public:
  /// Size of a run chunk; a run larger than one gets a chunk of its own.
  static constexpr std::size_t kChunkBytes = std::size_t{32} << 10;
  /// Match table size (a power of two).
  static constexpr std::size_t kSlots = 4096;

  /// One immutable encoded run; its bytes follow the header.
  struct Run {
    Chunk* chunk;
    TxnId txn;
    std::uint32_t refs;
    std::uint32_t size;
    std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
    std::span<const std::uint8_t> bytes() const {
      return {reinterpret_cast<const std::uint8_t*>(this + 1), size};
    }
  };

  RunShelf() = default;
  RunShelf(const RunShelf&) = delete;
  RunShelf& operator=(const RunShelf&) = delete;
  ~RunShelf() {
    QRDTM_CHECK_MSG(live_runs_ == 0, "run shelf destroyed with runs alive");
    ::operator delete(open_);
  }

  /// The run of `txn` holding exactly `bytes`, with one reference taken:
  /// the run already on the shelf for `txn` when its bytes are identical,
  /// else a new one, which then takes `txn`'s slot.
  Run* share(TxnId txn, std::span<const std::uint8_t> bytes) {
    Run*& slot = slots_[slot_of(txn)];
    if (slot != nullptr && slot->txn == txn && slot->size == bytes.size() &&
        std::memcmp(slot->bytes().data(), bytes.data(), bytes.size()) == 0) {
      ++slot->refs;
      return slot;
    }
    Run* run = place(bytes.size());
    run->txn = txn;
    run->refs = 1;
    run->size = static_cast<std::uint32_t>(bytes.size());
    if (!bytes.empty()) std::memcpy(run->data(), bytes.data(), bytes.size());
    slot = run;
    live_bytes_ += bytes.size();
    ++live_runs_;
    return run;
  }

  /// Take one more reference to `run`.
  static void hold(Run* run) { ++run->refs; }

  /// Drop one reference to `run`; the last one frees it.
  void drop(Run* run) {
    if (--run->refs != 0) return;
    Run*& slot = slots_[slot_of(run->txn)];
    if (slot == run) slot = nullptr;
    live_bytes_ -= run->size;
    --live_runs_;
    Chunk* chunk = run->chunk;
    if (--chunk->live == 0 && chunk != open_) ::operator delete(chunk);
  }

  /// Bytes of the runs alive on the shelf, each run counted once.
  std::size_t live_bytes() const { return live_bytes_; }
  /// Runs alive on the shelf.
  std::size_t live_runs() const { return live_runs_; }

 private:
  struct alignas(Run) Chunk {
    std::uint32_t live = 0;
    std::uint32_t used = 0;
    std::uint32_t capacity = 0;
    std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  };
  static_assert(sizeof(Chunk) % alignof(Run) == 0);

  static std::size_t slot_of(TxnId txn) {
    // Fibonacci hashing: txn ids differ mostly in their low counter bits.
    return static_cast<std::size_t>((txn * 0x9e3779b97f4a7c15ull) >> 52) &
           (kSlots - 1);
  }
  static std::size_t footprint(std::size_t size) {
    const std::size_t bytes = sizeof(Run) + size;
    return (bytes + alignof(Run) - 1) / alignof(Run) * alignof(Run);
  }

  /// Room for a run of `size` bytes: in the open chunk, else in a new one.
  Run* place(std::size_t size) {
    const std::size_t need = footprint(size);
    if (open_ != nullptr && open_->live == 0) open_->used = 0;  // start over
    if (open_ == nullptr || open_->capacity - open_->used < need) {
      const std::size_t capacity = std::max(kChunkBytes, need);
      Chunk* full = std::exchange(
          open_, ::new (::operator new(sizeof(Chunk) + capacity))
                     Chunk{0, 0, static_cast<std::uint32_t>(capacity)});
      if (full != nullptr && full->live == 0) ::operator delete(full);
    }
    Run* run = ::new (open_->data() + open_->used) Run{};
    run->chunk = open_;
    open_->used += static_cast<std::uint32_t>(need);
    ++open_->live;
    return run;
  }

  std::array<Run*, kSlots> slots_{};
  Chunk* open_ = nullptr;  // the chunk new runs are placed in
  std::size_t live_bytes_ = 0;
  std::size_t live_runs_ = 0;
};

/// The runs one log refers to, in the order it took them (a prepare or
/// decision record names its run by this index), and the shelf they live
/// on.  A copy takes references of its own; destroying or reassigning drops
/// them while the shelf is still held.
class RunRefs {
 public:
  explicit RunRefs(std::shared_ptr<RunShelf> shelf) : shelf_(std::move(shelf)) {}
  RunRefs(const RunRefs& other) : shelf_(other.shelf_), runs_(other.runs_) {
    for (RunShelf::Run* run : runs_) RunShelf::hold(run);
  }
  RunRefs(RunRefs&& other) noexcept
      : shelf_(std::move(other.shelf_)), runs_(std::exchange(other.runs_, {})) {}
  RunRefs& operator=(RunRefs other) noexcept {
    std::swap(shelf_, other.shelf_);
    std::swap(runs_, other.runs_);
    return *this;
  }
  ~RunRefs() { truncate(0); }

  /// Refer to `txn`'s run of exactly `bytes`; returns its index.
  std::uint32_t add(TxnId txn, std::span<const std::uint8_t> bytes) {
    if (runs_.capacity() == 0) runs_.reserve(kInitialRefs);
    runs_.push_back(shelf_->share(txn, bytes));
    return static_cast<std::uint32_t>(runs_.size() - 1);
  }
  std::size_t size() const { return runs_.size(); }
  std::span<const std::uint8_t> operator[](std::size_t i) const {
    return runs_[i]->bytes();
  }
  /// Drop every reference from index `n` on (keeping the table's room).
  void truncate(std::size_t n) {
    while (runs_.size() > n) {
      shelf_->drop(runs_.back());
      runs_.pop_back();
    }
  }
  /// The bytes of the runs referred to.
  std::size_t referenced_bytes() const {
    std::size_t bytes = 0;
    for (const RunShelf::Run* run : runs_) bytes += run->size;
    return bytes;
  }

 private:
  // Index slots made on a log's first record with a run, so the table
  // rarely regrows between cuts.
  static constexpr std::size_t kInitialRefs = 256;

  std::shared_ptr<RunShelf> shelf_;
  std::vector<RunShelf::Run*> runs_;
};

}  // namespace qrdtm::store
