// Distributed Hashmap micro-benchmark (paper §VI-C).
//
// Layout: a fixed array of bucket-head objects, each heading a chain of
// entry objects (separate chaining).  Every chain node is its own DTM
// object, so a lookup reads the whole chain prefix -- growing the key
// population at a fixed bucket count lengthens chains, read-sets, and hence
// contention, matching the paper's observation that Hashmap contention
// *increases* with the number of objects (Fig. 7).
//
// Operations: get(k) (read-only), put(k, v) (insert or update),
// remove(k).  Writes split evenly between put and remove so the population
// stays near its seeded size.
#pragma once

#include "apps/app.h"

namespace qrdtm::apps {

class HashmapApp final : public App {
 public:
  explicit HashmapApp(std::uint32_t num_buckets = 8)
      : num_buckets_(num_buckets) {}

  std::string name() const override { return "hashmap"; }
  void setup(Cluster& cluster, const WorkloadParams& params,
             Rng& rng) override;
  TxnBody make_txn(const WorkloadParams& params, Rng& rng) override;
  TxnBody make_checker(bool* ok) override;

  std::uint64_t key_space() const { return key_space_; }

  /// One data-structure operation as a nested-transaction body; exposed for
  /// targeted tests.
  enum class OpKind { kGet, kInsert, kRemove };
  static sim::Task<void> run_op(Txn& ct, const std::vector<ObjectId>& buckets,
                                std::uint32_t num_buckets, OpKind kind,
                                std::uint64_t key, std::int64_t value,
                                sim::Tick compute);

  /// Single-operation transaction bodies (tests and examples).
  TxnBody make_op(OpKind kind, std::uint64_t key, std::int64_t value);
  TxnBody make_lookup(std::uint64_t key, std::int64_t* value, bool* found);

  /// Prior state recorded by a mutating operation, consumed by its QR-ON
  /// compensation (valid because the key's abstract lock is held until the
  /// root settles, so nothing else can touch the key in between).
  struct Undo {
    bool mutated = false;
    bool existed = false;
    std::int64_t old_value = 0;
  };

  /// QR-ON workload: each data-structure operation is an open-nested
  /// operation holding the key's abstract lock, with a state-restoring
  /// compensation (extension beyond the paper; see DESIGN.md §6).
  TxnBody make_txn_open(const WorkloadParams& params, Rng& rng);

 private:
  std::uint32_t num_buckets_;
  std::uint64_t key_space_ = 0;
  std::vector<ObjectId> buckets_;
};

}  // namespace qrdtm::apps
