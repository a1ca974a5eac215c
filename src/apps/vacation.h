// Vacation macro-benchmark: a travel-reservation system after STAMP's
// `vacation` (paper §VI-B/C), rebuilt from scratch on the DTM API.
//
// State: three resource tables (cars, rooms, flights) of `num_objects`
// resources each -- a resource object is {total, avail, price} -- plus one
// customer object per customer holding its reservation list.
//
// Operations (one per closed-nested call, matching the paper: "each of the
// reservations for car, hotel and flight forms a CT"):
//   * reserve -- query a few candidate resources of one table, pick the
//     cheapest with availability, decrement it, append to the customer;
//   * cancel  -- drop the customer's most recent reservation in the table
//     and return the unit;
//   * query   -- read-only price/availability check of candidates.
// Invariant: for every resource, total - avail equals the number of
// reservations of it across all customers.
#pragma once

#include "apps/app.h"

namespace qrdtm::apps {

class VacationApp final : public App {
 public:
  std::string name() const override { return "vacation"; }
  void setup(Cluster& cluster, const WorkloadParams& params,
             Rng& rng) override;
  TxnBody make_txn(const WorkloadParams& params, Rng& rng) override;
  TxnBody make_checker(bool* ok) override;

  static constexpr std::uint32_t kTables = 3;  // car, room, flight
  static constexpr std::uint32_t kCandidates = 2;

  /// Object ids of the seeded tables, shared (not copied) by every body.
  struct Layout {
    std::vector<std::vector<ObjectId>> tables;  // [table][index] -> resource
    std::vector<ObjectId> customers;
  };

 private:
  std::uint32_t per_table_ = 0;
  std::shared_ptr<const Layout> layout_;
};

}  // namespace qrdtm::apps
