// Open nesting (QR-ON) walkthrough: early global commits, abstract locks,
// and compensation.
//
// A travel booking: the root reserves a flight and a hotel as open-nested
// operations (each visible to the world the moment it completes), then
// tries to charge the customer's card.  The charge conflicts and the root
// aborts -- the compensations cancel the two reservations, and the retry
// rebooks everything consistently.
//
//   $ ./build/examples/open_nesting
#include <cstdio>
#include <span>

#include "common/serde.h"
#include "core/cluster.h"

using namespace qrdtm;
using core::Cluster;
using core::ClusterConfig;
using core::ObjectId;
using core::OpenOp;
using core::Txn;

namespace {

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.i64();
}

core::TxnBody adjust(ObjectId obj, std::int64_t delta) {
  return [obj, delta](Txn& t) -> sim::Task<void> {
    std::int64_t v = dec_i64(co_await t.read_for_write(obj));
    t.write(obj, enc_i64(v + delta));
  };
}

}  // namespace

int main() {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 4242;
  Cluster cluster(cfg);

  ObjectId flight_seats = cluster.seed_new_object(enc_i64(10));
  ObjectId hotel_rooms = cluster.seed_new_object(enc_i64(10));
  ObjectId card_balance = cluster.seed_new_object(enc_i64(1000));

  std::int64_t seats_seen_mid_booking = -1;
  int attempts = 0;

  cluster.spawn_client(1, [&](Txn& t) -> sim::Task<void> {
    ++attempts;
    // Reserve the flight seat: commits globally NOW, lock "flight" held
    // until the whole booking settles.
    OpenOp reserve_flight;
    reserve_flight.locks = {1001};
    reserve_flight.body = adjust(flight_seats, -1);
    reserve_flight.compensation = adjust(flight_seats, +1);
    co_await t.open_nested(std::move(reserve_flight));

    OpenOp reserve_hotel;
    reserve_hotel.locks = {1002};
    reserve_hotel.body = adjust(hotel_rooms, -1);
    reserve_hotel.compensation = adjust(hotel_rooms, +1);
    co_await t.open_nested(std::move(reserve_hotel));

    // Charge the card directly (memory-level work of the root).
    std::int64_t bal = dec_i64(co_await t.read_for_write(card_balance));
    t.write(card_balance, enc_i64(bal - 300));
    if (attempts == 1) {
      co_await t.compute(sim::msec(400));  // the card processor dawdles...
    }
  });

  // While the first attempt dawdles: another client observes the seat
  // already gone (open nesting!), and a saboteur invalidates the card read.
  cluster.simulator().schedule_at(sim::msec(450), [&] {
    cluster.spawn_client(5, [&](Txn& t) -> sim::Task<void> {
      seats_seen_mid_booking = dec_i64(co_await t.read(flight_seats));
    });
    core::Version v = cluster.server(0).store().version_of(card_balance);
    for (net::NodeId n = 0; n < cluster.num_nodes(); ++n) {
      cluster.server(n).store().apply(card_balance, v + 1, enc_i64(1000));
    }
  });
  cluster.run_to_completion();

  std::int64_t seats = 0, rooms = 0, balance = 0;
  cluster.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    seats = dec_i64(co_await t.read(flight_seats));
    rooms = dec_i64(co_await t.read(hotel_rooms));
    balance = dec_i64(co_await t.read(card_balance));
  });
  cluster.run_to_completion();

  const auto& m = cluster.metrics();
  std::printf("booking attempts          : %d\n", attempts);
  std::printf("seats seen mid-booking    : %lld  (reservation visible early)\n",
              static_cast<long long>(seats_seen_mid_booking));
  std::printf("compensations run         : %llu (flight + hotel undone once)\n",
              static_cast<unsigned long long>(m.compensations_run));
  std::printf("final seats/rooms/balance : %lld / %lld / %lld\n",
              static_cast<long long>(seats), static_cast<long long>(rooms),
              static_cast<long long>(balance));
  const bool ok = attempts == 2 && seats == 9 && rooms == 9 &&
                  balance == 700 && m.compensations_run == 2;
  std::printf("%s\n", ok ? "consistent: booked exactly once"
                         : "UNEXPECTED FINAL STATE");
  return ok ? 0 : 1;
}
