#include "apps/vacation.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

namespace {

struct Resource {
  std::uint32_t total = 0;
  std::uint32_t avail = 0;
  std::int64_t price = 0;
};

InlineWriter<16> enc_resource(const Resource& r) {
  InlineWriter<16> w;
  w.u32(r.total);
  w.u32(r.avail);
  w.i64(r.price);
  return w;
}

Resource dec_resource(std::span<const std::uint8_t> b) {
  Reader r(b);
  Resource res;
  res.total = r.u32();
  res.avail = r.u32();
  res.price = r.i64();
  return res;
}

struct Reservation {
  std::uint8_t table = 0;
  std::uint32_t index = 0;
};

/// Encoded size of one Reservation: table, index.
constexpr std::size_t kReservationBytes = 1 + 4;

Reservation decode_reservation(Reader& r) {
  Reservation res;
  res.table = r.u8();
  res.index = r.u32();
  return res;
}

/// A customer's reservations left in place in its value.
using Reservations =
    RecordView<kReservationBytes, Reservation, decode_reservation>;

Reservations dec_customer(std::span<const std::uint8_t> b) {
  Reader r(b);
  Reservations rs =
      decode_records<kReservationBytes, Reservation, decode_reservation>(r);
  r.expect_done();
  return rs;
}

/// A customer value: `rs` with record `skip` left out (none when skip is
/// past the end), then `extra` reservations appended.
Bytes enc_customer(const Reservations& rs, std::size_t skip,
                   std::span<const Reservation> extra) {
  const std::size_t kept = rs.size() - (skip < rs.size() ? 1 : 0);
  Writer w;
  w.reserve(4 + (kept + extra.size()) * kReservationBytes);
  w.u32(static_cast<std::uint32_t>(kept + extra.size()));
  auto put = [&w](const Reservation& r) {
    w.u8(r.table);
    w.u32(r.index);
  };
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (i != skip) put(rs[i]);
  }
  for (const Reservation& r : extra) put(r);
  return std::move(w).take();
}

enum class OpKind : std::uint8_t { kQuery, kReserve, kCancel };

}  // namespace

void VacationApp::setup(Cluster& cluster, const WorkloadParams& params,
                        Rng& rng) {
  QRDTM_CHECK(params.num_objects >= kCandidates);
  per_table_ = params.num_objects;
  auto layout = std::make_shared<Layout>();
  std::vector<std::vector<ObjectId>>& tables = layout->tables;
  tables.assign(kTables, {});
  for (std::uint32_t t = 0; t < kTables; ++t) {
    tables[t].reserve(per_table_);
    for (std::uint32_t i = 0; i < per_table_; ++i) {
      Resource r;
      r.total = static_cast<std::uint32_t>(rng.range(5, 10));
      r.avail = r.total;
      r.price = rng.range(50, 500);
      tables[t].push_back(
          cluster.seed_new_object(enc_resource(r).to_bytes()));
    }
  }
  layout->customers.reserve(params.num_objects);
  for (std::uint32_t i = 0; i < params.num_objects; ++i) {
    layout->customers.push_back(
        cluster.seed_new_object(enc_customer(Reservations{}, 0, {})));
  }
  layout_ = std::move(layout);
}

TxnBody VacationApp::make_txn(const WorkloadParams& params, Rng& rng) {
  struct Op {
    OpKind kind;
    std::uint8_t table;
    std::uint32_t customer;
    std::array<std::uint32_t, kCandidates> candidates;
  };
  std::vector<Op> plan;
  plan.reserve(params.nested_calls);
  const std::uint32_t customer =
      static_cast<std::uint32_t>(rng.below(layout_->customers.size()));
  for (std::uint32_t i = 0; i < params.nested_calls; ++i) {
    Op op;
    op.customer = customer;  // one itinerary per root transaction
    op.table = static_cast<std::uint8_t>(i % kTables);
    if (rng.chance(params.read_ratio)) {
      op.kind = OpKind::kQuery;
    } else {
      op.kind = rng.chance(0.8) ? OpKind::kReserve : OpKind::kCancel;
    }
    for (auto& cand : op.candidates) {
      cand = static_cast<std::uint32_t>(rng.below(per_table_));
    }
    plan.push_back(op);
  }
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), layout = layout_,
          compute](Txn& t) -> sim::Task<void> {
    const auto& tables = layout->tables;
    const auto& customers = layout->customers;
    for (const Op& op : plan) {
      // The [&] lambda coroutine is safe here: nested() borrows the closure,
      // a temporary co_awaited within the same full expression, so the closure
      // and the by-reference captures (locals of this suspended coroutine
      // frame) both outlive the child.  qrdtm-lint: allow(coro-ref-capture)
      co_await t.nested([&](Txn& ct) -> sim::Task<void> {
        const auto& table = tables[op.table];
        switch (op.kind) {
          case OpKind::kQuery: {
            for (std::uint32_t idx : op.candidates) {
              (void)dec_resource(co_await ct.read(table[idx]));
            }
            co_await ct.compute(compute);
            break;
          }
          case OpKind::kReserve: {
            // Query candidates, pick the cheapest available.
            std::int64_t best_price = 0;
            std::uint32_t best_idx = 0;
            bool have = false;
            for (std::uint32_t idx : op.candidates) {
              Resource r = dec_resource(co_await ct.read(table[idx]));
              if (r.avail > 0 && (!have || r.price < best_price)) {
                have = true;
                best_price = r.price;
                best_idx = idx;
              }
            }
            co_await ct.compute(compute);
            if (!have) break;  // sold out: no write
            Resource r =
                dec_resource(co_await ct.read_for_write(table[best_idx]));
            if (r.avail == 0) break;  // raced within our own data-set
            r.avail -= 1;
            ct.write(table[best_idx], enc_resource(r));
            const Reservations res = dec_customer(
                co_await ct.read_for_write(customers[op.customer]));
            const Reservation added{op.table, best_idx};
            ct.write(customers[op.customer],
                     enc_customer(res, res.size(), {&added, 1}));
            break;
          }
          case OpKind::kCancel: {
            // The lent value stays valid across compute(): nothing writes
            // the customer in between.
            const Reservations res = dec_customer(
                co_await ct.read_for_write(customers[op.customer]));
            co_await ct.compute(compute);
            // Cancel the most recent reservation in this table, if any.
            std::size_t at = res.size();
            for (std::size_t i = res.size(); i-- > 0;) {
              if (res[i].table == op.table) {
                at = i;
                break;
              }
            }
            if (at == res.size()) break;
            const std::uint32_t idx = res[at].index;
            ct.write(customers[op.customer], enc_customer(res, at, {}));
            Resource r = dec_resource(co_await ct.read_for_write(table[idx]));
            r.avail += 1;
            ct.write(table[idx], enc_resource(r));
            break;
          }
        }
      });
    }
  };
}

TxnBody VacationApp::make_checker(bool* ok) {
  return [layout = layout_, ok](Txn& t) -> sim::Task<void> {
    const auto& tables = layout->tables;
    const auto& customers = layout->customers;
    *ok = true;
    // Count reservations per resource across all customers.
    std::vector<std::vector<std::uint32_t>> reserved(tables.size());
    for (std::size_t tb = 0; tb < tables.size(); ++tb) {
      reserved[tb].assign(tables[tb].size(), 0);
    }
    for (ObjectId cust : customers) {
      const Reservations rs = dec_customer(co_await t.read(cust));
      for (std::size_t i = 0; i < rs.size(); ++i) {
        const Reservation r = rs[i];
        if (r.table >= tables.size() || r.index >= reserved[r.table].size()) {
          *ok = false;
          co_return;
        }
        ++reserved[r.table][r.index];
      }
    }
    for (std::size_t tb = 0; tb < tables.size(); ++tb) {
      for (std::size_t i = 0; i < tables[tb].size(); ++i) {
        Resource r = dec_resource(co_await t.read(tables[tb][i]));
        if (r.avail > r.total) *ok = false;
        if (r.total - r.avail != reserved[tb][i]) *ok = false;
      }
    }
  };
}

}  // namespace qrdtm::apps
