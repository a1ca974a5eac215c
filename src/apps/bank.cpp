#include "apps/bank.h"

#include "common/check.h"

namespace qrdtm::apps {

void BankApp::setup(Cluster& cluster, const WorkloadParams& params, Rng&) {
  QRDTM_CHECK(params.num_objects >= 2);
  accounts_.clear();
  accounts_.reserve(params.num_objects);
  for (std::uint32_t i = 0; i < params.num_objects; ++i) {
    accounts_.push_back(cluster.seed_new_object(enc_i64(kInitialBalance)));
  }
}

TxnBody BankApp::make_txn(const WorkloadParams& params, Rng& rng) {
  struct Op {
    bool is_read;
    ObjectId a, b;
    std::int64_t amount;
  };
  // Draw the whole plan up front: bodies must be deterministic on retry.
  std::vector<Op> plan;
  plan.reserve(params.nested_calls);
  for (std::uint32_t i = 0; i < params.nested_calls; ++i) {
    Op op;
    op.is_read = rng.chance(params.read_ratio);
    std::uint64_t ai = rng.below(accounts_.size());
    std::uint64_t bi = rng.below(accounts_.size() - 1);
    if (bi >= ai) ++bi;  // distinct accounts
    op.a = accounts_[ai];
    op.b = accounts_[bi];
    op.amount = rng.range(1, 10);
    plan.push_back(op);
  }
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), compute](Txn& t) -> sim::Task<void> {
    for (const Op& op : plan) {
      // The [&] lambda coroutine is safe here: nested() borrows the closure,
      // a temporary co_awaited within the same full expression, so the closure
      // and the by-reference captures (locals of this suspended coroutine
      // frame) both outlive the child.  qrdtm-lint: allow(coro-ref-capture)
      co_await t.nested([&op, compute](Txn& ct) -> sim::Task<void> {
        if (op.is_read) {
          std::int64_t total = dec_i64(co_await ct.read(op.a)) +
                               dec_i64(co_await ct.read(op.b));
          (void)total;
          co_await ct.compute(compute);
        } else {
          std::int64_t from = dec_i64(co_await ct.read_for_write(op.a));
          std::int64_t to = dec_i64(co_await ct.read_for_write(op.b));
          co_await ct.compute(compute);
          ct.write(op.a, i64_value(from - op.amount));
          ct.write(op.b, i64_value(to + op.amount));
        }
      });
    }
  };
}

TxnBody BankApp::make_checker(bool* ok) {
  const std::vector<ObjectId> accounts = accounts_;
  return [accounts, ok](Txn& t) -> sim::Task<void> {
    std::int64_t total = 0;
    for (ObjectId a : accounts) {
      total += dec_i64(co_await t.read(a));
    }
    *ok = (total == static_cast<std::int64_t>(accounts.size()) *
                        BankApp::kInitialBalance);
  };
}

}  // namespace qrdtm::apps
