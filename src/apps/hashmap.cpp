#include "apps/hashmap.h"

#include <set>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

namespace {

// Bucket head payload: {first_entry_id}.
InlineWriter<8> enc_head(ObjectId first) {
  InlineWriter<8> w;
  w.u64(first);
  return w;
}
ObjectId dec_head(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.u64();
}

// Entry payload: {key, value, next_entry_id}.
struct Entry {
  std::uint64_t key;
  std::int64_t value;
  ObjectId next;
};
InlineWriter<24> enc_entry(const Entry& e) {
  InlineWriter<24> w;
  w.u64(e.key);
  w.i64(e.value);
  w.u64(e.next);
  return w;
}
Entry dec_entry(std::span<const std::uint8_t> b) {
  Reader r(b);
  Entry e;
  e.key = r.u64();
  e.value = r.i64();
  e.next = r.u64();
  return e;
}

std::uint32_t bucket_of(std::uint64_t key, std::uint32_t num_buckets) {
  // Cheap integer mix so sequential keys spread.
  std::uint64_t x = key * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::uint32_t>((x >> 33) % num_buckets);
}

}  // namespace

void HashmapApp::setup(Cluster& cluster, const WorkloadParams& params,
                       Rng& rng) {
  QRDTM_CHECK(params.num_objects >= 1);
  key_space_ = static_cast<std::uint64_t>(params.num_objects) * 2;
  buckets_.clear();

  // Choose the initial key population, then build the chains directly in
  // the seeded stores (setup bypasses the protocol).
  std::set<std::uint64_t> keys;
  while (keys.size() < params.num_objects) {
    keys.insert(rng.below(key_space_) + 1);
  }
  std::vector<std::vector<std::uint64_t>> chains(num_buckets_);
  for (std::uint64_t k : keys) {
    chains[bucket_of(k, num_buckets_)].push_back(k);
  }

  for (std::uint32_t b = 0; b < num_buckets_; ++b) {
    ObjectId next = store::kNullObject;
    for (std::uint64_t k : chains[b]) {
      next = cluster.seed_new_object(
          enc_entry(Entry{k, static_cast<std::int64_t>(k), next}).to_bytes());
    }
    buckets_.push_back(cluster.seed_new_object(enc_head(next).to_bytes()));
  }
}

namespace {
/// Shared implementation: walk, (optionally) record prior state, mutate.
sim::Task<void> run_op_impl(Txn& ct, const std::vector<ObjectId>& buckets,
                            std::uint32_t num_buckets, HashmapApp::OpKind kind,
                            std::uint64_t key, std::int64_t value,
                            sim::Tick compute, HashmapApp::Undo* undo) {
  using OpKind = HashmapApp::OpKind;
  const ObjectId head = buckets[bucket_of(key, num_buckets)];
  ObjectId first = dec_head(co_await ct.read(head));

  // Walk the chain, tracking the predecessor for unlinking.
  ObjectId prev = store::kNullObject;
  ObjectId cur = first;
  Entry cur_entry{};
  bool found = false;
  while (cur != store::kNullObject) {
    cur_entry = dec_entry(co_await ct.read(cur));
    if (cur_entry.key == key) {
      found = true;
      break;
    }
    prev = cur;
    cur = cur_entry.next;
  }
  co_await ct.compute(compute);

  if (undo != nullptr) {
    undo->mutated = kind != OpKind::kGet;
    undo->existed = found;
    undo->old_value = found ? cur_entry.value : 0;
  }

  switch (kind) {
    case OpKind::kGet:
      break;  // value (if any) already read
    case OpKind::kInsert:
      if (found) {
        (void)co_await ct.read_for_write(cur);  // local upgrade
        ct.write(cur, enc_entry(Entry{key, value, cur_entry.next}));
      } else {
        ObjectId fresh = ct.create(enc_entry(Entry{key, value, first}));
        (void)co_await ct.read_for_write(head);
        ct.write(head, enc_head(fresh));
      }
      break;
    case OpKind::kRemove:
      if (found) {
        if (prev == store::kNullObject) {
          (void)co_await ct.read_for_write(head);
          ct.write(head, enc_head(cur_entry.next));
        } else {
          Entry prev_entry = dec_entry(co_await ct.read_for_write(prev));
          prev_entry.next = cur_entry.next;
          ct.write(prev, enc_entry(prev_entry));
        }
      }
      break;
  }
}
}  // namespace

sim::Task<void> HashmapApp::run_op(Txn& ct,
                                   const std::vector<ObjectId>& buckets,
                                   std::uint32_t num_buckets, OpKind kind,
                                   std::uint64_t key, std::int64_t value,
                                   sim::Tick compute) {
  co_await run_op_impl(ct, buckets, num_buckets, kind, key, value, compute,
                       nullptr);
}

TxnBody HashmapApp::make_txn_open(const WorkloadParams& params, Rng& rng) {
  struct Op {
    OpKind kind;
    std::uint64_t key;
    std::int64_t value;
  };
  std::vector<Op> plan;
  plan.reserve(params.nested_calls);
  for (std::uint32_t i = 0; i < params.nested_calls; ++i) {
    Op op;
    if (rng.chance(params.read_ratio)) {
      op.kind = OpKind::kGet;
    } else {
      op.kind = rng.chance(0.5) ? OpKind::kInsert : OpKind::kRemove;
    }
    op.key = rng.below(key_space_) + 1;
    op.value = rng.range(0, 1 << 20);
    plan.push_back(op);
  }
  const std::vector<ObjectId> buckets = buckets_;
  const std::uint32_t nb = num_buckets_;
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), buckets, nb, compute](Txn& t)
             -> sim::Task<void> {
    for (const Op& op : plan) {
      auto undo = std::make_shared<Undo>();
      core::OpenOp open;
      open.locks = {op.key};  // semantic entity: the key
      // Capture by VALUE: the compensation is stored in the root's open
      // log and may run after this body coroutine's frame is gone.
      open.body = [undo, buckets, nb, op, compute](Txn& ot)
          -> sim::Task<void> {
        co_await run_op_impl(ot, buckets, nb, op.kind, op.key, op.value,
                             compute, undo.get());
      };
      if (op.kind != OpKind::kGet) {
        // Restore the recorded prior state of the key.  Safe because the
        // abstract lock shuts out every other root until this one settles.
        open.compensation = [undo, buckets, nb, key = op.key](Txn& comp)
            -> sim::Task<void> {
          if (!undo->mutated) co_return;
          if (undo->existed) {
            co_await run_op_impl(comp, buckets, nb, OpKind::kInsert, key,
                                 undo->old_value, 0, nullptr);
          } else {
            co_await run_op_impl(comp, buckets, nb, OpKind::kRemove, key, 0,
                                 0, nullptr);
          }
        };
      }
      co_await t.open_nested(std::move(open));
    }
  };
}

TxnBody HashmapApp::make_txn(const WorkloadParams& params, Rng& rng) {
  struct Op {
    OpKind kind;
    std::uint64_t key;
    std::int64_t value;
  };
  std::vector<Op> plan;
  plan.reserve(params.nested_calls);
  for (std::uint32_t i = 0; i < params.nested_calls; ++i) {
    Op op;
    if (rng.chance(params.read_ratio)) {
      op.kind = OpKind::kGet;
    } else {
      op.kind = rng.chance(0.5) ? OpKind::kInsert : OpKind::kRemove;
    }
    op.key = rng.below(key_space_) + 1;
    op.value = rng.range(0, 1 << 20);
    plan.push_back(op);
  }
  const std::vector<ObjectId>& buckets = buckets_;
  const std::uint32_t nb = num_buckets_;
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), buckets, nb, compute](Txn& t)
             -> sim::Task<void> {
    for (const Op& op : plan) {
      // The [&] lambda coroutine is safe here: nested() borrows the closure,
      // a temporary co_awaited within the same full expression, so the closure
      // and the by-reference captures (locals of this suspended coroutine
      // frame) both outlive the child.  qrdtm-lint: allow(coro-ref-capture)
      co_await t.nested([&](Txn& ct) -> sim::Task<void> {
        co_await run_op(ct, buckets, nb, op.kind, op.key, op.value, compute);
      });
    }
  };
}

TxnBody HashmapApp::make_op(OpKind kind, std::uint64_t key,
                            std::int64_t value) {
  const std::vector<ObjectId> buckets = buckets_;
  const std::uint32_t nb = num_buckets_;
  return [buckets, nb, kind, key, value](Txn& t) -> sim::Task<void> {
    // Safe for the same reason as above.  qrdtm-lint: allow(coro-ref-capture)
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      co_await run_op(ct, buckets, nb, kind, key, value, /*compute=*/0);
    });
  };
}

TxnBody HashmapApp::make_lookup(std::uint64_t key, std::int64_t* value,
                                bool* found) {
  const std::vector<ObjectId> buckets = buckets_;
  const std::uint32_t nb = num_buckets_;
  return [buckets, nb, key, value, found](Txn& t) -> sim::Task<void> {
    *found = false;
    ObjectId cur = dec_head(co_await t.read(buckets[bucket_of(key, nb)]));
    while (cur != store::kNullObject) {
      Entry e = dec_entry(co_await t.read(cur));
      if (e.key == key) {
        *found = true;
        *value = e.value;
        break;
      }
      cur = e.next;
    }
  };
}

TxnBody HashmapApp::make_checker(bool* ok) {
  const std::vector<ObjectId> buckets = buckets_;
  const std::uint32_t nb = num_buckets_;
  return [buckets, nb, ok](Txn& t) -> sim::Task<void> {
    *ok = true;
    std::set<std::uint64_t> seen;
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
      ObjectId cur = dec_head(co_await t.read(buckets[b]));
      std::size_t steps = 0;
      while (cur != store::kNullObject) {
        Entry e = dec_entry(co_await t.read(cur));
        if (bucket_of(e.key, nb) != b) *ok = false;      // key in right chain
        if (!seen.insert(e.key).second) *ok = false;     // no duplicates
        if (++steps > 1000000) {
          *ok = false;  // cycle
          break;
        }
        cur = e.next;
      }
    }
  };
}

}  // namespace qrdtm::apps
