#include "apps/bst.h"

#include <functional>
#include <set>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

namespace {

struct Node {
  std::uint64_t key = 0;
  std::int64_t value = 0;
  ObjectId left = store::kNullObject;
  ObjectId right = store::kNullObject;
  bool deleted = false;
};

InlineWriter<33> enc_node(const Node& n) {
  InlineWriter<33> w;
  w.u64(n.key);
  w.i64(n.value);
  w.u64(n.left);
  w.u64(n.right);
  w.boolean(n.deleted);
  return w;
}

Node dec_node(std::span<const std::uint8_t> b) {
  Reader r(b);
  Node n;
  n.key = r.u64();
  n.value = r.i64();
  n.left = r.u64();
  n.right = r.u64();
  n.deleted = r.boolean();
  return n;
}

InlineWriter<8> enc_holder(ObjectId root) {
  InlineWriter<8> w;
  w.u64(root);
  return w;
}

ObjectId dec_holder(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.u64();
}

}  // namespace

void BstApp::setup(Cluster& cluster, const WorkloadParams& params, Rng& rng) {
  QRDTM_CHECK(params.num_objects >= 1);
  key_space_ = static_cast<std::uint64_t>(params.num_objects) * 2;

  std::set<std::uint64_t> keys;
  while (keys.size() < params.num_objects) {
    keys.insert(rng.below(key_space_) + 1);
  }
  // Build a balanced tree from the sorted keys (recursive midpoint) so the
  // seeded structure starts with log-depth paths.
  std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
  std::function<ObjectId(std::size_t, std::size_t)> build =
      [&](std::size_t lo, std::size_t hi) -> ObjectId {
    if (lo >= hi) return store::kNullObject;
    std::size_t mid = lo + (hi - lo) / 2;
    Node n;
    n.key = sorted[mid];
    n.value = static_cast<std::int64_t>(sorted[mid]);
    n.left = build(lo, mid);
    n.right = build(mid + 1, hi);
    return cluster.seed_new_object(enc_node(n).to_bytes());
  };
  ObjectId root = build(0, sorted.size());
  root_holder_ = cluster.seed_new_object(enc_holder(root).to_bytes());
}

sim::Task<void> BstApp::run_op(Txn& ct, ObjectId root_holder, OpKind kind,
                               std::uint64_t key, std::int64_t value,
                               sim::Tick compute) {
  ObjectId root = dec_holder(co_await ct.read(root_holder));

  // Walk to the key (or its would-be parent).
  ObjectId parent = store::kNullObject;
  Node parent_node{};
  ObjectId cur = root;
  Node cur_node{};
  bool found = false;
  while (cur != store::kNullObject) {
    cur_node = dec_node(co_await ct.read(cur));
    if (cur_node.key == key) {
      found = true;
      break;
    }
    parent = cur;
    parent_node = cur_node;
    cur = key < cur_node.key ? cur_node.left : cur_node.right;
  }
  co_await ct.compute(compute);

  switch (kind) {
    case OpKind::kGet:
      break;
    case OpKind::kInsert:
      if (found) {
        (void)co_await ct.read_for_write(cur);
        cur_node.value = value;
        cur_node.deleted = false;
        ct.write(cur, enc_node(cur_node));
      } else {
        Node fresh;
        fresh.key = key;
        fresh.value = value;
        ObjectId fresh_id = ct.create(enc_node(fresh));
        if (parent == store::kNullObject) {
          (void)co_await ct.read_for_write(root_holder);
          ct.write(root_holder, enc_holder(fresh_id));
        } else {
          (void)co_await ct.read_for_write(parent);
          if (key < parent_node.key) {
            parent_node.left = fresh_id;
          } else {
            parent_node.right = fresh_id;
          }
          ct.write(parent, enc_node(parent_node));
        }
      }
      break;
    case OpKind::kRemove:
      if (found && !cur_node.deleted) {
        (void)co_await ct.read_for_write(cur);
        cur_node.deleted = true;
        ct.write(cur, enc_node(cur_node));
      }
      break;
  }
}

TxnBody BstApp::make_txn(const WorkloadParams& params, Rng& rng) {
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
  const ObjectId holder = root_holder_;
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), holder, compute](Txn& t) -> sim::Task<void> {
    for (const Op& op : plan) {
      // The [&] lambda coroutine is safe here: nested() borrows the closure,
      // a temporary co_awaited within the same full expression, so the closure
      // and the by-reference captures (locals of this suspended coroutine
      // frame) both outlive the child.  qrdtm-lint: allow(coro-ref-capture)
      co_await t.nested([&](Txn& ct) -> sim::Task<void> {
        co_await run_op(ct, holder, op.kind, op.key, op.value, compute);
      });
    }
  };
}

TxnBody BstApp::make_op(OpKind kind, std::uint64_t key, std::int64_t value) {
  const ObjectId holder = root_holder_;
  return [holder, kind, key, value](Txn& t) -> sim::Task<void> {
    // Safe for the same reason as above.  qrdtm-lint: allow(coro-ref-capture)
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      co_await run_op(ct, holder, kind, key, value, /*compute=*/0);
    });
  };
}

TxnBody BstApp::make_lookup(std::uint64_t key, std::int64_t* value,
                            bool* found) {
  const ObjectId holder = root_holder_;
  return [holder, key, value, found](Txn& t) -> sim::Task<void> {
    *found = false;
    ObjectId cur = dec_holder(co_await t.read(holder));
    while (cur != store::kNullObject) {
      Node n = dec_node(co_await t.read(cur));
      if (n.key == key) {
        if (!n.deleted) {
          *found = true;
          *value = n.value;
        }
        break;
      }
      cur = key < n.key ? n.left : n.right;
    }
  };
}

TxnBody BstApp::make_checker(bool* ok) {
  const ObjectId holder = root_holder_;
  return [holder, ok](Txn& t) -> sim::Task<void> {
    *ok = true;
    // Iterative bounded DFS verifying the search-tree property.
    struct Frame {
      ObjectId id;
      std::uint64_t lo, hi;  // exclusive bounds; 0 = unbounded
    };
    std::vector<Frame> stack;
    ObjectId root = dec_holder(co_await t.read(holder));
    if (root != store::kNullObject) stack.push_back({root, 0, 0});
    std::set<std::uint64_t> seen;
    std::size_t steps = 0;
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      if (++steps > 1000000) {
        *ok = false;
        break;
      }
      Node n = dec_node(co_await t.read(f.id));
      if ((f.lo != 0 && n.key <= f.lo) || (f.hi != 0 && n.key >= f.hi)) {
        *ok = false;
      }
      if (!seen.insert(n.key).second) *ok = false;
      if (n.left != store::kNullObject) stack.push_back({n.left, f.lo, n.key});
      if (n.right != store::kNullObject) {
        stack.push_back({n.right, n.key, f.hi});
      }
    }
  };
}

}  // namespace qrdtm::apps
