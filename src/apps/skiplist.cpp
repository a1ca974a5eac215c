#include "apps/skiplist.h"

#include <array>
#include <set>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

namespace {

// Node payload: {key, value, height, next[height]}.  The head sentinel uses
// key 0 (workload keys are >= 1) and height kMaxLevel.  A decoded node keeps
// its successors in a fixed kMaxLevel array, so decoding allocates nothing.
struct Node {
  std::uint64_t key = 0;
  std::int64_t value = 0;
  std::uint32_t height = 0;
  std::array<ObjectId, SkipListApp::kMaxLevel> next{};  // [0, height) used
};

/// Encoded size of the tallest node.
constexpr std::size_t kMaxNodeBytes = 8 + 8 + 4 + 8 * SkipListApp::kMaxLevel;

InlineWriter<kMaxNodeBytes> enc_node(const Node& n) {
  InlineWriter<kMaxNodeBytes> w;
  w.u64(n.key);
  w.i64(n.value);
  w.u32(n.height);
  for (std::uint32_t l = 0; l < n.height; ++l) w.u64(n.next[l]);
  return w;
}

Node dec_node(std::span<const std::uint8_t> b) {
  Reader r(b);
  Node n;
  n.key = r.u64();
  n.value = r.i64();
  n.height = r.u32();
  if (n.height > SkipListApp::kMaxLevel) {
    throw SerdeError("skiplist node taller than kMaxLevel");
  }
  for (std::uint32_t l = 0; l < n.height; ++l) n.next[l] = r.u64();
  return n;
}

/// A predecessor staged for mutation: the node is written back once even
/// when several levels share it.
struct Staged {
  ObjectId id = store::kNullObject;
  Node node;
};

/// The staged node of `id`, or nullptr.
Node* find_staged(std::array<Staged, SkipListApp::kMaxLevel>& staged,
                  std::uint32_t count, ObjectId id) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (staged[i].id == id) return &staged[i].node;
  }
  return nullptr;
}

}  // namespace

std::uint32_t SkipListApp::height_of(std::uint64_t key) {
  std::uint64_t x = key * 0x2545f4914f6cdd1dULL;
  x ^= x >> 29;
  std::uint32_t h = 1;
  while ((x & 1) && h < kMaxLevel) {
    ++h;
    x >>= 1;
  }
  return h;
}

void SkipListApp::setup(Cluster& cluster, const WorkloadParams& params,
                        Rng& rng) {
  QRDTM_CHECK(params.num_objects >= 1);
  key_space_ = static_cast<std::uint64_t>(params.num_objects) * 2;

  std::set<std::uint64_t> keys;
  while (keys.size() < params.num_objects) {
    keys.insert(rng.below(key_space_) + 1);
  }

  // Build back-to-front so next pointers are known at seed time.
  std::array<ObjectId, kMaxLevel> level_next{};
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    std::uint32_t h = height_of(*it);
    Node n;
    n.key = *it;
    n.value = static_cast<std::int64_t>(*it);
    n.height = h;
    n.next = level_next;  // levels past h stay unused
    ObjectId id = cluster.seed_new_object(enc_node(n).to_bytes());
    for (std::uint32_t l = 0; l < h; ++l) level_next[l] = id;
  }
  Node head;
  head.key = 0;
  head.height = kMaxLevel;
  head.next = level_next;
  head_ = cluster.seed_new_object(enc_node(head).to_bytes());
}

sim::Task<void> SkipListApp::run_op(Txn& ct, ObjectId head, OpKind kind,
                                    std::uint64_t key, std::int64_t value,
                                    sim::Tick compute) {
  // Search: collect the predecessor *id* at every level (the classic
  // update[] array), reading each node on the path exactly once remotely
  // (repeat reads hit the transaction-local data-set).
  std::array<ObjectId, kMaxLevel> preds;
  preds.fill(head);
  ObjectId cur_id = head;
  Node cur = dec_node(co_await ct.read(head));
  for (std::uint32_t l = kMaxLevel; l-- > 0;) {
    while (l < cur.height && cur.next[l] != store::kNullObject) {
      Node nxt = dec_node(co_await ct.read(cur.next[l]));
      if (nxt.key >= key) break;
      cur_id = cur.next[l];
      cur = nxt;
    }
    preds[l] = cur_id;
  }

  // Candidate at level 0.
  ObjectId cand_id = store::kNullObject;
  Node cand;
  {
    Node pred0 = dec_node(co_await ct.read(preds[0]));
    if (pred0.height > 0 && pred0.next[0] != store::kNullObject) {
      Node maybe = dec_node(co_await ct.read(pred0.next[0]));
      if (maybe.key == key) {
        cand_id = pred0.next[0];
        cand = maybe;
      }
    }
  }
  const bool found = cand_id != store::kNullObject;
  co_await ct.compute(compute);

  // Stage per-predecessor mutations (several levels may share one
  // predecessor object; mutate the staged copy, write once).  One array
  // serves both mutating cases, which keeps the frame small enough for the
  // frame pool.
  std::array<Staged, kMaxLevel> staged;
  std::uint32_t nstaged = 0;
  switch (kind) {
    case OpKind::kGet:
      break;
    case OpKind::kInsert: {
      if (found) {
        (void)co_await ct.read_for_write(cand_id);
        cand.value = value;
        ct.write(cand_id, enc_node(cand));
        break;
      }
      const std::uint32_t h = height_of(key);
      for (std::uint32_t l = 0; l < h; ++l) {
        if (find_staged(staged, nstaged, preds[l]) == nullptr) {
          staged[nstaged].id = preds[l];
          staged[nstaged].node =
              dec_node(co_await ct.read_for_write(preds[l]));
          ++nstaged;
        }
      }
      Node fresh;
      fresh.key = key;
      fresh.value = value;
      fresh.height = h;
      for (std::uint32_t l = 0; l < h; ++l) {
        const Node& p = *find_staged(staged, nstaged, preds[l]);
        QRDTM_CHECK(l < p.height);
        fresh.next[l] = p.next[l];
      }
      ObjectId fresh_id = ct.create(enc_node(fresh));
      for (std::uint32_t l = 0; l < h; ++l) {
        find_staged(staged, nstaged, preds[l])->next[l] = fresh_id;
      }
      for (std::uint32_t i = 0; i < nstaged; ++i) {
        ct.write(staged[i].id, enc_node(staged[i].node));
      }
      break;
    }
    case OpKind::kRemove: {
      if (!found) break;
      for (std::uint32_t l = 0; l < cand.height; ++l) {
        Node* p = find_staged(staged, nstaged, preds[l]);
        if (p == nullptr) {
          staged[nstaged].id = preds[l];
          staged[nstaged].node =
              dec_node(co_await ct.read_for_write(preds[l]));
          p = &staged[nstaged++].node;
        }
        if (l < p->height && p->next[l] == cand_id) {
          p->next[l] = cand.next[l];
        }
      }
      for (std::uint32_t i = 0; i < nstaged; ++i) {
        ct.write(staged[i].id, enc_node(staged[i].node));
      }
      break;
    }
  }
}

TxnBody SkipListApp::make_txn(const WorkloadParams& params, Rng& rng) {
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
  const ObjectId head = head_;
  const sim::Tick compute = params.op_compute;

  return [plan = std::move(plan), head, compute](Txn& t) -> sim::Task<void> {
    for (const Op& op : plan) {
      // The [&] lambda coroutine is safe here: nested() borrows the closure,
      // a temporary co_awaited within the same full expression, so the closure
      // and the by-reference captures (locals of this suspended coroutine
      // frame) both outlive the child.  qrdtm-lint: allow(coro-ref-capture)
      co_await t.nested([&](Txn& ct) -> sim::Task<void> {
        co_await run_op(ct, head, op.kind, op.key, op.value, compute);
      });
    }
  };
}

TxnBody SkipListApp::make_op(OpKind kind, std::uint64_t key,
                             std::int64_t value) {
  const ObjectId head = head_;
  return [head, kind, key, value](Txn& t) -> sim::Task<void> {
    // Safe for the same reason as above.  qrdtm-lint: allow(coro-ref-capture)
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      co_await run_op(ct, head, kind, key, value, /*compute=*/0);
    });
  };
}

TxnBody SkipListApp::make_lookup(std::uint64_t key, std::int64_t* value,
                                 bool* found) {
  const ObjectId head = head_;
  return [head, key, value, found](Txn& t) -> sim::Task<void> {
    *found = false;
    Node h = dec_node(co_await t.read(head));
    ObjectId cur = h.height == 0 ? store::kNullObject : h.next[0];
    while (cur != store::kNullObject) {
      Node n = dec_node(co_await t.read(cur));
      if (n.key == key) {
        *found = true;
        *value = n.value;
        break;
      }
      if (n.key > key) break;
      cur = n.height == 0 ? store::kNullObject : n.next[0];
    }
  };
}

TxnBody SkipListApp::make_checker(bool* ok) {
  const ObjectId head = head_;
  return [head, ok](Txn& t) -> sim::Task<void> {
    *ok = true;
    // Level-0 list must be strictly sorted; every higher level must be a
    // subsequence of level 0.
    std::set<std::uint64_t> level0;
    Node h = dec_node(co_await t.read(head));
    std::uint64_t last = 0;
    ObjectId cur = h.height == 0 ? store::kNullObject : h.next[0];
    std::size_t steps = 0;
    while (cur != store::kNullObject) {
      Node n = dec_node(co_await t.read(cur));
      if (n.key <= last) *ok = false;
      last = n.key;
      level0.insert(n.key);
      if (++steps > 1000000) {
        *ok = false;
        break;
      }
      cur = n.height == 0 ? store::kNullObject : n.next[0];
    }
    for (std::uint32_t l = 1; l < SkipListApp::kMaxLevel; ++l) {
      std::uint64_t prev = 0;
      ObjectId c = l < h.height ? h.next[l] : store::kNullObject;
      std::size_t lsteps = 0;
      while (c != store::kNullObject) {
        Node n = dec_node(co_await t.read(c));
        if (n.key <= prev || !level0.contains(n.key)) *ok = false;
        prev = n.key;
        if (++lsteps > 1000000) {
          *ok = false;
          break;
        }
        c = l < n.height ? n.next[l] : store::kNullObject;
      }
    }
  };
}

}  // namespace qrdtm::apps
