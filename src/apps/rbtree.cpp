#include "apps/rbtree.h"

#include <functional>
#include <map>
#include <set>

#include "common/check.h"
#include "common/serde.h"

namespace qrdtm::apps {

namespace {

constexpr std::uint8_t kBlack = 0;
constexpr std::uint8_t kRed = 1;

struct Node {
  std::uint64_t key = 0;
  std::int64_t value = 0;
  std::uint8_t color = kBlack;
  ObjectId left = store::kNullObject;
  ObjectId right = store::kNullObject;
  ObjectId parent = store::kNullObject;
  bool deleted = false;
};

InlineWriter<42> enc_node(const Node& n) {
  InlineWriter<42> w;
  w.u64(n.key);
  w.i64(n.value);
  w.u8(n.color);
  w.u64(n.left);
  w.u64(n.right);
  w.u64(n.parent);
  w.boolean(n.deleted);
  return w;
}

Node dec_node(std::span<const std::uint8_t> b) {
  Reader r(b);
  Node n;
  n.key = r.u64();
  n.value = r.i64();
  n.color = r.u8();
  n.left = r.u64();
  n.right = r.u64();
  n.parent = r.u64();
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

/// Operation-local view of the tree: every object is fetched once, mutated
/// in place, and dirty nodes are written back in a single flush.
struct TreeCache {
  Txn& ct;
  ObjectId holder;
  ObjectId root = store::kNullObject;
  bool root_dirty = false;
  std::map<ObjectId, Node> nodes{};
  std::set<ObjectId> dirty{};

  sim::Task<void> load_root() {
    root = dec_holder(co_await ct.read(holder));
  }

  sim::Task<Node*> get(ObjectId id) {
    if (id == store::kNullObject) co_return nullptr;
    auto it = nodes.find(id);
    if (it == nodes.end()) {
      it = nodes.emplace(id, dec_node(co_await ct.read(id))).first;
    }
    co_return &it->second;
  }

  Node& at(ObjectId id) {
    auto it = nodes.find(id);
    QRDTM_CHECK_MSG(it != nodes.end(), "node not loaded");
    return it->second;
  }

  void mark(ObjectId id) { dirty.insert(id); }

  void set_root(ObjectId id) {
    root = id;
    root_dirty = true;
  }

  ObjectId add_fresh(const Node& n) {
    ObjectId id = ct.create(enc_node(n));
    nodes[id] = n;
    dirty.insert(id);
    return id;
  }

  sim::Task<void> flush() {
    for (ObjectId id : dirty) {
      (void)co_await ct.read_for_write(id);  // local upgrade / write-set hit
      ct.write(id, enc_node(at(id)));
    }
    if (root_dirty) {
      (void)co_await ct.read_for_write(holder);
      ct.write(holder, enc_holder(root));
    }
  }
};

/// CLRS left rotation around x; loads y = x.right (must be non-nil).
sim::Task<void> left_rotate(TreeCache& c, ObjectId x_id) {
  Node& x = c.at(x_id);
  ObjectId y_id = x.right;
  Node* y = co_await c.get(y_id);
  QRDTM_CHECK(y != nullptr);
  x.right = y->left;
  if (y->left != store::kNullObject) {
    Node* yl = co_await c.get(y->left);
    yl->parent = x_id;
    c.mark(y->left);
  }
  y->parent = x.parent;
  if (x.parent == store::kNullObject) {
    c.set_root(y_id);
  } else {
    Node& p = c.at(x.parent);
    if (p.left == x_id) {
      p.left = y_id;
    } else {
      p.right = y_id;
    }
    c.mark(x.parent);
  }
  y->left = x_id;
  x.parent = y_id;
  c.mark(x_id);
  c.mark(y_id);
}

/// CLRS right rotation around x; loads y = x.left (must be non-nil).
sim::Task<void> right_rotate(TreeCache& c, ObjectId x_id) {
  Node& x = c.at(x_id);
  ObjectId y_id = x.left;
  Node* y = co_await c.get(y_id);
  QRDTM_CHECK(y != nullptr);
  x.left = y->right;
  if (y->right != store::kNullObject) {
    Node* yr = co_await c.get(y->right);
    yr->parent = x_id;
    c.mark(y->right);
  }
  y->parent = x.parent;
  if (x.parent == store::kNullObject) {
    c.set_root(y_id);
  } else {
    Node& p = c.at(x.parent);
    if (p.left == x_id) {
      p.left = y_id;
    } else {
      p.right = y_id;
    }
    c.mark(x.parent);
  }
  y->right = x_id;
  x.parent = y_id;
  c.mark(x_id);
  c.mark(y_id);
}

/// CLRS RB-INSERT-FIXUP starting at the (red) node z.
sim::Task<void> insert_fixup(TreeCache& c, ObjectId z_id) {
  while (true) {
    Node& z = c.at(z_id);
    if (z.parent == store::kNullObject) break;
    Node* p = co_await c.get(z.parent);
    if (p->color != kRed) break;
    // Grandparent exists: the root is black, so a red parent is not root.
    ObjectId gp_id = p->parent;
    Node* gp = co_await c.get(gp_id);
    QRDTM_CHECK(gp != nullptr);
    if (z.parent == gp->left) {
      ObjectId uncle_id = gp->right;
      Node* uncle = co_await c.get(uncle_id);
      if (uncle != nullptr && uncle->color == kRed) {
        p->color = kBlack;
        uncle->color = kBlack;
        gp->color = kRed;
        c.mark(z.parent);
        c.mark(uncle_id);
        c.mark(gp_id);
        z_id = gp_id;
      } else {
        if (z_id == p->right) {
          z_id = z.parent;
          co_await left_rotate(c, z_id);
        }
        Node& z2 = c.at(z_id);
        Node& p2 = c.at(z2.parent);
        p2.color = kBlack;
        Node& gp2 = c.at(p2.parent);
        gp2.color = kRed;
        c.mark(z2.parent);
        c.mark(p2.parent);
        co_await right_rotate(c, p2.parent);
      }
    } else {  // mirror image
      ObjectId uncle_id = gp->left;
      Node* uncle = co_await c.get(uncle_id);
      if (uncle != nullptr && uncle->color == kRed) {
        p->color = kBlack;
        uncle->color = kBlack;
        gp->color = kRed;
        c.mark(z.parent);
        c.mark(uncle_id);
        c.mark(gp_id);
        z_id = gp_id;
      } else {
        if (z_id == p->left) {
          z_id = z.parent;
          co_await right_rotate(c, z_id);
        }
        Node& z2 = c.at(z_id);
        Node& p2 = c.at(z2.parent);
        p2.color = kBlack;
        Node& gp2 = c.at(p2.parent);
        gp2.color = kRed;
        c.mark(z2.parent);
        c.mark(p2.parent);
        co_await left_rotate(c, p2.parent);
      }
    }
  }
  if (c.root != store::kNullObject) {
    Node& r = c.at(c.root);
    if (r.color != kBlack) {
      r.color = kBlack;
      c.mark(c.root);
    }
  }
}

}  // namespace

void RbTreeApp::setup(Cluster& cluster, const WorkloadParams& params,
                      Rng& rng) {
  QRDTM_CHECK(params.num_objects >= 1);
  key_space_ = static_cast<std::uint64_t>(params.num_objects) * 2;

  std::set<std::uint64_t> keys;
  while (keys.size() < params.num_objects) {
    keys.insert(rng.below(key_space_) + 1);
  }
  // Build a perfectly balanced tree from sorted keys and colour it by
  // depth: nodes at the deepest (possibly incomplete) level are red, all
  // others black.  This satisfies every red-black invariant.
  std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
  std::size_t full_depth = 0;
  while ((std::size_t{1} << (full_depth + 1)) - 1 <= sorted.size()) {
    ++full_depth;
  }

  struct Built {
    Node node;
    ObjectId id;
  };
  std::vector<std::pair<ObjectId, Node>> staged;
  std::function<ObjectId(std::size_t, std::size_t, std::size_t, ObjectId)>
      build = [&](std::size_t lo, std::size_t hi, std::size_t depth,
                  ObjectId parent) -> ObjectId {
    if (lo >= hi) return store::kNullObject;
    std::size_t mid = lo + (hi - lo) / 2;
    Node n;
    n.key = sorted[mid];
    n.value = static_cast<std::int64_t>(sorted[mid]);
    n.color = depth >= full_depth ? kRed : kBlack;
    n.parent = parent;
    // Reserve the id first so children can point back to it.
    ObjectId id = cluster.seed_new_object(Bytes{});
    n.left = build(lo, mid, depth + 1, id);
    n.right = build(mid + 1, hi, depth + 1, id);
    staged.emplace_back(id, n);
    return id;
  };
  ObjectId root = build(0, sorted.size(), 0, store::kNullObject);
  if (root != store::kNullObject) {
    // Root must be black; if it landed on the red level (tiny trees),
    // recolour.
    for (auto& [id, n] : staged) {
      if (id == root) n.color = kBlack;
      cluster.seed_object(id, enc_node(n).to_bytes());
    }
  }
  root_holder_ = cluster.seed_new_object(enc_holder(root).to_bytes());
}

sim::Task<void> RbTreeApp::run_op(Txn& ct, ObjectId root_holder, OpKind kind,
                                  std::uint64_t key, std::int64_t value,
                                  sim::Tick compute) {
  TreeCache cache{ct, root_holder};
  co_await cache.load_root();

  // Descend to the key or its would-be parent.
  ObjectId parent = store::kNullObject;
  ObjectId cur = cache.root;
  bool found = false;
  while (cur != store::kNullObject) {
    Node* n = co_await cache.get(cur);
    if (n->key == key) {
      found = true;
      break;
    }
    parent = cur;
    cur = key < n->key ? n->left : n->right;
  }
  co_await ct.compute(compute);

  switch (kind) {
    case OpKind::kGet:
      break;
    case OpKind::kRemove:
      if (found) {
        Node& n = cache.at(cur);
        if (!n.deleted) {
          n.deleted = true;
          cache.mark(cur);
        }
      }
      break;
    case OpKind::kInsert: {
      if (found) {
        Node& n = cache.at(cur);
        n.value = value;
        n.deleted = false;
        cache.mark(cur);
        break;
      }
      Node fresh;
      fresh.key = key;
      fresh.value = value;
      fresh.color = kRed;
      fresh.parent = parent;
      ObjectId fresh_id = cache.add_fresh(fresh);
      if (parent == store::kNullObject) {
        cache.set_root(fresh_id);
      } else {
        Node& p = cache.at(parent);
        if (key < p.key) {
          p.left = fresh_id;
        } else {
          p.right = fresh_id;
        }
        cache.mark(parent);
      }
      co_await insert_fixup(cache, fresh_id);
      break;
    }
  }
  co_await cache.flush();
}

TxnBody RbTreeApp::make_txn(const WorkloadParams& params, Rng& rng) {
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

TxnBody RbTreeApp::make_op(OpKind kind, std::uint64_t key,
                           std::int64_t value) {
  const ObjectId holder = root_holder_;
  return [holder, kind, key, value](Txn& t) -> sim::Task<void> {
    // Safe for the same reason as above.  qrdtm-lint: allow(coro-ref-capture)
    co_await t.nested([&](Txn& ct) -> sim::Task<void> {
      co_await run_op(ct, holder, kind, key, value, /*compute=*/0);
    });
  };
}

TxnBody RbTreeApp::make_lookup(std::uint64_t key, std::int64_t* value,
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

TxnBody RbTreeApp::make_checker(bool* ok) {
  const ObjectId holder = root_holder_;
  return [holder, ok](Txn& t) -> sim::Task<void> {
    *ok = true;
    // Pull the whole tree into memory, then verify: BST ordering, parent
    // pointers, root blackness, no red-red edges, equal black heights.
    std::map<ObjectId, Node> tree;
    ObjectId root = dec_holder(co_await t.read(holder));
    std::vector<ObjectId> stack;
    if (root != store::kNullObject) stack.push_back(root);
    while (!stack.empty()) {
      ObjectId id = stack.back();
      stack.pop_back();
      if (tree.contains(id) || tree.size() > 1000000) {
        *ok = false;  // cycle
        co_return;
      }
      Node n = dec_node(co_await t.read(id));
      tree[id] = n;
      if (n.left != store::kNullObject) stack.push_back(n.left);
      if (n.right != store::kNullObject) stack.push_back(n.right);
    }
    if (root == store::kNullObject) co_return;
    if (tree.at(root).color != kBlack) *ok = false;
    if (tree.at(root).parent != store::kNullObject) *ok = false;

    // Iterative post-order computing black heights.
    std::function<int(ObjectId, std::uint64_t, std::uint64_t)> check =
        [&](ObjectId id, std::uint64_t lo, std::uint64_t hi) -> int {
      if (id == store::kNullObject) return 1;  // nil is black
      const Node& n = tree.at(id);
      if ((lo != 0 && n.key <= lo) || (hi != 0 && n.key >= hi)) *ok = false;
      if (n.color == kRed) {
        if (n.left != store::kNullObject &&
            tree.at(n.left).color == kRed) {
          *ok = false;
        }
        if (n.right != store::kNullObject &&
            tree.at(n.right).color == kRed) {
          *ok = false;
        }
      }
      if (n.left != store::kNullObject && tree.at(n.left).parent != id) {
        *ok = false;
      }
      if (n.right != store::kNullObject && tree.at(n.right).parent != id) {
        *ok = false;
      }
      int lh = check(n.left, lo, n.key);
      int rh = check(n.right, n.key, hi);
      if (lh != rh) *ok = false;
      return lh + (n.color == kBlack ? 1 : 0);
    };
    (void)check(root, 0, 0);
  };
}

}  // namespace qrdtm::apps
