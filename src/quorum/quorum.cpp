#include "quorum/quorum.h"

#include <algorithm>

#include "common/check.h"

namespace qrdtm::quorum {

bool intersects(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  for (NodeId x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

// ---------------------------------------------------------------- live set

void QuorumProvider::on_failure(NodeId dead) {
  QRDTM_CHECK(dead < dead_.size());
  if (dead_[dead]) return;
  dead_[dead] = true;
  ++dead_count_;
  ++generation_;
}

void QuorumProvider::on_recovery(NodeId node) {
  QRDTM_CHECK(node < dead_.size());
  if (!dead_[node]) return;
  dead_[node] = false;
  --dead_count_;
  ++generation_;
}

std::vector<NodeId> QuorumProvider::live_nodes() const {
  std::vector<NodeId> live;
  live.reserve(dead_.size() - dead_count_);
  for (NodeId i = 0; i < dead_.size(); ++i) {
    if (!dead_[i]) live.push_back(i);
  }
  return live;
}

// ---------------------------------------------------------------- tree

TreeQuorumProvider::TreeQuorumProvider(Config cfg)
    : QuorumProvider(cfg.num_nodes), cfg_(cfg) {
  QRDTM_CHECK(cfg_.num_nodes >= 1);
  QRDTM_CHECK(cfg_.degree >= 2);
  // Height of the complete d-ary tree holding num_nodes nodes.
  std::uint32_t h = 0;
  std::uint64_t level_start = 0, level_size = 1;
  while (level_start + level_size < cfg_.num_nodes) {
    level_start += level_size;
    level_size *= cfg_.degree;
    ++h;
  }
  height_ = h;
  QRDTM_CHECK_MSG(cfg_.read_level <= height_,
                  "read_level deeper than the tree");
}

std::vector<NodeId> TreeQuorumProvider::children(NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(cfg_.degree);
  for (std::uint32_t i = 1; i <= cfg_.degree; ++i) {
    std::uint64_t c = static_cast<std::uint64_t>(v) * cfg_.degree + i;
    if (c < cfg_.num_nodes) out.push_back(static_cast<NodeId>(c));
  }
  return out;
}

namespace {
std::uint64_t next_salt(std::uint64_t salt, NodeId v) {
  return salt * 6364136223846793005ULL + v + 1442695040888963407ULL;
}
}  // namespace

bool TreeQuorumProvider::read_rec(NodeId v, std::uint32_t level,
                                  std::uint64_t salt,
                                  std::vector<NodeId>& out) const {
  auto kids = children(v);
  if (level == 0 || kids.empty()) {
    if (alive(v)) {
      out.push_back(v);
      return true;
    }
    // Classic substitution: a dead read-quorum member is replaced by a
    // majority of its children's read quorums.  A dead leaf has none.
    if (kids.empty()) return false;
    level = 1;  // fall through to take a majority of children
  }

  const std::size_t m = kids.size() / 2 + 1;
  std::size_t got = 0;
  const std::size_t start = salt % kids.size();
  for (std::size_t i = 0; i < kids.size() && got < m; ++i) {
    NodeId c = kids[(start + i) % kids.size()];
    const std::size_t mark = out.size();
    if (read_rec(c, level - 1, next_salt(salt, c), out)) {
      ++got;
    } else {
      out.resize(mark);  // drop the failed subtree's partial members
    }
  }
  return got == m;
}

bool TreeQuorumProvider::write_rec(NodeId v, std::uint64_t salt,
                                   std::vector<NodeId>& out) const {
  if (!alive(v)) return false;
  out.push_back(v);
  auto kids = children(v);
  if (kids.empty()) return true;

  const std::size_t m = kids.size() / 2 + 1;
  std::size_t got = 0;
  const std::size_t start = salt % kids.size();
  for (std::size_t i = 0; i < kids.size() && got < m; ++i) {
    NodeId c = kids[(start + i) % kids.size()];
    const std::size_t mark = out.size();
    if (write_rec(c, next_salt(salt, c), out)) {
      ++got;
    } else {
      out.resize(mark);  // drop the failed subtree's partial members
    }
  }
  return got == m;
}

std::vector<NodeId> TreeQuorumProvider::cohort_read_quorum(
    NodeId node, std::uint32_t) const {
  std::vector<NodeId> out;
  std::uint64_t salt = cfg_.same_for_all ? 0 : node + 1;
  if (!read_rec(0, cfg_.read_level, salt, out)) {
    throw QuorumUnavailable(children(0).empty()
                                ? "dead leaf cannot be substituted"
                                : "cannot form read majority at node 0");
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> TreeQuorumProvider::cohort_write_quorum(
    NodeId node, std::uint32_t) const {
  std::vector<NodeId> out;
  std::uint64_t salt = cfg_.same_for_all ? 0 : node + 1;
  if (!write_rec(0, salt, out)) {
    throw QuorumUnavailable(alive(0)
                                ? "cannot form write majority under node 0"
                                : "write quorum member 0 is dead");
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------- majority

MajorityQuorumProvider::MajorityQuorumProvider(std::uint32_t num_nodes,
                                               bool same_for_all)
    : QuorumProvider(num_nodes), n_(num_nodes), same_for_all_(same_for_all) {
  QRDTM_CHECK(n_ >= 1);
}

std::vector<NodeId> MajorityQuorumProvider::pick(NodeId node,
                                                 std::size_t count) const {
  const std::vector<NodeId> live = live_nodes();
  if (live.size() < count) {
    throw QuorumUnavailable("not enough live nodes for a majority");
  }
  std::vector<NodeId> out;
  out.reserve(count);
  std::size_t start = same_for_all_ ? 0 : node % live.size();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(live[(start + i) % live.size()]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> MajorityQuorumProvider::cohort_read_quorum(
    NodeId node, std::uint32_t) const {
  return pick(node, n_ / 2 + 1);
}

std::vector<NodeId> MajorityQuorumProvider::cohort_write_quorum(
    NodeId node, std::uint32_t) const {
  return pick(node, n_ / 2 + 1);
}

// ---------------------------------------------------------------- flat/fig10

FlatFailureAwareProvider::FlatFailureAwareProvider(std::uint32_t num_nodes)
    : QuorumProvider(num_nodes) {
  QRDTM_CHECK(num_nodes >= 1);
}

std::vector<NodeId> FlatFailureAwareProvider::cohort_read_quorum(
    NodeId node, std::uint32_t) const {
  const std::vector<NodeId> live = live_nodes();
  const std::size_t want = dead_count() + 1;
  if (live.size() < want) {
    throw QuorumUnavailable("fewer live nodes than failures+1");
  }
  // Paper §VI-D: "initially, a read quorum consisting of a single node is
  // assigned to all the nodes" -- the same node, which makes it a service
  // hotspot.  Once failures grow the quorum, assignments rotate per client
  // node and "the workload is balanced across the read quorum nodes".
  std::vector<NodeId> out;
  out.reserve(want);
  const std::size_t start = dead_count() == 0 ? 0 : node % live.size();
  for (std::size_t i = 0; i < want; ++i) {
    out.push_back(live[(start + i) % live.size()]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> FlatFailureAwareProvider::cohort_write_quorum(
    NodeId, std::uint32_t) const {
  std::vector<NodeId> live = live_nodes();
  if (live.empty()) throw QuorumUnavailable("all nodes dead");
  return live;
}

// ---------------------------------------------------------------- sharded

ShardedQuorumProvider::ShardedQuorumProvider(Config cfg)
    : QuorumProvider(cfg.num_nodes), cfg_(cfg), map_(cfg.num_shards) {
  QRDTM_CHECK(cfg_.num_shards >= 1);
  QRDTM_CHECK(cfg_.cohort_size >= 1);
  QRDTM_CHECK(cfg_.cohort_size <= cfg_.num_nodes);
  inner_.reserve(cfg_.num_shards);
  for (std::uint32_t c = 0; c < cfg_.num_shards; ++c) {
    if (cfg_.inner == Inner::kTree) {
      TreeQuorumProvider::Config tc;
      tc.num_nodes = cfg_.cohort_size;
      tc.read_level = cfg_.tree_read_level;
      tc.same_for_all = cfg_.same_for_all;
      inner_.push_back(std::make_unique<TreeQuorumProvider>(tc));
    } else {
      inner_.push_back(std::make_unique<MajorityQuorumProvider>(
          cfg_.cohort_size, cfg_.same_for_all));
    }
  }
}

std::vector<NodeId> ShardedQuorumProvider::cohort_read_quorum(
    NodeId node, std::uint32_t cohort) const {
  QRDTM_CHECK(cohort < cfg_.num_shards);
  std::vector<NodeId> local =
      inner_[cohort]->cohort_read_quorum(local_salt(node, cohort), 0);
  for (NodeId& v : local) v = to_global(cohort, v);
  std::sort(local.begin(), local.end());
  return local;
}

std::vector<NodeId> ShardedQuorumProvider::cohort_write_quorum(
    NodeId node, std::uint32_t cohort) const {
  QRDTM_CHECK(cohort < cfg_.num_shards);
  std::vector<NodeId> local =
      inner_[cohort]->cohort_write_quorum(local_salt(node, cohort), 0);
  for (NodeId& v : local) v = to_global(cohort, v);
  std::sort(local.begin(), local.end());
  return local;
}

void ShardedQuorumProvider::on_failure(NodeId dead) {
  QuorumProvider::on_failure(dead);
  for (std::uint32_t c = 0; c < cfg_.num_shards; ++c) {
    if (!member_of(dead, c)) continue;
    const NodeId local = static_cast<NodeId>(
        (dead + cfg_.num_nodes - cohort_start(c)) % cfg_.num_nodes);
    inner_[c]->on_failure(local);
  }
}

void ShardedQuorumProvider::on_recovery(NodeId node) {
  QuorumProvider::on_recovery(node);
  for (std::uint32_t c = 0; c < cfg_.num_shards; ++c) {
    if (!member_of(node, c)) continue;
    const NodeId local = static_cast<NodeId>(
        (node + cfg_.num_nodes - cohort_start(c)) % cfg_.num_nodes);
    inner_[c]->on_recovery(local);
  }
}

std::vector<std::uint32_t> ShardedQuorumProvider::node_cohorts(
    NodeId node) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t c = 0; c < cfg_.num_shards; ++c) {
    if (member_of(node, c)) out.push_back(c);
  }
  return out;
}

}  // namespace qrdtm::quorum
