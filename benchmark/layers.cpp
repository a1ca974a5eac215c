#include "layers.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "core/wire.h"
#include "store/commit_log.h"
#include "store/replica_store.h"

namespace qrdtm::benchmark {

namespace {

using core::TraceKind;
using core::TraceSpan;

std::size_t kind_index(TraceKind k) { return static_cast<std::size_t>(k); }

bool aborted(const TraceSpan& s) {
  return (s.kind == TraceKind::kAttempt || s.kind == TraceKind::kCtScope) &&
         s.a1 == 0;
}

/// One open span while walking a group in start order.
struct Frame {
  const TraceSpan* span;
  sim::Tick covered = 0;  // union of child intervals seen so far
  sim::Tick cursor = 0;   // end of that union
  bool wasted = false;    // this span or an ancestor was discarded
  bool in_root = false;   // inside a committed root transaction's tree
};

/// Walks one group of spans -- one root transaction, or one QR-Q batch with
/// its members -- sorted by start ascending, end descending, recording order
/// descending: a parent, which ends at or after its children and is recorded
/// after them, precedes them.
void walk_group(const std::vector<const TraceSpan*>& group,
                SpanBreakdown& out) {
  std::vector<Frame> stack;
  auto pop = [&] {
    const Frame f = stack.back();
    stack.pop_back();
    const sim::Tick self = (f.span->end - f.span->start) - f.covered;
    out.self[kind_index(f.span->kind)] += self;
    if (f.in_root) out.committed_tree_self += self;
  };
  for (const TraceSpan* s : group) {
    while (!stack.empty() && s->end > stack.back().span->end) pop();
    Frame f{s};
    if (!stack.empty()) {
      Frame& parent = stack.back();
      const sim::Tick from = std::max(s->start, parent.cursor);
      if (s->end > from) parent.covered += s->end - from;
      parent.cursor = std::max(parent.cursor, s->end);
      f.wasted = parent.wasted;
      f.in_root = parent.in_root;
    } else {
      f.in_root = s->kind == TraceKind::kTxn;
    }
    f.cursor = s->start;
    if (!f.wasted && aborted(*s)) {
      f.wasted = true;
      out.wasted += s->end - s->start;
    }
    stack.push_back(f);
  }
  while (!stack.empty()) pop();

  for (const TraceSpan* b : group) {
    if (b->kind != TraceKind::kBatch) continue;
    out.batch_execs.push_back(b->end - b->start);
    for (const TraceSpan* t : group) {
      if (t->kind == TraceKind::kTxn) {
        out.batch_waits.push_back(b->start - t->start);
      }
    }
  }
}

using Clock = std::chrono::steady_clock;
constexpr int kProbePasses = 5;

/// Median host seconds of `kProbePasses` calls of `pass`; `prepare` builds
/// each pass's inputs outside the timed region.
template <class Prepare, class Pass>
double median_seconds(Prepare&& prepare, Pass&& pass) {
  std::vector<double> times;
  for (int i = 0; i < kProbePasses; ++i) {
    auto input = prepare();
    const Clock::time_point start = Clock::now();
    pass(input);
    times.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

template <class Pass>
double median_seconds(Pass&& pass) {
  return median_seconds([] { return 0; }, [&](int) { pass(); });
}

double per(double total, std::size_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

struct LoggedCommit {
  core::TxnId txn = 0;
  std::vector<store::LoggedWrite> writes;
};

/// Replica-side cost of committing each recorded write-set: protect,
/// WAL prepare + confirm, apply, unprotect -- then of replaying and cutting
/// the log those commits wrote.
void probe_store(const core::HistoryRecorder& history, HostProbes& out) {
  std::vector<LoggedCommit> commits;
  for (const core::CommittedTxn& c : history.committed()) {
    if (c.writes.empty()) continue;
    LoggedCommit lc{c.txn, {}};
    for (const core::HistoryWrite& w : c.writes) {
      lc.writes.push_back(store::LoggedWrite{
          w.id, w.base, static_cast<std::uint32_t>(w.installed - w.base),
          w.data});
    }
    commits.push_back(std::move(lc));
  }

  struct Scratch {
    store::ReplicaStore store;
    store::CommitLog log;
  };
  auto fresh = [&] {
    Scratch s;
    for (const auto& [id, seed] : history.seeds()) {
      s.store.seed(id, seed.data, seed.version);
      s.log.append_apply(id, seed.version, seed.data, 0);
    }
    return s;
  };
  auto commit_all = [&](Scratch& s) {
    std::uint64_t tick = 1;
    for (const LoggedCommit& c : commits) {
      for (const store::LoggedWrite& w : c.writes) {
        s.store.protect(w.id, c.txn, tick);
      }
      s.log.append_prepare(c.txn, c.writes, 0);
      s.log.append_confirm(c.txn, true, 0);
      for (const store::LoggedWrite& w : c.writes) {
        s.store.apply(w.id, w.base + w.steps, w.data);
        s.store.unprotect(w.id, c.txn);
      }
      ++tick;
    }
  };
  const double commit_s = median_seconds(fresh, commit_all);
  out.store_commit_ns = per(commit_s * 1e9, commits.size());

  Scratch done = fresh();
  commit_all(done);
  const double replay_s = median_seconds(
      [] { return store::ReplicaStore{}; },
      [&](store::ReplicaStore& s) { done.log.replay_into(s); });
  out.replay_ns_per_record = per(replay_s * 1e9, done.log.tail_records());
  const double cut_s =
      median_seconds([&] { return done.log; },
                     [&](store::CommitLog& log) { log.cut(done.store, 0); });
  out.cut_ms = cut_s * 1e3;
}

void probe_quorums(const quorum::QuorumProvider& q,
                   const core::HistoryRecorder& history,
                   const std::vector<net::NodeId>& client_nodes,
                   HostProbes& out) {
  std::size_t read_members = 0;
  std::size_t write_members = 0;
  auto lookup_all = [&] {
    read_members = 0;
    write_members = 0;
    for (net::NodeId node : client_nodes) {
      for (const auto& entry : history.seeds()) {
        read_members += q.read_quorum(node, entry.first).size();
        write_members += q.write_quorum(node, entry.first).size();
      }
    }
  };
  const std::size_t lookups = client_nodes.size() * history.seeds().size();
  const double lookup_s = median_seconds(lookup_all);
  out.quorum_lookup_ns = per(lookup_s * 1e9, 2 * lookups);
  out.quorum_read_size = per(static_cast<double>(read_members), lookups);
  out.quorum_write_size = per(static_cast<double>(write_members), lookups);
}

/// Wire codecs on request shapes rebuilt from each recorded commit.  A
/// commit that touched n objects issued n remote reads; the k-th carries the
/// first k data-set entries under the Rqv modes (QR-CN, QR-CHK) and none
/// otherwise.
void probe_wire(const core::HistoryRecorder& history, core::NestingMode mode,
                HostProbes& out) {
  const bool ships_dataset = mode == core::NestingMode::kClosed ||
                             mode == core::NestingMode::kCheckpoint;
  struct Touch {
    core::DataSetEntry entry;
    bool for_write = false;
  };
  std::vector<std::pair<core::TxnId, std::vector<Touch>>> reads;
  std::vector<core::CommitRequest> commits;
  for (const core::CommittedTxn& c : history.committed()) {
    std::vector<Touch> touches;
    core::CommitRequest req;
    req.txn = c.txn;
    for (const core::HistoryRead& r : c.reads) {
      touches.push_back(
          Touch{core::DataSetEntry{r.id, r.version, c.txn}, false});
      req.readset.push_back(core::CommitReadEntry{r.id, r.version});
    }
    for (const core::HistoryWrite& w : c.writes) {
      touches.push_back(Touch{core::DataSetEntry{w.id, w.base, c.txn}, true});
      req.writeset.push_back(core::CommitWriteEntry{w.id, w.base, w.data});
    }
    reads.emplace_back(c.txn, std::move(touches));
    commits.push_back(std::move(req));
  }

  // Every decode must give back what was encoded; the comparison also keeps
  // the decodes from being optimised away.
  std::size_t read_bytes = 0;
  std::size_t requests = 0;
  auto read_pass = [&] {
    read_bytes = 0;
    requests = 0;
    std::vector<core::DataSetEntry> dataset;
    for (const auto& [txn, touches] : reads) {
      dataset.clear();
      for (const Touch& t : touches) {
        Writer w;
        core::encode_read_request(w, txn, mode, t.entry.id, t.for_write,
                                  dataset);
        const Bytes b = std::move(w).take();
        const core::ReadRequest back = core::ReadRequest::decode(b);
        if (back.object != t.entry.id ||
            back.dataset.size() != dataset.size()) {
          out.codecs_ok = false;
        }
        read_bytes += b.size();
        ++requests;
        if (ships_dataset) dataset.push_back(t.entry);
      }
    }
  };
  const double read_s = median_seconds(read_pass);
  out.read_req_codec_ns = per(read_s * 1e9, requests);
  out.read_req_bytes = per(static_cast<double>(read_bytes), reads.size());

  std::size_t commit_bytes = 0;
  auto commit_pass = [&] {
    commit_bytes = 0;
    for (const core::CommitRequest& req : commits) {
      const Bytes b = req.encode();
      const core::CommitRequest back = core::CommitRequest::decode(b);
      if (back.txn != req.txn || back.readset.size() != req.readset.size() ||
          back.writeset.size() != req.writeset.size()) {
        out.codecs_ok = false;
      }
      commit_bytes += b.size();
    }
  };
  const double commit_s = median_seconds(commit_pass);
  out.commit_req_codec_ns = per(commit_s * 1e9, commits.size());
  out.commit_req_bytes = per(static_cast<double>(commit_bytes), commits.size());
}

}  // namespace

SpanBreakdown analyze_trace(const core::TraceRecorder& trace,
                            std::size_t spans, std::size_t instants) {
  SpanBreakdown out;
  const std::vector<TraceSpan>& all = trace.spans();
  const std::size_t n = std::min(spans, all.size());

  // Spans are grouped under the root transaction (or QR-Q batch) they
  // served.  QR-Q records member reads under member scope ids and retried
  // 2PC rounds under fresh batch ids; a node runs one batch at a time, so
  // such a span belongs to the committed batch whose execution contains it.
  std::set<std::pair<net::NodeId, core::TxnId>> rooted;
  std::map<net::NodeId, std::vector<const TraceSpan*>> batches;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceSpan& s = all[i];
    if (s.kind == TraceKind::kTxn) rooted.emplace(s.node, s.txn);
    if (s.kind == TraceKind::kBatch) batches[s.node].push_back(&s);
  }
  auto by_start = [](const TraceSpan* a, const TraceSpan* b) {
    return a->start < b->start;
  };
  for (auto& [node, list] : batches) {
    std::sort(list.begin(), list.end(), by_start);
  }
  std::vector<core::TxnId> key(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceSpan& s = all[i];
    key[i] = s.txn;
    if (rooted.count({s.node, s.txn}) > 0) continue;
    // A QR-Q 2PC round whose batch id never committed voted abort.
    if (s.kind == TraceKind::kCommit2pc) out.wasted += s.end - s.start;
    auto it = batches.find(s.node);
    if (it == batches.end()) continue;
    const auto& list = it->second;
    auto after = std::upper_bound(list.begin(), list.end(), &s, by_start);
    if (after != list.begin() && s.end <= (*std::prev(after))->end) {
      key[i] = (*std::prev(after))->txn;
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TraceSpan& x = all[a];
    const TraceSpan& y = all[b];
    return std::make_tuple(x.node, key[a], x.start, y.end, b) <
           std::make_tuple(y.node, key[b], y.start, x.end, a);
  });
  std::vector<const TraceSpan*> group;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = order[i];
    if (i > 0 && (all[order[i - 1]].node != all[idx].node ||
                  key[order[i - 1]] != key[idx])) {
      walk_group(group, out);
      group.clear();
    }
    group.push_back(&all[idx]);
  }
  if (!group.empty()) walk_group(group, out);

  for (std::size_t i = 0; i < n; ++i) {  // recording order
    const TraceSpan& s = all[i];
    if (s.kind == TraceKind::kReadFetch) {
      out.read_rtts.push_back(s.end - s.start);
    }
  }

  const auto& marks = trace.instants();
  for (std::size_t i = 0; i < std::min(instants, marks.size()); ++i) {
    if (marks[i].kind == TraceKind::kServerRead) ++out.server_reads;
    if (marks[i].kind == TraceKind::kServerVote) {
      ++out.server_votes;
      if (marks[i].a0 == 0) ++out.server_abort_votes;
    }
  }
  return out;
}

sim::Tick percentile(std::vector<sim::Tick> values, double p) {
  if (values.empty()) return 0;
  const std::uint64_t n = values.size();
  std::uint64_t rank =
      static_cast<std::uint64_t>((p / 100.0) * static_cast<double>(n) + 0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

HostProbes run_probes(core::Cluster& cluster,
                      const core::HistoryRecorder& history,
                      core::NestingMode mode,
                      const std::vector<net::NodeId>& client_nodes) {
  HostProbes out;
  probe_store(history, out);
  probe_quorums(cluster.quorums(), history, client_nodes, out);
  probe_wire(history, mode, out);
  return out;
}

}  // namespace qrdtm::benchmark
