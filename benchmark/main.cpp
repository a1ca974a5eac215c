// qrdtm_bench -- one workload of the repository benchmark, end to end.
//
//   qrdtm_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out FILE]
//
// An invocation pools kSubRuns sub-runs of the workload, each on a fresh
// cluster seeded from --seed.  Pass A runs them untraced, round-robin, until
// each ran once and S host seconds have passed; it gives the end-to-end
// metrics.  Pass B runs the first sub-run again with the trace and history
// recorders attached; it gives the per-layer metrics and the checks:
//   * the app's integrity invariants hold after every run,
//   * the benchmark's own commit-latency samples are the runtime's,
//   * the pass-B history is 1-copy serializable,
//   * every run of a sub-seed -- traced or not -- reaches byte-identical
//     simulated state, so observation does not perturb the simulation,
//   * under flat, QR-CN and QR-CHK the span self times of every committed
//     root transaction sum exactly to the recorded commit latencies.
//
// The last line of standard output is one JSON object: `correct`,
// `attempted`, `failed` and `metrics` (end-to-end with --trace 0, per-layer
// with --trace 1).  --out also writes every metric, check and repetition.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/wire.h"
#include "layers.h"
#include "workloads.h"

using namespace qrdtm;
using namespace qrdtm::benchmark;

namespace {

using Clock = std::chrono::steady_clock;
using core::TraceKind;

double dbl(std::uint64_t v) { return static_cast<double>(v); }

/// Sub-runs per invocation.  Each draws its own data-structure shape and
/// client choices from a sub-seed of --seed; pooling them keeps one seed's
/// luck from dominating a metric.
constexpr std::size_t kSubRuns = 8;

/// What pass A keeps from a sub-run's first repetition.
struct SubRun {
  SimSnapshot at_deadline;
  SimSnapshot drained;
  std::vector<sim::Tick> latencies;
  double wall_s = 0;  // minimum over the repetitions

  bool same_as(const Rep& rep) const {
    return rep.at_deadline() == at_deadline && rep.drained() == drained &&
           rep.latencies() == latencies;
  }
};

sim::Tick histogram_sum(const core::LatencyHistogram& h) {
  return static_cast<sim::Tick>(std::llround(h.mean() * dbl(h.count())));
}

/// The benchmark's own latency samples are exactly the runtime's.
bool matches_histogram(const std::vector<sim::Tick>& samples,
                       const core::LatencyHistogram& h) {
  sim::Tick sum = 0;
  for (sim::Tick t : samples) sum += t;
  return samples.size() == h.count() && sum == histogram_sum(h);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15;
  bool trace = false;
  std::string out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = val;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace" && (val == "0" || val == "1")) {
        a.trace = val == "1";
      } else if (flag == "--out") {
        a.out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && find_workload(a.workload) != nullptr &&
         a.seconds >= 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: qrdtm_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE]\nworkloads:");
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ms(double ticks) { return ticks / 1e6; }

double tick_ms(sim::Tick t) { return ms(dbl(t)); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  const char* clock;  // "sim" or "host"
};

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<Metric>& metrics, bool with_clock) {
  std::string s = "{";
  for (const Metric& m : metrics) {
    if (s.size() > 1) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"";
    if (with_clock) s += std::string(", \"clock\": \"") + m.clock + "\"";
    s += "}";
  }
  return s + "}";
}

template <class T>
std::string list_json(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i > 0 ? ", " : "") + num(static_cast<double>(v[i]));
  }
  return s + "]";
}

const char* boolean(bool b) { return b ? "true" : "false"; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  const Workload& w = *find_workload(args.workload);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < kSubRuns; ++i) {
    seeds.push_back(args.seed * 1000 + i);
  }

  // ----- pass A: untraced sub-runs -> end-to-end metrics -------------------
  // Sub-runs go round-robin until each ran once and --seconds have passed.
  std::vector<SubRun> subs(kSubRuns);
  std::vector<double> setups;
  std::size_t runs = 0;
  bool integrity = true;
  bool deterministic = true;
  bool latencies_match = true;
  std::uint64_t operations = 0;
  const Clock::time_point pass_a = Clock::now();
  for (; runs < kSubRuns || seconds_since(pass_a) < args.seconds; ++runs) {
    const std::size_t i = runs % kSubRuns;
    Rep rep(w, seeds[i], nullptr, nullptr);
    rep.run();
    rep.quiesce();
    integrity = rep.check_integrity() && integrity;
    setups.push_back(rep.setup_s());
    operations += rep.drained().metrics.commits;
    SubRun& sub = subs[i];
    if (runs < kSubRuns) {
      sub = SubRun{rep.at_deadline(), rep.drained(), rep.latencies(),
                   rep.wall_s()};
      const core::LatencyHistogram& h = sub.at_deadline.latency.commit_latency;
      latencies_match = latencies_match && matches_histogram(sub.latencies, h);
    } else {
      deterministic = deterministic && sub.same_as(rep);
      sub.wall_s = std::min(sub.wall_s, rep.wall_s());
    }
  }
  const double rss_mb = peak_rss_mb();

  // ----- pass B: the first sub-run traced -> per-layer metrics and checks --
  core::TraceRecorder tracer;
  core::HistoryRecorder history;
  Rep traced(w, seeds[0], &tracer, &history);
  traced.run();
  traced.quiesce();
  // The checker's own transaction is not workload: analyse what came before.
  const std::size_t workload_spans = tracer.spans().size();
  const std::size_t workload_instants = tracer.instants().size();
  integrity = traced.check_integrity() && integrity;
  operations += traced.drained().metrics.commits;
  deterministic = deterministic && subs[0].same_as(traced);

  const Clock::time_point check_start = Clock::now();
  const core::CheckResult serial =
      core::check_history(history, core::CheckLevel::kSerializable);
  const double history_s = seconds_since(check_start);
  if (!serial.ok) std::fprintf(stderr, "%s\n", serial.report.c_str());

  const SimSnapshot& drained = traced.drained();
  const SpanBreakdown spans =
      analyze_trace(tracer, workload_spans, workload_instants);
  const sim::Tick latency_sum = histogram_sum(drained.latency.commit_latency);

  // Span self times tile each committed root transaction exactly.  QR-Q
  // members share their batch's spans, so only the per-transaction modes
  // decompose.
  const bool decomposes = w.mode == core::NestingMode::kQueued ||
                          spans.committed_tree_self == latency_sum;

  const HostProbes probes =
      run_probes(traced.cluster(), history, w.mode, traced.client_nodes());

  // ----- metrics -----------------------------------------------------------
  double commits = 0;
  double aborts = 0;
  double events = 0;
  double best_s_per_event = std::numeric_limits<double>::infinity();
  std::vector<double> sub_walls;
  std::vector<sim::Tick> latencies;
  for (const SubRun& sub : subs) {
    const SimSnapshot& at = sub.at_deadline;
    commits += dbl(at.metrics.commits);
    aborts += dbl(at.metrics.total_aborts());
    events += dbl(at.events);
    best_s_per_event = std::min(best_s_per_event, sub.wall_s / dbl(at.events));
    sub_walls.push_back(sub.wall_s);
    latencies.insert(latencies.end(), sub.latencies.begin(),
                     sub.latencies.end());
  }
  // Host speed drifts by tens of percent over seconds on a shared machine,
  // and every sub-run simulates nearly the same number of events; the
  // fastest observed seconds per event, times the pooled events, is the
  // least noisy estimate of the pooled work's host time (min-of-R, per
  // event).
  const double wall_s = best_s_per_event * events;
  const double sim_seconds = sim::to_seconds(w.duration) * dbl(kSubRuns);
  std::vector<Metric> e2e = {
      {"throughput_txn_s", commits / sim_seconds, "txn/s", "sim"},
      {"commit_p50_ms", tick_ms(percentile(latencies, 50)), "ms", "sim"},
      {"commit_p99_ms", tick_ms(percentile(latencies, 99)), "ms", "sim"},
      {"abort_share", ratio(aborts, commits + aborts), "ratio", "sim"},
      {"wall_s", wall_s, "s", "host"},
      {"setup_s", median(setups), "s", "host"},
      {"peak_rss_mb", rss_mb, "MB", "host"},
  };

  // Per-layer counters come from the traced sub-run, drained.
  const core::Metrics& m = drained.metrics;
  const net::NetStats& ns = drained.net;
  auto per_commit = [&](double x) { return ratio(x, dbl(m.commits)); };
  auto sent = [&](std::initializer_list<net::MsgKind> kinds) {
    double n = 0;
    for (net::MsgKind k : kinds) n += dbl(ns.sent_by_kind(k));
    return n;
  };
  auto self_ticks = [&](std::initializer_list<TraceKind> kinds) {
    double t = 0;
    for (TraceKind k : kinds) t += dbl(spans.self[static_cast<std::size_t>(k)]);
    return t;
  };
  auto self_ms = [&](std::initializer_list<TraceKind> kinds) {
    return ms(per_commit(self_ticks(kinds)));
  };
  double batch_wait_sum = 0;
  for (sim::Tick t : spans.batch_waits) batch_wait_sum += dbl(t);
  double log_bytes = 0;
  double tracked = 0;
  for (net::NodeId n = 0; n < traced.cluster().num_nodes(); ++n) {
    const core::QrServer& server = traced.cluster().server(n);
    log_bytes += dbl(server.commit_log().size_bytes());
    tracked += dbl(server.store().tracked_txn_entries());
  }
  const double remote_reads = dbl(m.remote_reads);
  // The traced sub-run's host time against pass A's best speed on its work.
  const double untraced_s = best_s_per_event * dbl(subs[0].at_deadline.events);
  namespace msg = core::msg;

  std::vector<Metric> layers = {
      {"sim.events_per_commit", ratio(events, commits), "count", "sim"},
      {"sim.ns_per_event", best_s_per_event * 1e9, "ns", "host"},
      {"net.msgs_per_commit", per_commit(dbl(ns.sent_total)), "count", "sim"},
      {"net.read_msgs_per_commit", per_commit(sent({msg::kRead})), "count",
       "sim"},
      {"net.commit_msgs_per_commit",
       per_commit(sent({msg::kCommitRequest, msg::kCommitConfirm,
                        msg::kBatchCommitRequest, msg::kBatchCommitConfirm})),
       "count", "sim"},
      {"net.recovery_msgs",
       sent({msg::kSyncPull, msg::kTxnStatusRequest, msg::kTxnStatusResponse}),
       "count", "sim"},
      {"net.dropped",
       dbl(ns.dropped_dead + ns.dropped_chaos + ns.dropped_stale +
           ns.dropped_partition),
       "count", "sim"},
      {"quorum.read_size", probes.quorum_read_size, "count", "sim"},
      {"quorum.write_size", probes.quorum_write_size, "count", "sim"},
      {"quorum.lookup_ns", probes.quorum_lookup_ns, "ns", "host"},
      {"store.commit_ns", probes.store_commit_ns, "ns", "host"},
      {"store.replay_ns_per_record", probes.replay_ns_per_record, "ns", "host"},
      {"store.cut_ms", probes.cut_ms, "ms", "host"},
      {"store.autocuts", dbl(m.log_autocuts), "count", "sim"},
      {"store.log_bytes", log_bytes, "bytes", "sim"},
      {"store.tracked_txn_entries", tracked, "count", "sim"},
      {"wire.read_req_bytes_per_commit", probes.read_req_bytes, "bytes", "sim"},
      {"wire.read_req_codec_ns", probes.read_req_codec_ns, "ns", "host"},
      {"wire.commit_req_bytes", probes.commit_req_bytes, "bytes", "sim"},
      {"wire.commit_req_codec_ns", probes.commit_req_codec_ns, "ns", "host"},
      {"txn.read_fetch_ms", self_ms({TraceKind::kReadFetch}), "ms", "sim"},
      {"txn.commit_2pc_ms", self_ms({TraceKind::kCommit2pc}), "ms", "sim"},
      {"txn.backoff_ms", self_ms({TraceKind::kBackoff}), "ms", "sim"},
      {"txn.exec_self_ms",
       self_ms({TraceKind::kAttempt, TraceKind::kCtScope, TraceKind::kBatch}),
       "ms", "sim"},
      {"txn.wasted_ms", ms(per_commit(dbl(spans.wasted))), "ms", "sim"},
      {"txn.read_rtt_p50_ms", tick_ms(percentile(spans.read_rtts, 50)), "ms",
       "sim"},
      {"txn.read_rtt_p99_ms", tick_ms(percentile(spans.read_rtts, 99)), "ms",
       "sim"},
      {"txn.local_read_ratio",
       ratio(dbl(m.local_read_hits), dbl(m.local_read_hits) + remote_reads),
       "ratio", "sim"},
      {"txn.local_commit_ratio", per_commit(dbl(m.local_commits)), "ratio",
       "sim"},
      {"txn.aborts_per_commit", per_commit(dbl(m.total_aborts())), "ratio",
       "sim"},
      {"txn.ct_retries_per_commit", per_commit(dbl(m.ct_aborts)), "ratio",
       "sim"},
      {"txn.partial_rollbacks_per_commit", per_commit(dbl(m.partial_rollbacks)),
       "ratio", "sim"},
      {"txn.rqv_failures_per_commit", per_commit(dbl(m.validation_failures)),
       "ratio", "sim"},
      {"txn.chk_share",
       ratio(self_ticks({TraceKind::kChkCreate, TraceKind::kChkRollback}),
             dbl(latency_sum)),
       "ratio", "sim"},
      {"server.vote_abort_ratio",
       ratio(dbl(spans.server_abort_votes), dbl(spans.server_votes)), "ratio",
       "sim"},
      {"server.reads_served_per_commit", per_commit(dbl(spans.server_reads)),
       "count", "sim"},
      {"server.votes_per_commit", per_commit(dbl(spans.server_votes)), "count",
       "sim"},
      {"batch.size_p50", dbl(drained.latency.batch_size.percentile(50)),
       "count", "sim"},
      {"batch.rollbacks_per_batch",
       ratio(dbl(m.speculation_rollbacks), dbl(m.batches_committed)), "ratio",
       "sim"},
      {"batch.read_hit_ratio",
       ratio(dbl(m.batch_read_hits), dbl(m.batch_read_hits) + remote_reads),
       "ratio", "sim"},
      {"batch.queue_share", ratio(batch_wait_sum, dbl(latency_sum)), "ratio",
       "sim"},
      {"recovery.nodes", dbl(m.node_recoveries), "count", "sim"},
      {"recovery.delta_objects", dbl(m.recovery_delta_objects), "count", "sim"},
      {"recovery.replay_applies", dbl(m.log_replay_applies), "count", "sim"},
      {"recovery.failures", dbl(m.recovery_failures), "count", "sim"},
      {"recovery.indoubt_resolved",
       dbl(m.indoubt_resolved_commit + m.indoubt_resolved_abort), "count",
       "sim"},
      {"recovery.termination_rounds", dbl(m.termination_rounds), "count",
       "sim"},
      {"recovery.confirm_duplicates", dbl(m.confirm_duplicates), "count",
       "sim"},
      {"trace.overhead_pct", (ratio(traced.wall_s(), untraced_s) - 1) * 100,
       "%", "host"},
      {"check.history_s", history_s, "s", "host"},
  };

  // Mode-specific times: zero on the workloads that lack the mechanism, so
  // they are reported only in the --out record (the per-layer set carries
  // them as shares of commit latency).
  std::vector<Metric> extra = {
      {"txn.attempt_self_ms", self_ms({TraceKind::kAttempt}), "ms", "sim"},
      {"txn.ct_scope_ms", self_ms({TraceKind::kCtScope}), "ms", "sim"},
      {"txn.chk_ms", self_ms({TraceKind::kChkCreate, TraceKind::kChkRollback}),
       "ms", "sim"},
      {"batch.wait_p50_ms", tick_ms(percentile(spans.batch_waits, 50)), "ms",
       "sim"},
      {"batch.wait_p99_ms", tick_ms(percentile(spans.batch_waits, 99)), "ms",
       "sim"},
      {"batch.exec_ms", tick_ms(percentile(spans.batch_execs, 50)), "ms",
       "sim"},
  };

  bool finite = true;
  for (const auto* set : {&e2e, &layers, &extra}) {
    for (const Metric& x : *set) finite = finite && std::isfinite(x.value);
  }
  const bool correct = integrity && serial.ok && deterministic &&
                       latencies_match && decomposes && probes.codecs_ok &&
                       finite && commits > 0;
  const std::uint64_t failed = correct ? 0 : operations;

  std::fprintf(stderr,
               "%s seed=%llu runs=%zu commits=%zu | integrity=%d "
               "serializable=%d deterministic=%d latency_samples=%d "
               "decomposition=%d codecs=%d\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed), runs,
               latencies.size(), integrity, serial.ok, deterministic,
               latencies_match, decomposes, probes.codecs_ok);
  for (const auto* set : {&e2e, &layers, &extra}) {
    for (const Metric& x : *set) {
      std::fprintf(stderr, "  %-32s %16s %s\n", x.name.c_str(),
                   num(x.value).c_str(), x.unit.c_str());
    }
  }

  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 2;
    }
    const std::string body =
        "{\"workload\": \"" + w.name + "\", \"seed\": " +
        std::to_string(args.seed) + ", \"seconds\": " + num(args.seconds) +
        ", \"sub_seeds\": " + list_json(seeds) +
        ", \"runs\": " + std::to_string(runs) +
        ", \"correct\": " + boolean(correct) +
        ", \"attempted\": " + std::to_string(operations) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"commit_samples\": " + std::to_string(latencies.size()) +
        ", \"attempts\": " + num(commits + aborts) +
        ", \"checks\": {\"integrity\": " + boolean(integrity) +
        ", \"serializable\": " + boolean(serial.ok) +
        ", \"deterministic\": " + boolean(deterministic) +
        ", \"latency_samples\": " + boolean(latencies_match) +
        ", \"latency_decomposition\": " + boolean(decomposes) +
        ", \"codecs\": " + boolean(probes.codecs_ok) + "}" +
        ",\n \"end_to_end\": " + metrics_json(e2e, true) +
        ",\n \"per_layer\": " + metrics_json(layers, true) +
        ",\n \"extra\": " + metrics_json(extra, true) +
        ",\n \"wall_s_sub_runs\": " + list_json(sub_walls) +
        ", \"setup_s_samples\": " + list_json(setups) + "}\n";
    std::fputs(body.c_str(), f);
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 2;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              boolean(correct), static_cast<unsigned long long>(operations),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layers : e2e, false).c_str());
  return correct ? 0 : 1;
}
