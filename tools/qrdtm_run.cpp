// qrdtm_run -- command-line experiment runner.
//
// Runs one deterministic simulation point with every knob on the command
// line and prints the full metric breakdown (every core::Metrics counter);
// the quickest way to explore the design space beyond the fixed paper
// figures.
//
//   $ qrdtm_run --app slist --mode closed --nodes 13 --clients 8
//               --reads 0.2 --calls 3 --objects 128 --seconds 60 --seed 1
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/harness.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

void usage() {
  std::printf(
      "usage: qrdtm_run [options]\n"
      "  --app NAME        bank|hashmap|slist|rbtree|bst|vacation "
      "(default bank)\n"
      "  --mode MODE       flat|closed|checkpoint|queued (default flat)\n"
      "  --nodes N         cluster size (default 13)\n"
      "  --clients N       closed-loop clients (default 8)\n"
      "  --reads F         read ratio 0..1 (default 0.2)\n"
      "  --calls N         nested calls per transaction (default 3)\n"
      "  --objects N       app population (default: per-app)\n"
      "  --seconds S       simulated duration (default 60)\n"
      "  --seed N          deterministic seed (default 1)\n"
      "  --quorum KIND     tree|majority|flat-failure|sharded (default "
      "tree)\n"
      "  --read-level N    tree read level (default 1)\n"
      "  --shards N        sharded quorum: cohort count (default 16)\n"
      "  --cohort-size N   sharded quorum: replicas per cohort (default "
      "13)\n"
      "  --failures N      fail-stops before the run (default 0)\n"
      "  --chk-threshold N objects per checkpoint (default 1)\n"
      "  --batch-window MS queued-mode batch formation window (default 10)\n"
      "  --batch-max N     queued-mode max transactions per batch "
      "(default 32)\n"
      "  --client-nodes N  co-locate clients on the first N nodes\n"
      "                    (default 0 = spread round-robin over all nodes)\n"
      "  --metrics-json PATH write the run as JSON: config, throughput,\n"
      "                    host cost, every counter, messages and\n"
      "                    payload bytes per message kind, per-node +\n"
      "                    aggregate latency histograms (p50/p90/p99 of\n"
      "                    commit latency, read RTT, backoff waits, retry\n"
      "                    gaps)\n"
      "  --trace-json PATH record a full qrdtm-trace and write it in Chrome\n"
      "                    trace-event format (open at ui.perfetto.dev)\n");
}

/// Largest real any flag accepts: even as seconds, far inside the 64-bit
/// nanosecond tick range.
constexpr double kMaxReal = 1e9;

/// Parse all of `val` as an unsigned integer, or as a real in [0,
/// kMaxReal]; on junk, a sign, overflow or NaN, name the flag and fail.
template <class T>
bool number(const std::string& flag, const std::string& val, T& out) {
  const char* end = val.data() + val.size();
  const auto [ptr, ec] = std::from_chars(val.data(), end, out);
  bool ok = ec == std::errc() && ptr == end && !val.empty();
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && out >= 0 && out <= kMaxReal;
  }
  if (!ok) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(),
                 val.c_str());
  }
  return ok;
}

bool parse(int argc, char** argv, ExperimentConfig& cfg,
           std::string& metrics_json, std::string& trace_json) {
  core::ClusterConfig& cc = cfg.cluster;
  cfg.params.num_objects = 0;  // sentinel: fill from default_objects
  double seconds = 60;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string val = argv[++i];
    bool ok = true;
    if (flag == "--app") {
      cfg.app = val;
    } else if (flag == "--mode") {
      if (val == "flat") {
        cc.runtime.mode = core::NestingMode::kFlat;
      } else if (val == "closed") {
        cc.runtime.mode = core::NestingMode::kClosed;
      } else if (val == "checkpoint" || val == "chk") {
        cc.runtime.mode = core::NestingMode::kCheckpoint;
      } else if (val == "queued") {
        cc.runtime.mode = core::NestingMode::kQueued;
      } else {
        std::fprintf(stderr, "unknown mode %s\n", val.c_str());
        return false;
      }
    } else if (flag == "--nodes") {
      ok = number(flag, val, cc.num_nodes);
    } else if (flag == "--clients") {
      ok = number(flag, val, cfg.clients);
    } else if (flag == "--reads") {
      ok = number(flag, val, cfg.params.read_ratio);
    } else if (flag == "--calls") {
      ok = number(flag, val, cfg.params.nested_calls);
    } else if (flag == "--objects") {
      ok = number(flag, val, cfg.params.num_objects);
    } else if (flag == "--seconds") {
      ok = number(flag, val, seconds);
    } else if (flag == "--seed") {
      ok = number(flag, val, cc.seed);
    } else if (flag == "--quorum") {
      if (val == "tree") {
        cc.quorum = core::QuorumKind::kTree;
      } else if (val == "majority") {
        cc.quorum = core::QuorumKind::kMajority;
      } else if (val == "flat-failure") {
        cc.quorum = core::QuorumKind::kFlatFailureAware;
      } else if (val == "sharded") {
        cc.quorum = core::QuorumKind::kSharded;
      } else {
        std::fprintf(stderr, "unknown quorum %s\n", val.c_str());
        return false;
      }
    } else if (flag == "--read-level") {
      ok = number(flag, val, cc.tree_read_level);
    } else if (flag == "--shards") {
      ok = number(flag, val, cc.num_shards);
    } else if (flag == "--cohort-size") {
      ok = number(flag, val, cc.cohort_size);
    } else if (flag == "--failures") {
      ok = number(flag, val, cfg.failures);
    } else if (flag == "--chk-threshold") {
      ok = number(flag, val, cc.runtime.chk_threshold);
    } else if (flag == "--batch-window") {
      double ms = 0;
      ok = number(flag, val, ms);
      cc.runtime.batch_window = sim::msec(ms);
    } else if (flag == "--batch-max") {
      ok = number(flag, val, cc.runtime.batch_max_txns);
    } else if (flag == "--client-nodes") {
      ok = number(flag, val, cfg.client_nodes);
    } else if (flag == "--metrics-json") {
      metrics_json = val;
    } else if (flag == "--trace-json") {
      trace_json = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) return false;
  }

  const std::vector<std::string> apps = apps::app_names();
  if (std::find(apps.begin(), apps.end(), cfg.app) == apps.end()) {
    std::fprintf(stderr, "unknown app %s\n", cfg.app.c_str());
    return false;
  }
  cfg.duration = sim::sec(seconds);
  const char* error = nullptr;
  if (cc.num_nodes < 1) {
    error = "--nodes must be at least 1";
  } else if (cfg.failures >= cc.num_nodes) {
    error = "--failures must be below --nodes";
  } else if (cfg.params.read_ratio > 1) {
    error = "--reads must be in [0, 1]";
  } else if (cfg.duration == 0) {
    error = "--seconds must be above 0";
  }
  if (error != nullptr) {
    std::fprintf(stderr, "%s\n", error);
    return false;
  }
  // A sharded cohort cannot hold more replicas than the cluster has nodes.
  cc.cohort_size = std::min(cc.cohort_size, cc.num_nodes);
  if (cfg.params.num_objects == 0) {
    cfg.params.num_objects = default_objects(cfg.app);
  }
  return true;
}

void write_histogram_json(std::FILE* f, const char* name,
                          const core::LatencyHistogram& h,
                          const char* indent, bool last) {
  std::fprintf(f,
               "%s\"%s\": {\"count\": %llu, \"mean_ms\": %.3f, "
               "\"min_ms\": %.3f, \"p50_ms\": %.3f, \"p90_ms\": %.3f, "
               "\"p99_ms\": %.3f, \"max_ms\": %.3f}%s\n",
               indent, name, static_cast<unsigned long long>(h.count()),
               h.mean() / 1e6, sim::to_seconds(h.min()) * 1e3,
               sim::to_seconds(h.percentile(50)) * 1e3,
               sim::to_seconds(h.percentile(90)) * 1e3,
               sim::to_seconds(h.percentile(99)) * 1e3,
               sim::to_seconds(h.max()) * 1e3, last ? "" : ",");
}

// batch_size holds raw transaction counts, not ticks: emit the values
// unscaled instead of pretending they are durations.
void write_count_histogram_json(std::FILE* f, const char* name,
                                const core::LatencyHistogram& h,
                                const char* indent, bool last) {
  std::fprintf(f,
               "%s\"%s\": {\"count\": %llu, \"mean\": %.3f, "
               "\"min\": %llu, \"p50\": %llu, \"p90\": %llu, "
               "\"p99\": %llu, \"max\": %llu}%s\n",
               indent, name, static_cast<unsigned long long>(h.count()),
               h.mean(), static_cast<unsigned long long>(h.min()),
               static_cast<unsigned long long>(h.percentile(50)),
               static_cast<unsigned long long>(h.percentile(90)),
               static_cast<unsigned long long>(h.percentile(99)),
               static_cast<unsigned long long>(h.max()), last ? "" : ",");
}

void write_latency_json(std::FILE* f, const core::LatencyMetrics& m,
                        const char* indent) {
  write_histogram_json(f, "commit_latency", m.commit_latency, indent, false);
  write_histogram_json(f, "read_rtt", m.read_rtt, indent, false);
  write_histogram_json(f, "backoff_wait", m.backoff_wait, indent, false);
  write_histogram_json(f, "retry_gap", m.retry_gap, indent, false);
  write_histogram_json(f, "batch_wait", m.batch_wait, indent, false);
  write_count_histogram_json(f, "batch_size", m.batch_size, indent, true);
}

/// One "0x0101": {"messages": N, "bytes": B} member per message kind that
/// carried traffic, kinds ascending; bytes are payload bytes.
void write_net_json(std::FILE* f, const net::NetStats& ns) {
  std::fprintf(f, "  \"net\": {");
  const char* sep = "\n";
  for (std::size_t k = 0; k < net::kMsgKindSpace; ++k) {
    const auto kind = static_cast<net::MsgKind>(k);
    if (ns.sent_by_kind(kind) == 0) continue;
    std::fprintf(f, "%s    \"0x%04zx\": {\"messages\": %llu, \"bytes\": %llu}",
                 sep, k,
                 static_cast<unsigned long long>(ns.sent_by_kind(kind)),
                 static_cast<unsigned long long>(ns.bytes_by_kind(kind)));
    sep = ",\n";
  }
  std::fprintf(f, "\n  },\n");
}

/// The run header (config, throughput, host cost, every counter), the
/// commit logs' bytes and held bytes summed over the nodes, the per-kind
/// network traffic, then the aggregate (cluster-merged) and
/// per-node latency histograms, percentiles in milliseconds.
bool write_metrics_json(const std::string& path, const ExperimentConfig& cfg,
                        const ExperimentResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"app\": \"%s\", \"mode\": \"%s\", \"num_nodes\": %u, "
               "\"clients\": %u, \"seed\": %llu, \"sim_seconds\": %.6f,\n"
               "  %s,\n",
               cfg.app.c_str(), core::to_string(cfg.cluster.runtime.mode),
               cfg.cluster.num_nodes, cfg.clients,
               static_cast<unsigned long long>(cfg.cluster.seed),
               sim::to_seconds(cfg.duration), result_json_members(r).c_str());
  std::fprintf(f,
               "  \"log_bytes\": %zu, \"log_capacity_bytes\": %zu, "
               "\"log_shared_bytes\": %zu,\n"
               "  \"outcome_table_bytes\": %zu, \"histogram_bytes\": %zu,\n",
               r.log_bytes, r.log_capacity_bytes, r.log_shared_bytes,
               r.outcome_table_bytes, r.histogram_bytes);
  write_net_json(f, r.net);
  std::fprintf(f, "  \"aggregate\": {\n");
  write_latency_json(f, r.latency, "    ");
  std::fprintf(f, "  },\n  \"nodes\": [\n");
  for (std::size_t n = 0; n < r.node_latency.size(); ++n) {
    std::fprintf(f, "    {\n      \"node\": %zu,\n", n);
    write_latency_json(f, r.node_latency[n], "      ");
    std::fprintf(f, "    }%s\n", n + 1 < r.node_latency.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig cfg;
  std::string metrics_json;
  std::string trace_json;
  if (!parse(argc, argv, cfg, metrics_json, trace_json)) {
    usage();
    return 2;
  }
  core::TraceRecorder tracer;
  if (!trace_json.empty()) cfg.trace = &tracer;
  if (!metrics_json.empty()) cfg.collect_per_node_latency = true;

  std::printf("app=%s mode=%s nodes=%u clients=%u reads=%.2f calls=%u "
              "objects=%u seed=%llu\n",
              cfg.app.c_str(), core::to_string(cfg.cluster.runtime.mode),
              cfg.cluster.num_nodes, cfg.clients, cfg.params.read_ratio,
              cfg.params.nested_calls, cfg.params.num_objects,
              static_cast<unsigned long long>(cfg.cluster.seed));

  ExperimentResult r = run_experiment(cfg);

  std::printf("%-24s%10.2f txn/s\n", "throughput", r.throughput);
  for (const core::MetricField& f : core::kMetricFields) {
    std::printf("%-24s%10llu\n", f.name,
                static_cast<unsigned long long>(r.metrics.*f.field));
  }
  // With zero commits both ratios are undefined (NaN): print "n/a".
  std::printf("%-24s%s\n", "aborts/commit",
              fmt(r.metrics.abort_rate(), 10, 2).c_str());
  std::printf("%-24s%s\n", "msgs/commit",
              fmt(r.metrics.messages_per_commit(), 10, 1).c_str());
  std::printf("%-24s%10.1f ms\n", "commit p50", commit_percentile_ms(r, 50));
  std::printf("%-24s%10.1f ms\n", "commit p99", commit_percentile_ms(r, 99));
  std::printf("%-24s%10.1f ms\n", "read rtt p50",
              sim::to_seconds(r.latency.read_rtt.percentile(50)) * 1e3);
  std::printf("%-24s%10.1f ms\n", "read rtt p99",
              sim::to_seconds(r.latency.read_rtt.percentile(99)) * 1e3);
  std::printf("%-24s%10s\n", "invariants", r.invariants_ok ? "OK" : "VIOLATED");
  std::printf("%-24s%10.3f s\n", "wall clock", r.wall_seconds);
  std::printf("%-24s%10llu\n", "events executed",
              static_cast<unsigned long long>(r.events_executed));
  std::printf("%-24s%10.0f\n", "events/sec", r.events_per_sec());

  if (!metrics_json.empty() && !write_metrics_json(metrics_json, cfg, r)) {
    return 2;
  }
  if (!trace_json.empty()) {
    if (!tracer.write_chrome_trace(trace_json)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_json.c_str());
      return 2;
    }
    std::printf("trace: %zu spans, %zu instants -> %s (load at "
                "ui.perfetto.dev)\n",
                tracer.spans().size(), tracer.instants().size(),
                trace_json.c_str());
  }
  return r.invariants_ok ? 0 : 1;
}
