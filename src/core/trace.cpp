#include "core/trace.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace qrdtm::core {

sim::Tick LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  // Rank of the requested percentile (1-based, nearest-rank definition).
  std::uint64_t rank = static_cast<std::uint64_t>(
      (p / 100.0) * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      sim::Tick v = bucket_upper(first_ + i);
      // The bucket edge may overshoot the true extremes; the exact min/max
      // are tracked, so clamp to them.
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
  }
  return max();
}

void LatencyHistogram::cover(std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t end = first_ + static_cast<std::uint32_t>(counts_.size());
  if (!counts_.empty()) {
    lo = std::min(lo, first_);
    hi = std::max(hi, end);
  }
  if (lo == first_ && hi == end) return;
  std::vector<std::uint64_t> wider(hi - lo);
  std::copy(counts_.begin(), counts_.end(), wider.begin() + (first_ - lo));
  counts_ = std::move(wider);
  first_ = lo;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.counts_.empty()) return;  // no buckets: all zero
  const std::uint32_t other_end =
      other.first_ + static_cast<std::uint32_t>(other.counts_.size());
  cover(other.first_, other_end);
  for (std::uint32_t i = 0; i < other.counts_.size(); ++i) {
    counts_[other.first_ + i - first_] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

bool LatencyHistogram::operator==(const LatencyHistogram& o) const {
  if (count_ != o.count_ || sum_ != o.sum_ || min_ != o.min_ ||
      max_ != o.max_) {
    return false;
  }
  // Compare over both windows; a bucket outside a window counts zero.
  const auto end = [](const LatencyHistogram& h) {
    return h.first_ + static_cast<std::uint32_t>(h.counts_.size());
  };
  const std::uint32_t lo = std::min(first_, o.first_);
  const std::uint32_t hi = std::max(end(*this), end(o));
  for (std::uint32_t i = lo; i < hi; ++i) {
    if (bucket_count(i) != o.bucket_count(i)) return false;
  }
  return true;
}

namespace {

struct KindInfo {
  const char* name;  // Perfetto slice name
  const char* cat;   // category
  const char* arg0;  // label for a0 (nullptr = omit)
  const char* arg1;  // label for a1 (nullptr = omit)
};

const KindInfo& kind_info(TraceKind k) {
  static const KindInfo kTable[] = {
      {"txn", "txn", "attempts", nullptr},           // kTxn
      {"attempt", "txn", "attempt", "committed"},    // kAttempt
      {"ct_scope", "nesting", "depth", "retries"},   // kCtScope
      {"chk_create", "checkpoint", "epoch", nullptr},    // kChkCreate
      {"chk_rollback", "checkpoint", "epoch", nullptr},  // kChkRollback
      {"read_fetch", "quorum", "object", nullptr},   // kReadFetch
      {"commit_2pc", "commit", "writeset", "local"}, // kCommit2pc
      {"backoff", "retry", "attempt", nullptr},      // kBackoff
      {"server_read", "server", "abort", nullptr},   // kServerRead
      {"server_vote", "server", "commit", nullptr},  // kServerVote
      {"abort", "retry", nullptr, nullptr},          // kAbort
      {"batch", "batch", "size", "attempts"},        // kBatch
  };
  return kTable[static_cast<std::size_t>(k)];
}

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// Ticks are nanoseconds; trace-event timestamps are microseconds.
void append_us(std::string& out, sim::Tick t) {
  append(out, "%llu.%03u", static_cast<unsigned long long>(t / 1000),
         static_cast<unsigned>(t % 1000));
}

void append_args(std::string& out, const KindInfo& info, std::uint64_t a0,
                 std::uint64_t a1, bool has_a1) {
  out += "\"args\":{";
  bool first = true;
  if (info.arg0 != nullptr) {
    append(out, "\"%s\":%llu", info.arg0, static_cast<unsigned long long>(a0));
    first = false;
  }
  if (has_a1 && info.arg1 != nullptr) {
    append(out, "%s\"%s\":%llu", first ? "" : ",", info.arg1,
           static_cast<unsigned long long>(a1));
  }
  out += "}";
}

}  // namespace

std::string TraceRecorder::chrome_trace_json() const {
  std::string out;
  out.reserve(128 + spans_.size() * 160 + instants_.size() * 140);
  out += "{\"traceEvents\":[\n";
  bool first = true;

  // Per-node process metadata so Perfetto labels the lanes.
  std::vector<net::NodeId> nodes;
  for (const TraceSpan& s : spans_) nodes.push_back(s.node);
  for (const TraceInstant& e : instants_) nodes.push_back(e.node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (net::NodeId n : nodes) {
    append(out,
           "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
           "\"args\":{\"name\":\"node %u\"}}",
           first ? "" : ",\n", n, n);
    first = false;
  }

  for (const TraceSpan& s : spans_) {
    const KindInfo& info = kind_info(s.kind);
    append(out, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
           "\"tid\":%llu,\"ts\":",
           first ? "" : ",\n", info.name, info.cat, s.node,
           static_cast<unsigned long long>(s.txn));
    first = false;
    append_us(out, s.start);
    out += ",\"dur\":";
    append_us(out, s.end - s.start);
    out += ",";
    append_args(out, info, s.a0, s.a1, /*has_a1=*/true);
    out += "}";
  }
  for (const TraceInstant& e : instants_) {
    const KindInfo& info = kind_info(e.kind);
    append(out, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
           "\"pid\":%u,\"tid\":%llu,\"ts\":",
           first ? "" : ",\n", info.name, info.cat, e.node,
           static_cast<unsigned long long>(e.txn));
    first = false;
    append_us(out, e.at);
    out += ",";
    append_args(out, info, e.a0, 0, /*has_a1=*/false);
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace qrdtm::core
