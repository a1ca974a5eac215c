// Reproduces paper Fig. 9 (a, b): QR-DTM vs HyFlow (TFA) vs Decent-STM on
// the Bank benchmark under high contention (50 % reads) and low contention
// (90 % reads), sweeping the cluster size.
//
// Paper shape: HyFlow > QR-DTM > Decent-STM.  HyFlow wins because its
// single-copy unicast requests averaged ~5 ms on the testbed vs ~30 ms for
// QR-DTM's JGroups multicast (but it cannot survive failures); Decent-STM
// loses to QR-DTM because its snapshot algorithm carries higher overhead.
// The latency asymmetry is reproduced by configuration (unicast baselines
// run on 2 ms links, QR-DTM on its default 12 ms multicast-class links);
// Decent's snapshot overhead is the calibrated `snapshot_compute` cost.
#include <algorithm>
#include <cstdio>
#include <span>

#include "baselines/decent.h"
#include "baselines/tfa.h"
#include "bench/bench_util.h"
#include "common/serde.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

constexpr std::uint32_t kAccounts = 16;
constexpr std::uint32_t kOpsPerTxn = 3;
const sim::Tick kOpCompute = sim::usec(200);

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.i64();
}

struct BankOp {
  bool is_read;
  std::size_t a, b;
  std::int64_t amount;
};

std::vector<BankOp> draw_plan(Rng& rng, double read_ratio) {
  std::vector<BankOp> plan;
  for (std::uint32_t i = 0; i < kOpsPerTxn; ++i) {
    BankOp op;
    op.is_read = rng.chance(read_ratio);
    op.a = rng.below(kAccounts);
    op.b = rng.below(kAccounts - 1);
    if (op.b >= op.a) ++op.b;
    op.amount = rng.range(1, 10);
    plan.push_back(op);
  }
  return plan;
}

/// Throughput plus commit-latency percentiles (ms) for one system point.
struct SystemPoint {
  double tput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

SystemPoint from_latency(double tput, const core::LatencyMetrics& lat) {
  return SystemPoint{
      tput, sim::to_seconds(lat.commit_latency.percentile(50)) * 1e3,
      sim::to_seconds(lat.commit_latency.percentile(99)) * 1e3};
}

SystemPoint run_qr(std::uint32_t nodes, double ratio, std::uint64_t seed,
                   core::NestingMode mode) {
  ExperimentConfig cfg;
  cfg.app = "bank";
  // kFlat = plain QR, as compared in the paper.
  cfg.cluster.runtime.mode = mode;
  cfg.params.read_ratio = ratio;
  cfg.params.nested_calls = kOpsPerTxn;
  cfg.params.num_objects = kAccounts;
  cfg.cluster.num_nodes = nodes;
  cfg.clients = nodes;  // one client per node ...
  if (mode == core::NestingMode::kQueued) {
    // ... except QR-Q, whose batches only form with several clients per
    // node: same client count, co-located on a quarter of the cluster.
    cfg.client_nodes = std::max(1u, nodes / 4);
  }
  cfg.duration = point_duration();
  cfg.cluster.seed = seed;
  auto res = run_experiment(cfg);
  warn_if_corrupt(res, "qr bank");
  return from_latency(res.throughput, res.latency);
}

/// One baseline point: a Bank client per node on a TFA or DecentSTM
/// cluster.
template <class Cluster>
SystemPoint run_baseline(std::uint32_t nodes, double ratio,
                         std::uint64_t seed) {
  typename Cluster::Config cfg;
  cfg.num_nodes = nodes;
  cfg.seed = seed;
  Cluster c(cfg);
  std::vector<core::ObjectId> accounts;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    accounts.push_back(c.seed_new_object(enc_i64(1000)));
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    c.spawn_loop_client(n, [&, ratio](Rng& rng) -> typename Cluster::Body {
      auto plan = draw_plan(rng, ratio);
      // `c` must be by-reference (the cluster is not copyable) and outlives
      // every transaction body: run_for() drains all clients before `c`
      // leaves this scope.  qrdtm-lint: allow(coro-ref-capture)
      return [&c, plan, accounts](typename Cluster::Txn& t) -> sim::Task<void> {
        for (const BankOp& op : plan) {
          if (op.is_read) {
            (void)co_await t.read(accounts[op.a]);
            (void)co_await t.read(accounts[op.b]);
          } else {
            std::int64_t f = dec_i64(co_await t.read_for_write(accounts[op.a]));
            std::int64_t g = dec_i64(co_await t.read_for_write(accounts[op.b]));
            t.write(accounts[op.a], enc_i64(f - op.amount));
            t.write(accounts[op.b], enc_i64(g + op.amount));
          }
          co_await c.simulator().delay(kOpCompute);
        }
      };
    });
  }
  c.run_for(point_duration());
  return from_latency(c.metrics().throughput(c.duration()), c.latency());
}

void panel(const char* title, double ratio) {
  print_header(title,
               "nodes   QR-DTM  p50(ms)  p99(ms)     QR-Q  p50(ms)  p99(ms)"
               "  HyFlow(TFA)  p50(ms)  p99(ms)  Decent-STM  p50(ms)"
               "  p99(ms)");
  for (std::uint32_t nodes : {4u, 8u, 13u, 20u, 28u, 40u}) {
    SystemPoint qr = run_qr(nodes, ratio, 46, core::NestingMode::kFlat);
    SystemPoint qq = run_qr(nodes, ratio, 46, core::NestingMode::kQueued);
    SystemPoint tfa = run_baseline<baselines::TfaCluster>(nodes, ratio, 46);
    SystemPoint dec = run_baseline<baselines::DecentCluster>(nodes, ratio, 46);
    std::printf("%5u %s %s %s %s %s %s %s %s %s %s %s %s\n", nodes,
                fmt(qr.tput).c_str(), fmt(qr.p50_ms, 8).c_str(),
                fmt(qr.p99_ms, 8).c_str(), fmt(qq.tput, 8).c_str(),
                fmt(qq.p50_ms, 8).c_str(), fmt(qq.p99_ms, 8).c_str(),
                fmt(tfa.tput, 12).c_str(),
                fmt(tfa.p50_ms, 8).c_str(), fmt(tfa.p99_ms, 8).c_str(),
                fmt(dec.tput, 11).c_str(), fmt(dec.p50_ms, 8).c_str(),
                fmt(dec.p99_ms, 8).c_str());
  }
}

}  // namespace

int main() {
  std::printf(
      "Fig. 9 reproduction: QR-DTM vs HyFlow (TFA) vs Decent-STM, Bank\n"
      "expected ordering (paper): HyFlow > QR-DTM > Decent-STM\n");
  panel("Fig 9a: Bank, 50% read / 50% write (high contention)", 0.5);
  panel("Fig 9b: Bank, 90% read / 10% write (low contention)", 0.9);
  return 0;
}
