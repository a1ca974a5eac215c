// Related-work reproduction: closed nesting on the single-copy TFA model
// (N-TFA) vs closed nesting on replicated QR (QR-CN).
//
// The paper positions its contribution against N-TFA (§VII): "The work
// reports 2% average performance benefit for closed nesting compared to
// flat nesting (and 84% speedup in certain cases)" -- far below QR-CN's
// 53 % average.  The structural reason falls out of the protocols: TFA
// reads are cheap unicasts and validation only piggybacks on *clock-skew*
// forwarding, so partial aborts have little to save; QR reads are expensive
// quorum multicasts validated on every read, so saving re-reads pays much
// more.  This bench reproduces that contrast on the same Bank workload.
#include <cstdio>
#include <span>

#include "baselines/tfa.h"
#include "bench/bench_util.h"
#include "common/serde.h"

using namespace qrdtm;
using namespace qrdtm::bench;

namespace {

constexpr std::uint32_t kAccounts = 64;
constexpr std::uint32_t kOpsPerTxn = 3;

Bytes enc_i64(std::int64_t v) {
  Writer w;
  w.i64(v);
  return std::move(w).take();
}

std::int64_t dec_i64(std::span<const std::uint8_t> b) {
  Reader r(b);
  return r.i64();
}

double run_tfa(bool nested, double ratio) {
  baselines::TfaConfig cfg;
  cfg.num_nodes = 13;
  cfg.seed = 71;
  cfg.closed_nesting = nested;
  baselines::TfaCluster c(cfg);
  std::vector<core::ObjectId> accounts;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    accounts.push_back(c.seed_new_object(enc_i64(1000)));
  }
  for (std::uint32_t n = 0; n < 8; ++n) {
    c.spawn_loop_client(n, [&, ratio](Rng& rng) -> baselines::TfaBody {
      struct Op {
        bool is_read;
        std::size_t a, b;
      };
      std::vector<Op> plan;
      for (std::uint32_t i = 0; i < kOpsPerTxn; ++i) {
        Op op;
        op.is_read = rng.chance(ratio);
        op.a = rng.below(kAccounts);
        op.b = rng.below(kAccounts - 1);
        if (op.b >= op.a) ++op.b;
        plan.push_back(op);
      }
      // `c` is by-reference (non-copyable cluster) and outlives the body:
      // run_for() drains all clients first.  qrdtm-lint: allow(coro-ref-capture)
      return [&c, plan, accounts](baselines::TfaTxn& t) -> sim::Task<void> {
        for (const Op& op : plan) {
          // The nested-transaction lambda is consumed inside this directly
          // co_awaited t.nested() call, so the by-reference captures (op,
          // accounts) are alive for the whole nested transaction.
          // qrdtm-lint: allow(coro-ref-capture)
          co_await t.nested([&](baselines::TfaTxn& ct) -> sim::Task<void> {
            if (op.is_read) {
              (void)co_await ct.read(accounts[op.a]);
              (void)co_await ct.read(accounts[op.b]);
            } else {
              std::int64_t f =
                  dec_i64(co_await ct.read_for_write(accounts[op.a]));
              std::int64_t g =
                  dec_i64(co_await ct.read_for_write(accounts[op.b]));
              ct.write(accounts[op.a], enc_i64(f - 1));
              ct.write(accounts[op.b], enc_i64(g + 1));
            }
            co_await c.simulator().delay(sim::usec(200));
          });
        }
      };
    });
  }
  c.run_for(point_duration());
  return c.metrics().throughput(c.duration());
}

double run_qr(core::NestingMode mode, double ratio) {
  ExperimentConfig cfg;
  cfg.app = "bank";
  cfg.cluster.runtime.mode = mode;
  cfg.params.read_ratio = ratio;
  cfg.params.nested_calls = kOpsPerTxn;
  cfg.params.num_objects = kAccounts;
  cfg.duration = point_duration();
  cfg.cluster.seed = 71;
  auto res = run_experiment(cfg);
  warn_if_corrupt(res, "qr bank");
  return res.throughput;
}

}  // namespace

int main() {
  std::printf(
      "Related work: closed-nesting gains on single-copy TFA (N-TFA) vs "
      "replicated QR (QR-CN)\nBank, 13 nodes, 8 clients; paper context: "
      "N-TFA reported ~2%% average gains vs QR-CN's 53%%\n");
  print_header("closed-nesting gain by substrate",
               "read%   TFA-flat  N-TFA   gain%    QR-flat  QR-CN   gain%");
  for (double ratio : {0.2, 0.5, 0.8}) {
    double tfa_flat = run_tfa(false, ratio);
    double ntfa = run_tfa(true, ratio);
    double qr_flat = run_qr(core::NestingMode::kFlat, ratio);
    double qr_cn = run_qr(core::NestingMode::kClosed, ratio);
    std::printf("%5.0f %s %s %s %s %s %s\n", ratio * 100,
                fmt(tfa_flat, 9).c_str(), fmt(ntfa, 7).c_str(),
                fmt(pct_change(ntfa, tfa_flat), 7).c_str(),
                fmt(qr_flat, 10).c_str(), fmt(qr_cn, 7).c_str(),
                fmt(pct_change(qr_cn, qr_flat), 7).c_str());
  }
  std::printf(
      "\ntakeaway: partial aborts pay proportionally to what a retry "
      "re-buys; TFA's cheap\nunicast reads leave closed nesting little to "
      "save, QR's quorum reads a lot.\n");
  return 0;
}
