// The paper's motivating example (Fig. 1 / Fig. 2): summing three matrices
// m1 + m2 + m3 while a conflicting transaction modifies m3 mid-flight.
//
//   * Flat nesting: the conflict aborts the WHOLE transaction; the retry
//     re-fetches m1 and m2 although they never changed.
//   * Closed nesting: only the inner transaction (which reads m3) retries;
//     m1 and m2 stay merged in the parent -- fewer remote calls.
//
// The example prints the remote-read counts for both modes so the saving is
// visible, exactly as the paper argues in §I-A.
#include <cstdio>
#include <numeric>
#include <span>
#include <vector>

#include "common/serde.h"
#include "core/cluster.h"

using namespace qrdtm;
using core::Cluster;
using core::ClusterConfig;
using core::ObjectId;
using core::Txn;

namespace {

// A "matrix" object: a vector of i64 cells.
Bytes enc_matrix(const std::vector<std::int64_t>& cells) {
  Writer w;
  encode_vec(w, cells, [](Writer& w2, std::int64_t v) { w2.i64(v); });
  return std::move(w).take();
}

std::vector<std::int64_t> dec_matrix(std::span<const std::uint8_t> b) {
  Reader r(b);
  return decode_vec<std::int64_t>(r, [](Reader& r2) { return r2.i64(); });
}

std::vector<std::int64_t> add(const std::vector<std::int64_t>& x,
                              const std::vector<std::int64_t>& y) {
  std::vector<std::int64_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
  return out;
}

struct RunStats {
  std::uint64_t remote_reads;
  std::int64_t checksum;
  double seconds;
};

RunStats run(core::NestingMode mode) {
  ClusterConfig cfg;
  cfg.num_nodes = 13;
  cfg.runtime.mode = mode;
  cfg.seed = 7;
  Cluster cluster(cfg);

  const std::vector<std::int64_t> m1_cells(16, 1);
  const std::vector<std::int64_t> m2_cells(16, 2);
  const std::vector<std::int64_t> m3_cells(16, 4);
  ObjectId m1 = cluster.seed_new_object(enc_matrix(m1_cells));
  ObjectId m2 = cluster.seed_new_object(enc_matrix(m2_cells));
  ObjectId m3 = cluster.seed_new_object(enc_matrix(m3_cells));
  ObjectId result = cluster.seed_new_object(enc_matrix({}));

  // T_parent / T_closed from paper Fig. 2: parent adds m1+m2 (slow compute),
  // the closed-nested transaction adds the intermediate and m3.
  cluster.spawn_client(1, [=](Txn& t) -> sim::Task<void> {
    auto a = dec_matrix(co_await t.read(m1));
    auto b = dec_matrix(co_await t.read(m2));
    co_await t.compute(sim::msec(120));  // add(m1, m2)
    auto intm = add(a, b);
    co_await t.nested([&, m3, result](Txn& ct) -> sim::Task<void> {
      auto c = dec_matrix(co_await ct.read(m3));
      co_await ct.compute(sim::msec(120));  // add(intm, m3)
      auto sum = add(intm, c);
      (void)co_await ct.read_for_write(result);
      ct.write(result, enc_matrix(sum));
    });
  });

  // The conflicting transaction T_c commits a new m3 after T_closed has
  // read it but before it finishes (delivered as a committed write on every
  // replica), exactly the paper's scenario.
  cluster.simulator().schedule_at(sim::msec(250), [&cluster, m3] {
    std::vector<std::int64_t> bumped(16, 40);
    for (net::NodeId n = 0; n < cluster.num_nodes(); ++n) {
      cluster.server(n).store().apply(m3, 2, enc_matrix(bumped));
    }
  });

  cluster.run_to_completion();

  std::int64_t checksum = 0;
  cluster.spawn_client(0, [&](Txn& t) -> sim::Task<void> {
    auto cells = dec_matrix(co_await t.read(result));
    checksum = std::accumulate(cells.begin(), cells.end(), std::int64_t{0});
  });
  cluster.run_to_completion();

  return RunStats{cluster.metrics().remote_reads, checksum,
                  sim::to_seconds(cluster.duration())};
}

}  // namespace

int main() {
  std::printf("paper Fig. 1/2: m1+m2+m3 with a concurrent writer on m3\n\n");
  RunStats flat = run(core::NestingMode::kFlat);
  RunStats closed = run(core::NestingMode::kClosed);

  std::printf("flat nesting   : %llu remote reads, result checksum %lld\n",
              static_cast<unsigned long long>(flat.remote_reads),
              static_cast<long long>(flat.checksum));
  std::printf("closed nesting : %llu remote reads, result checksum %lld\n",
              static_cast<unsigned long long>(closed.remote_reads),
              static_cast<long long>(closed.checksum));
  std::printf(
      "\nclosed nesting saved %lld remote reads: the retry re-read only m3,\n"
      "not the unchanged m1 and m2 (paper §I-A).\n",
      static_cast<long long>(flat.remote_reads) -
          static_cast<long long>(closed.remote_reads));
  // Both must compute 1+2+40 = 43 per cell, 16 cells.
  return (flat.checksum == 43 * 16 && closed.checksum == 43 * 16 &&
          closed.remote_reads < flat.remote_reads)
             ? 0
             : 1;
}
