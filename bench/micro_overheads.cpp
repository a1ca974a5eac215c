// Micro-benchmarks (google-benchmark): substrate hot paths plus the
// paper's standalone checkpoint-creation overhead measurement (§VI-C:
// "checkpoint creation ... has only 6 % overhead compared to flat
// nesting", measured with conflicts excluded).
#include <benchmark/benchmark.h>

#include "apps/app.h"
#include "bench/harness.h"
#include "common/serde.h"
#include "core/wire.h"
#include "quorum/quorum.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "store/replica_store.h"

namespace {

using namespace qrdtm;

/// A message's bytes, from its one encoder.
template <class Msg>
Bytes encode(const Msg& msg) {
  Writer w;
  msg.encode_into(w);
  return std::move(w).take();
}

void BM_SerdeEncodeReadRequest(benchmark::State& state) {
  core::ReadRequest req;
  req.root = 42;
  req.mode = core::NestingMode::kClosed;
  req.object = 7;
  for (int i = 0; i < state.range(0); ++i) {
    req.dataset.push_back(core::DataSetEntry{
        static_cast<core::ObjectId>(i), 3, 42, 1, 2});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode(req));
  }
}
BENCHMARK(BM_SerdeEncodeReadRequest)->Arg(4)->Arg(32)->Arg(256);

void BM_SerdeDecodeReadRequest(benchmark::State& state) {
  core::ReadRequest req;
  req.root = 42;
  req.mode = core::NestingMode::kClosed;
  req.object = 7;
  for (int i = 0; i < state.range(0); ++i) {
    req.dataset.push_back(core::DataSetEntry{
        static_cast<core::ObjectId>(i), 3, 42, 1, 2});
  }
  Bytes wire = encode(req);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ReadRequest::decode(wire));
  }
}
BENCHMARK(BM_SerdeDecodeReadRequest)->Arg(4)->Arg(32)->Arg(256);

void BM_TreeQuorumConstruction(benchmark::State& state) {
  quorum::TreeQuorumProvider::Config cfg;
  cfg.num_nodes = static_cast<std::uint32_t>(state.range(0));
  cfg.read_level = 1;
  cfg.same_for_all = false;
  quorum::TreeQuorumProvider q(cfg);
  net::NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.cohort_read_quorum(node, 0));
    benchmark::DoNotOptimize(q.cohort_write_quorum(node, 0));
    node = (node + 1) % cfg.num_nodes;
  }
}
BENCHMARK(BM_TreeQuorumConstruction)->Arg(13)->Arg(40)->Arg(121);

void BM_ReplicaStoreApply(benchmark::State& state) {
  store::ReplicaStore s;
  Bytes data(64, 0xAB);
  store::Version v = 1;
  for (auto _ : state) {
    s.apply(1 + (v % 1024), v, data);
    ++v;
  }
}
BENCHMARK(BM_ReplicaStoreApply);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      s.schedule_at(static_cast<sim::Tick>(i), [&counter] { ++counter; });
    }
    s.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// Paper §VI-C: checkpoint-creation overhead with conflicts excluded.  One
/// client (zero contention), identical workload, QR-CHK vs flat QR; the
/// counter reports the relative slowdown (paper: ~6 %).
void BM_CheckpointCreationOverhead(benchmark::State& state) {
  double overhead_pct = 0;
  for (auto _ : state) {
    auto run_mode = [&](core::NestingMode mode) {
      bench::ExperimentConfig cfg;
      cfg.app = "bank";  // the paper's macro-benchmark scale (~6 objects/txn)
      cfg.cluster.runtime.mode = mode;
      cfg.clients = 1;  // no contention: isolates creation cost
      cfg.params.read_ratio = 0.2;
      cfg.params.num_objects = 64;
      cfg.params.nested_calls = 3;
      cfg.cluster.runtime.chk_threshold = 1;
      cfg.duration = sim::sec(20);
      cfg.cluster.seed = 48;
      return bench::run_experiment(cfg);
    };
    auto flat = run_mode(core::NestingMode::kFlat);
    auto chk = run_mode(core::NestingMode::kCheckpoint);
    overhead_pct = 100.0 * (flat.throughput - chk.throughput) /
                   flat.throughput;
    benchmark::DoNotOptimize(overhead_pct);
  }
  state.counters["overhead_pct"] = overhead_pct;
}
BENCHMARK(BM_CheckpointCreationOverhead)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
