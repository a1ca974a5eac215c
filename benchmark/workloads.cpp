#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <type_traits>

#include "common/check.h"

namespace qrdtm::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Closed-loop client with zero think time (Cluster::spawn_loop_client's
/// loop) that also records each commit's latency until the deadline.
/// Recording is host-side bookkeeping: it schedules no simulated event.
sim::Task<void> client_loop(sim::Simulator* sim, core::TxnRuntime* rt,
                            apps::App* app, apps::WorkloadParams params,
                            std::vector<sim::Tick>* latencies) {
  while (!sim->stopping()) {
    core::TxnBody body = app->make_txn(params, rt->rng());
    const sim::Tick start = sim->now();
    co_await rt->run_transaction(std::move(body));
    if (!sim->stopping()) latencies->push_back(sim->now() - start);
  }
}

Workload make(std::string name, std::string app, core::NestingMode mode,
              double read_ratio, std::uint32_t objects, double sim_seconds) {
  Workload w;
  w.name = std::move(name);
  w.app = std::move(app);
  w.mode = mode;
  w.params.read_ratio = read_ratio;
  w.params.num_objects = objects;
  w.duration = sim::sec(sim_seconds);
  return w;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> ws;
  // Every remote read ships the root's data-set for Rqv validation: read
  // fetch, wire encoding and replica validation do the work, 2PC idles.
  ws.push_back(make("rqv-read", "slist", core::NestingMode::kClosed, 0.8, 128,
                    200));
  // Small data-sets beside a write-heavy per-transaction 2PC, checkpoint
  // create/rollback and commit-log growth.
  ws.push_back(make("write-chk", "vacation", core::NestingMode::kCheckpoint,
                    0.2, 24, 150));
  // The batch 2PC path: eight clients per node so QR-Q batches form.
  Workload batch = make("batch-hot", "bank", core::NestingMode::kQueued, 0.2,
                        16, 600);
  batch.client_nodes = 4;
  ws.push_back(batch);
  // The only workload that runs log replay, delta recovery, decision
  // re-drive and quorum regeneration.
  Workload churn = make("churn-recover", "hashmap", core::NestingMode::kClosed,
                        0.5, 96, 240);
  churn.dead_at_start = 4;
  churn.recover_at = sim::sec(120);
  churn.kill_period = sim::sec(15);
  ws.push_back(churn);
  return ws;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> ws = build_workloads();
  return ws;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool SimSnapshot::operator==(const SimSnapshot& o) const {
  // Plain counter structs: byte equality is value equality.
  static_assert(std::has_unique_object_representations_v<core::Metrics>);
  static_assert(std::has_unique_object_representations_v<net::NetStats>);
  return std::memcmp(&metrics, &o.metrics, sizeof(metrics)) == 0 &&
         std::memcmp(&net, &o.net, sizeof(net)) == 0 &&
         latency == o.latency && events == o.events && now == o.now;
}

Rep::Rep(const Workload& w, std::uint64_t seed, core::TraceRecorder* tracer,
         core::HistoryRecorder* history)
    : w_(w) {
  const Clock::time_point start = Clock::now();
  app_ = apps::make_app(w.app);

  core::ClusterConfig cc;
  cc.num_nodes = w.num_nodes;
  cc.seed = seed;
  cc.runtime.mode = w.mode;
  cluster_ = std::make_unique<core::Cluster>(cc);
  core::Cluster& c = *cluster_;
  // Recorders go on before seeding so the history captures initial versions.
  if (history != nullptr) c.set_history_recorder(history);
  if (tracer != nullptr) c.set_trace_recorder(tracer);

  std::vector<net::NodeId> alive;
  for (net::NodeId n = 0; n < w.num_nodes - w.dead_at_start; ++n) {
    alive.push_back(n);
  }
  std::vector<net::NodeId> dead;
  for (net::NodeId n = w.num_nodes - w.dead_at_start; n < w.num_nodes; ++n) {
    c.kill_node(n);
    dead.push_back(n);
  }
  if (w.recover_at > 0 && !dead.empty()) {
    c.simulator().schedule_at(w.recover_at, [&c, dead] {
      for (net::NodeId n : dead) c.recover_node(n);
    });
  }

  Rng setup_rng(seed * 7919 + 13);
  app_->setup(c, w.params, setup_rng);

  const std::size_t spread =
      w.client_nodes > 0 ? std::min<std::size_t>(w.client_nodes, alive.size())
                         : alive.size();
  for (std::uint32_t i = 0; i < w.clients; ++i) {
    const net::NodeId node = alive[i % spread];
    if (std::find(client_nodes_.begin(), client_nodes_.end(), node) ==
        client_nodes_.end()) {
      client_nodes_.push_back(node);
    }
    c.simulator().spawn(client_loop(&c.simulator(), &c.runtime(node),
                                    app_.get(), w.params, &latencies_));
  }

  if (w.kill_period > 0) {
    std::vector<net::NodeId> victims;
    for (net::NodeId n : client_nodes_) {
      if (n != 0) victims.push_back(n);
    }
    QRDTM_CHECK(!victims.empty());
    std::size_t next = 0;
    for (sim::Tick at = w.kill_period; at + w.down_for < w.duration;
         at += w.kill_period) {
      const net::NodeId victim = victims[next++ % victims.size()];
      c.simulator().schedule_at(at, [&c, victim] {
        if (c.network().alive(victim)) c.kill_node(victim);
      });
      c.simulator().schedule_at(at + w.down_for,
                                [&c, victim] { c.recover_node(victim); });
    }
  }
  setup_s_ = seconds_since(start);
}

SimSnapshot Rep::snapshot() const {
  SimSnapshot s;
  s.metrics = cluster_->metrics();
  s.latency = cluster_->merged_latency();
  s.net = cluster_->network().stats();
  s.events = cluster_->simulator().events_executed();
  s.now = cluster_->duration();
  return s;
}

void Rep::run() {
  const Clock::time_point start = Clock::now();
  cluster_->run_for(w_.duration);
  wall_s_ = seconds_since(start);
  at_deadline_ = snapshot();
}

void Rep::quiesce() {
  cluster_->run_to_completion();
  drained_ = snapshot();
}

bool Rep::check_integrity() {
  bool ok = false;
  cluster_->spawn_client(0, app_->make_checker(&ok));
  cluster_->run_to_completion();
  return ok;
}

}  // namespace qrdtm::benchmark
