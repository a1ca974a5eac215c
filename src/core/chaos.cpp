#include "core/chaos.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/faultpoint.h"
#include "core/history.h"
#include "quorum/quorum.h"

namespace qrdtm::core {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

/// Draw `count` distinct elements from `pool` (order preserved by draw).
std::vector<net::NodeId> draw_distinct(Rng& rng, std::vector<net::NodeId> pool,
                                       std::uint32_t count) {
  std::vector<net::NodeId> out;
  while (out.size() < count && !pool.empty()) {
    const std::size_t i = static_cast<std::size_t>(rng.below(pool.size()));
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

}  // namespace

FaultSchedule FaultSchedule::generate(std::uint64_t seed,
                                      std::uint32_t num_nodes,
                                      const ChaosOptions& opts) {
  FaultSchedule s;
  Rng rng(seed);

  // Kills: distinct victims, times in the middle [0.2h, 0.8h] of the horizon
  // so killed nodes both served traffic before and stay dead after.
  if (opts.max_kills > 0 && !opts.kill_candidates.empty()) {
    const auto victims =
        draw_distinct(rng, opts.kill_candidates, opts.max_kills);
    const sim::Tick lo = opts.horizon / 5;
    const sim::Tick span = opts.horizon - 2 * lo;
    for (net::NodeId v : victims) {
      s.kills.push_back(Kill{lo + rng.below(span > 0 ? span : 1), v});
    }
    std::sort(s.kills.begin(), s.kills.end(),
              [](const Kill& a, const Kill& b) { return a.at < b.at; });
  }

  // Bursts: one per equal slice of the horizon, so they never overlap and
  // the disarm event of one cannot cancel the next one's arm.
  if (opts.drop_bursts > 0 && opts.drop_prob > 0.0) {
    const sim::Tick slice = opts.horizon / opts.drop_bursts;
    for (std::uint32_t b = 0; b < opts.drop_bursts; ++b) {
      const sim::Tick len = std::min(opts.burst_len, slice / 2);
      const sim::Tick room = slice > len ? slice - len : 1;
      s.bursts.push_back(
          Burst{b * slice + rng.below(room), len, opts.drop_prob});
    }
  }

  // Spikes: at most one per node (slowdowns are absolute, not stacked).
  if (opts.latency_spikes > 0) {
    std::vector<net::NodeId> pool = opts.spike_candidates;
    if (pool.empty()) {
      for (net::NodeId n = 0; n < num_nodes; ++n) pool.push_back(n);
    }
    const auto victims = draw_distinct(rng, pool, opts.latency_spikes);
    for (net::NodeId v : victims) {
      const sim::Tick len = std::min(opts.spike_len, opts.horizon / 4);
      const sim::Tick room =
          opts.horizon > len ? opts.horizon - len : 1;
      s.spikes.push_back(Spike{rng.below(room), len, v, opts.spike_extra});
    }
    std::sort(s.spikes.begin(), s.spikes.end(),
              [](const Spike& a, const Spike& b) { return a.at < b.at; });
  }

  // New fault families draw strictly after the original ones, so schedules
  // generated with the legacy options are bit-identical to what this
  // function produced before churn existed.

  // Recovers: one per kill, recover_after (+jitter) later.  May land past
  // the horizon -- churn waves are allowed to finish during the drain.
  if (opts.recover_after > 0) {
    for (const Kill& k : s.kills) {
      const sim::Tick jitter =
          rng.below(opts.recover_jitter > 0 ? opts.recover_jitter : 1);
      s.recovers.push_back(Recover{k.at + opts.recover_after + jitter, k.node});
    }
    std::sort(s.recovers.begin(), s.recovers.end(),
              [](const Recover& a, const Recover& b) { return a.at < b.at; });
  }

  // Partitions: one per equal slice (non-overlapping, like bursts); the
  // minority side is a small distinct draw from the candidate pool.
  if (opts.partition_windows > 0) {
    std::vector<net::NodeId> pool = opts.partition_candidates;
    if (pool.empty()) {
      for (net::NodeId n = 0; n < num_nodes; ++n) pool.push_back(n);
    }
    std::uint32_t max_side = opts.partition_max_side;
    if (max_side == 0) max_side = std::max(1u, num_nodes / 3);
    const sim::Tick slice = opts.horizon / opts.partition_windows;
    for (std::uint32_t w = 0; w < opts.partition_windows; ++w) {
      const sim::Tick len = std::min(opts.partition_len, slice / 2);
      const sim::Tick room = slice > len ? slice - len : 1;
      const std::uint32_t side_size =
          1 + static_cast<std::uint32_t>(rng.below(max_side));
      Partition p;
      p.at = w * slice + rng.below(room);
      p.len = len;
      p.side = draw_distinct(rng, pool, side_size);
      std::sort(p.side.begin(), p.side.end());
      s.partitions.push_back(std::move(p));
    }
  }

  // Checkpoint cuts: scattered over the whole horizon, nodes drawn with
  // replacement (a node may cut several times).  Drawn after every older
  // family so legacy schedules stay bit-identical.
  if (opts.checkpoint_cuts > 0) {
    std::vector<net::NodeId> pool = opts.cut_candidates;
    if (pool.empty()) {
      for (net::NodeId n = 0; n < num_nodes; ++n) pool.push_back(n);
    }
    for (std::uint32_t c = 0; c < opts.checkpoint_cuts; ++c) {
      const sim::Tick at = rng.below(opts.horizon > 0 ? opts.horizon : 1);
      const net::NodeId node =
          pool[static_cast<std::size_t>(rng.below(pool.size()))];
      s.cuts.push_back(Cut{at, node});
    }
    std::sort(s.cuts.begin(), s.cuts.end(),
              [](const Cut& a, const Cut& b) { return a.at < b.at; });
  }

  // Orphan-2PC windows: nodes drawn with replacement (a coordinator may be
  // crashed in several windows across its restarts); times in the middle of
  // the horizon like kills, so prepares exist before and the termination
  // protocol has room to run after.  Drawn after every older family so
  // legacy schedules stay bit-identical.
  if (opts.orphan_windows > 0 && !opts.orphan_candidates.empty()) {
    const sim::Tick lo = opts.horizon / 5;
    const sim::Tick span = opts.horizon - 2 * lo;
    for (std::uint32_t w = 0; w < opts.orphan_windows; ++w) {
      Orphan o;
      o.at = lo + rng.below(span > 0 ? span : 1);
      o.node = opts.orphan_candidates[static_cast<std::size_t>(
          rng.below(opts.orphan_candidates.size()))];
      // stage 0 crashes before the decision record; 1..3 crash after the
      // decision with 0..2 confirms already delivered (a strict subset of
      // any write quorum in the configurations the fuzzer runs).
      o.stage = static_cast<std::uint32_t>(rng.below(4));
      const sim::Tick jitter = rng.below(
          opts.orphan_recover_jitter > 0 ? opts.orphan_recover_jitter : 1);
      o.recover_at = o.at + opts.orphan_recover_after + jitter;
      s.orphans.push_back(o);
    }
    std::sort(s.orphans.begin(), s.orphans.end(),
              [](const Orphan& a, const Orphan& b) { return a.at < b.at; });
  }
  return s;
}

void FaultSchedule::arm(sim::Simulator& sim, net::Network& net,
                        quorum::QuorumProvider* provider,
                        HistoryRecorder* recorder) const {
  for (const Kill& k : kills) {
    sim.schedule_at(k.at, [&sim, &net, provider, recorder, k] {
      net.kill(k.node);
      if (provider != nullptr) provider->on_failure(k.node);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "kill node %u", k.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  // Endpoint-only revive (see the header): the provider is NOT re-admitting
  // the node here, because without a state catch-up a rejoined stale
  // replica could satisfy quorum intersections with stale data.
  for (const Recover& r : recovers) {
    sim.schedule_at(r.at, [&sim, &net, recorder, r] {
      net.revive(r.node);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "revive node %u (endpoint only)", r.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  arm_network_faults(sim, net, recorder);
}

void FaultSchedule::arm_network_faults(sim::Simulator& sim, net::Network& net,
                                       HistoryRecorder* recorder) const {
  for (const Burst& b : bursts) {
    sim.schedule_at(b.at, [&sim, &net, recorder, b] {
      net.set_drop_probability(b.prob);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "drop burst start p=%.2f len=%.1f ms", b.prob,
                static_cast<double>(b.len) * 1e-6);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
    sim.schedule_at(b.at + b.len, [&sim, &net, recorder] {
      net.set_drop_probability(0.0);
      if (recorder != nullptr) {
        recorder->record_fault(sim.now(), "drop burst end");
      }
    });
  }
  for (const Spike& sp : spikes) {
    sim.schedule_at(sp.at, [&sim, &net, recorder, sp] {
      net.set_node_slowdown(sp.node, sp.extra);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "latency spike node %u +%.1f ms len=%.1f ms", sp.node,
                static_cast<double>(sp.extra) * 1e-6,
                static_cast<double>(sp.len) * 1e-6);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
    sim.schedule_at(sp.at + sp.len, [&sim, &net, recorder, sp] {
      net.set_node_slowdown(sp.node, 0);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "latency spike end node %u", sp.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  for (const Partition& p : partitions) {
    // Copied into the event: the schedule object need not outlive the run.
    sim.schedule_at(p.at, [&sim, &net, recorder, p] {
      net.set_partition(p.side);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "partition start len=%.1f ms side_a=%zu nodes",
                static_cast<double>(p.len) * 1e-6, p.side.size());
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
    sim.schedule_at(p.at + p.len, [&sim, &net, recorder] {
      net.clear_partition();
      if (recorder != nullptr) {
        recorder->record_fault(sim.now(), "partition end");
      }
    });
  }
}

void FaultSchedule::arm(Cluster& cluster, HistoryRecorder* recorder) const {
  sim::Simulator& sim = cluster.simulator();
  for (const Kill& k : kills) {
    sim.schedule_at(k.at, [&sim, &cluster, recorder, k] {
      cluster.kill_node(k.node);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "kill node %u", k.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  for (const Recover& r : recovers) {
    sim.schedule_at(r.at, [&sim, &cluster, recorder, r] {
      cluster.recover_node(r.node);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "recover node %u (catch-up)", r.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  for (const Cut& c : cuts) {
    sim.schedule_at(c.at, [&sim, &cluster, recorder, c] {
      cluster.cut_checkpoint(c.node);
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "checkpoint cut node %u", c.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  // Orphan-2PC: arm a one-shot kPanic on the victim so its NEXT commit
  // crashes inside the vote->confirm window (the panic handler kills the
  // node); the paired restart runs the full recovery + decision re-drive.
  // Re-arming replaces any earlier unfired window -- a quiet coordinator
  // just hands its crash to the next window's victim.
  for (const Orphan& o : orphans) {
    sim.schedule_at(o.at, [&sim, &cluster, recorder, o] {
      if (o.stage == 0) {
        cluster.fault_points().arm(fp::kDecisionBeforeLog, FaultAction::kPanic,
                                   o.node);
      } else {
        cluster.fault_points().arm(fp::kConfirmPartial, FaultAction::kPanic,
                                   o.node, 1, o.stage - 1);
      }
      if (recorder != nullptr) {
        std::string d;
        appendf(d, "orphan-2pc arm node %u stage=%u", o.node, o.stage);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
    sim.schedule_at(o.recover_at, [&sim, &cluster, recorder, o] {
      // Close the window: an arming the victim never hit must not linger,
      // or it would kill the node AFTER this recovery and leave it down
      // (a decision record stranded on a dead log blocks in-doubt peers
      // forever -- correctly, but the schedule promised a restart).
      const fp::Point point =
          o.stage == 0 ? fp::kDecisionBeforeLog : fp::kConfirmPartial;
      cluster.fault_points().disarm_if_node(point, o.node);
      const bool was_dead = !cluster.network().alive(o.node);
      cluster.recover_node(o.node);
      if (recorder != nullptr && was_dead) {
        std::string d;
        appendf(d, "orphan-2pc recover node %u (catch-up)", o.node);
        recorder->record_fault(sim.now(), std::move(d));
      }
    });
  }
  arm_network_faults(sim, cluster.network(), recorder);
}

std::string FaultSchedule::describe() const {
  std::string out;
  for (const Kill& k : kills) {
    appendf(out, "  kill  t=%8.1f ms node=%u\n",
            static_cast<double>(k.at) * 1e-6, k.node);
  }
  for (const Burst& b : bursts) {
    appendf(out, "  burst t=%8.1f ms len=%.1f ms p=%.2f\n",
            static_cast<double>(b.at) * 1e-6,
            static_cast<double>(b.len) * 1e-6, b.prob);
  }
  for (const Spike& s : spikes) {
    appendf(out, "  spike t=%8.1f ms len=%.1f ms node=%u +%.1f ms\n",
            static_cast<double>(s.at) * 1e-6,
            static_cast<double>(s.len) * 1e-6, s.node,
            static_cast<double>(s.extra) * 1e-6);
  }
  for (const Recover& r : recovers) {
    appendf(out, "  recover t=%8.1f ms node=%u\n",
            static_cast<double>(r.at) * 1e-6, r.node);
  }
  for (const Cut& c : cuts) {
    appendf(out, "  cut   t=%8.1f ms node=%u\n",
            static_cast<double>(c.at) * 1e-6, c.node);
  }
  for (const Orphan& o : orphans) {
    appendf(out,
            "  orphan t=%8.1f ms node=%u stage=%u recover=%.1f ms\n",
            static_cast<double>(o.at) * 1e-6, o.node, o.stage,
            static_cast<double>(o.recover_at) * 1e-6);
  }
  for (const Partition& p : partitions) {
    appendf(out, "  partition t=%8.1f ms len=%.1f ms side_a={",
            static_cast<double>(p.at) * 1e-6,
            static_cast<double>(p.len) * 1e-6);
    for (std::size_t i = 0; i < p.side.size(); ++i) {
      appendf(out, i == 0 ? "%u" : ",%u", p.side[i]);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace qrdtm::core
