// Randomized, fully-replayable fault schedules over the Network chaos hooks.
//
// A FaultSchedule is derived deterministically from (seed, options): the
// same pair always yields the same fail-stop times, message-drop bursts and
// latency spikes, so any fuzz failure replays exactly from its printed seed.
// arm() translates the schedule into simulator events before the run starts:
//
//   * kills   -- fail-stop a node at its scheduled tick (paper §VI-D: the
//                provider is notified so quorums reconfigure),
//   * bursts  -- windows during which request/response messages are dropped
//                with probability drop_prob (one-way notifies are exempt;
//                see Network::set_drop_probability),
//   * spikes  -- windows during which one node's links slow down by
//                spike_extra each way (slow-but-alive: above the RPC timeout
//                this is indistinguishable from a crash to its peers),
//   * recovers -- kill->rejoin churn: each kill is paired with a restart
//                recover_after later.  Armed on a Cluster this runs the full
//                recovery path (revive + catch-up + quorum re-admission);
//                armed on a bare Network it only revives the endpoint --
//                state catch-up needs the Cluster overload,
//   * partitions -- windows during which request/response traffic crossing
//                a symmetric cut is dropped (one-way notifies are exempt;
//                see Network::set_partition).
//
// Bursts never overlap (each lives in its own slice of the horizon), same
// for partitions, and at most one spike targets a given node, so disarm
// events cannot clobber a later arm event's state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace qrdtm::quorum {
class QuorumProvider;
}

namespace qrdtm::core {

class Cluster;
class HistoryRecorder;

struct ChaosOptions {
  /// Window faults are placed in (schedule nothing past it).
  sim::Tick horizon = sim::sec(10);

  /// Fail-stops: victims drawn (without replacement) from kill_candidates.
  /// Empty candidates = no kills.
  std::uint32_t max_kills = 0;
  std::vector<net::NodeId> kill_candidates;

  std::uint32_t drop_bursts = 0;
  double drop_prob = 0.15;
  sim::Tick burst_len = sim::msec(400);

  std::uint32_t latency_spikes = 0;
  /// Nodes eligible for a spike.  Empty = all nodes.
  std::vector<net::NodeId> spike_candidates;
  sim::Tick spike_extra = sim::msec(700);
  sim::Tick spike_len = sim::msec(600);

  /// Kill->rejoin churn: pair every kill with a recover this long after it
  /// (plus up to recover_jitter).  0 = killed nodes stay dead (the paper's
  /// one-way fault model).
  sim::Tick recover_after = 0;
  sim::Tick recover_jitter = sim::msec(200);

  /// Symmetric partition windows (one per equal horizon slice, like
  /// bursts).  The minority side is drawn from partition_candidates (empty
  /// = all nodes), sized 1..partition_max_side (0 = up to num_nodes/3).
  std::uint32_t partition_windows = 0;
  sim::Tick partition_len = sim::msec(500);
  std::uint32_t partition_max_side = 0;
  std::vector<net::NodeId> partition_candidates;

  /// Commit-log checkpoint cuts (Cluster::cut_checkpoint) scattered over
  /// the whole horizon on nodes drawn (with replacement) from
  /// cut_candidates (empty = all nodes).  Cuts racing in-flight 2PC are
  /// the point: a cut between a replica's vote and its confirm must carry
  /// the prepare forward, or replay loses the transaction (the fuzz
  /// "torn-checkpoint" flavor).  Only meaningful when armed on a Cluster.
  std::uint32_t checkpoint_cuts = 0;
  std::vector<net::NodeId> cut_candidates;

  /// Orphan-2PC windows (fuzz flavor "orphan-2pc"): steer a coordinator
  /// crash into its vote->confirm window by arming a one-shot kPanic fault
  /// point (fp::kDecisionBeforeLog, or fp::kConfirmPartial with a random
  /// number of confirms already delivered) on a node drawn from
  /// orphan_candidates, leaving prepared protections in-doubt on the write
  /// quorum.  The victim restarts orphan_recover_after (+jitter) later.
  /// Candidates should be the client/coordinator nodes.  Only meaningful
  /// when armed on a Cluster (needs fault points + full recovery).
  std::uint32_t orphan_windows = 0;
  std::vector<net::NodeId> orphan_candidates;
  sim::Tick orphan_recover_after = sim::sec(1);
  sim::Tick orphan_recover_jitter = sim::msec(200);
};

struct FaultSchedule {
  struct Kill {
    sim::Tick at = 0;
    net::NodeId node = 0;
  };
  struct Burst {
    sim::Tick at = 0;
    sim::Tick len = 0;
    double prob = 0.0;
  };
  struct Spike {
    sim::Tick at = 0;
    sim::Tick len = 0;
    net::NodeId node = 0;
    sim::Tick extra = 0;
  };

  struct Recover {
    sim::Tick at = 0;
    net::NodeId node = 0;
  };
  struct Partition {
    sim::Tick at = 0;
    sim::Tick len = 0;
    std::vector<net::NodeId> side;  // one side of the cut
  };
  struct Cut {
    sim::Tick at = 0;
    net::NodeId node = 0;
  };
  struct Orphan {
    sim::Tick at = 0;          // when the kPanic fault point is armed
    net::NodeId node = 0;      // coordinator to crash
    std::uint32_t stage = 0;   // 0 = before decision log; k>=1 = panic on
                               // the k-th confirm send (k-1 delivered)
    sim::Tick recover_at = 0;  // restart (no-op if the point never fired)
  };

  std::vector<Kill> kills;
  std::vector<Burst> bursts;
  std::vector<Spike> spikes;
  std::vector<Recover> recovers;
  std::vector<Partition> partitions;
  std::vector<Cut> cuts;
  std::vector<Orphan> orphans;

  /// Derive a schedule from (seed, num_nodes, options).  Pure and
  /// deterministic; the spike candidate pool defaults to all nodes.
  static FaultSchedule generate(std::uint64_t seed, std::uint32_t num_nodes,
                                const ChaosOptions& opts);

  /// Schedule the fault events onto `sim`.  Call before running.  `provider`
  /// (nullable) is notified of kills; `recorder` (nullable) gets a kFault
  /// event per transition.  Recover events only revive the network endpoint here -- re-admitting a replica
  /// to quorums safely requires the state catch-up that only the Cluster
  /// overload can run, so `provider` is deliberately NOT told about
  /// recoveries by this overload.
  void arm(sim::Simulator& sim, net::Network& net,
           quorum::QuorumProvider* provider, HistoryRecorder* recorder) const;

  /// Overload for a QR Cluster: kills via Cluster::kill_node, recovers via
  /// Cluster::recover_node (full catch-up + quorum re-admission).
  void arm(Cluster& cluster, HistoryRecorder* recorder) const;

  /// Arm only the network-level faults (bursts, spikes, partitions); shared
  /// by both arm() overloads.
  void arm_network_faults(sim::Simulator& sim, net::Network& net,
                          HistoryRecorder* recorder) const;

  bool empty() const {
    return kills.empty() && bursts.empty() && spikes.empty() &&
           recovers.empty() && partitions.empty() && cuts.empty() &&
           orphans.empty();
  }

  /// One-line-per-event human-readable description.
  std::string describe() const;
};

}  // namespace qrdtm::core
