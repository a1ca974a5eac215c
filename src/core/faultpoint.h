// Named fault points: Greengage-style steered fault injection.
//
// Chaos schedules (PR 3/5) find interleavings by seed luck; regression tests
// for a *specific* race need to steer one deterministically.  A fault point
// is a named hook compiled into protocol code at the interesting boundaries
// (commit vote, confirm apply, checkpoint cut, log flush, recovery).  Tests
// arm a point with an action; unarmed points cost one branch and never touch
// the event queue, so determinism goldens are unaffected.
//
// Actions:
//   * kSuspend -- the hitting coroutine parks on a Promise until the test
//     calls resume(point).  Only valid at co_await-capable sites; the site
//     pattern is
//         if (faults && faults->fire(fp::kX, node) == FaultAction::kSuspend)
//           co_await faults->suspend(fp::kX, node);
//   * kPanic   -- the panic handler runs (the Cluster wires it to
//     kill_node), modelling a crash exactly at the boundary.  The site must
//     stop work (drop the message, send no reply) when fire() returns it.
//   * kSkip    -- the site skips the guarded step (e.g. chk.cut.carry: cut a
//     checkpoint WITHOUT carrying in-flight prepares -- the Greengage
//     checkpoint_dtx_info bug; recovery.skip_replay: wipe without replay).
//
// Arming is (point, node, action, uses): `node` targets one node or every
// node (kAnyNode); `uses` makes the point one-shot (default) or N-shot /
// unlimited.  hits(point) counts matched fires for test polling.  The
// points are an enum, so the registry keeps one arming and one hit count
// per point in fixed arrays: arming, firing, reading hits and disarming
// never allocate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/message.h"
#include "sim/sync.h"

namespace qrdtm {

enum class FaultAction : std::uint8_t { kNone, kSuspend, kPanic, kSkip };

/// Fault-point catalogue, each with its name in DESIGN.md §15 (keep the
/// two in sync).
namespace fp {
enum Point : std::uint8_t {
  /// txn.commit.before_confirm: coordinator between gathering the 2PC votes
  /// and sending the confirm -- per-transaction commits and QR-Q batches
  /// alike (one shared round).
  kCommitBeforeConfirm,
  /// server.vote: replica after validating + protecting a write-set, before
  /// the vote reply.
  kServerVote,
  /// server.confirm.apply: replica on receiving a 2PC confirm (of a
  /// transaction or a batch), before applying the writes.
  kServerConfirmApply,
  /// log.prepare: replica about to append a prepare record to the commit
  /// log (skip = the vote happens but is never made durable).
  kLogPrepare,
  /// log.confirm: replica about to append a confirm record to the commit
  /// log.
  kLogConfirm,
  /// chk.cut.carry: checkpoint cut carrying in-flight prepares (skip =
  /// Greengage bug: the cut drops prepared-but-unconfirmed transactions).
  kChkCutCarry,
  /// recovery.skip_replay: recovery about to replay the commit log (skip =
  /// restart from nothing).
  kRecoverySkipReplay,
  /// recovery.skip_sync: recovery about to run the anti-entropy delta pull
  /// (skip = trust the local replay alone).
  kRecoverySkipSync,
  /// server.decision.before_log: coordinator between resolving the votes
  /// and appending the decision record (skip = the --break-termination bug:
  /// confirms go out with no durable decision, so a crash-restart
  /// presumed-aborts an acked commit).
  kDecisionBeforeLog,
  /// server.confirm.partial: coordinator inside the confirm broadcast loop,
  /// once per write-quorum member (panic + delay_fires = crash after a
  /// strict subset of the confirms left the node).
  kConfirmPartial,
  /// term.query: replica about to multicast a termination-round
  /// TxnStatusRequest.
  kTermQuery,
};
/// Number of fault points.
inline constexpr std::size_t kCount = kTermQuery + 1;
}  // namespace fp

class FaultPointRegistry {
 public:
  static constexpr std::uint32_t kUnlimited = 0xffffffffu;
  static constexpr net::NodeId kAnyNode = 0xffffffffu;

  /// The simulator is needed to build suspend Promises; the Cluster sets it
  /// at construction.  Registries used only for panic/skip may skip this.
  void set_simulator(sim::Simulator* sim) { sim_ = sim; }

  /// Invoked (with the hitting node) when a kPanic point fires; the Cluster
  /// wires this to kill_node.  Test-setup plumbing, not a hot path.
  // qrdtm-lint: allow(hot-std-function)
  void set_panic_handler(std::function<void(net::NodeId)> handler) {
    panic_ = std::move(handler);
  }

  /// Arm `point`: the next `uses` matching fires return `action`.  One
  /// arming per point; re-arming replaces it.  `delay_fires` lets the first
  /// N matching fires pass through (kNone, not counted as hits) before the
  /// action triggers -- e.g. panic on the (K+1)-th confirm send to model a
  /// coordinator crash after K confirms were already delivered.
  void arm(fp::Point point, FaultAction action, net::NodeId node = kAnyNode,
           std::uint32_t uses = 1, std::uint32_t delay_fires = 0);
  void disarm(fp::Point point) { armings_[point] = Arming{}; }
  /// Disarm `point` only if its current arming targets exactly `node` --
  /// lets a bounded fault window retract an unfired arming without
  /// clobbering a later window that re-armed the same point for another
  /// node.
  void disarm_if_node(fp::Point point, net::NodeId node);

  /// Protocol-side hook.  Returns the armed action (consuming one use) when
  /// `point` is armed for `node`, else kNone.  kPanic additionally invokes
  /// the panic handler before returning.  Unarmed cost: one branch.
  FaultAction fire(fp::Point point, net::NodeId node);

  /// Park the calling coroutine until resume(point).  Call only after
  /// fire() returned kSuspend.  The future resolves to true (value is a
  /// formality: the simulator has no Promise<void>).
  sim::Future<bool> suspend(fp::Point point, net::NodeId node);

  /// Release every coroutine parked on `point`; returns how many.
  std::size_t resume(fp::Point point);

  bool armed(fp::Point point) const {
    return armings_[point].action != FaultAction::kNone;
  }
  /// Matched fires of `point` since construction (survives disarm).
  std::uint64_t hits(fp::Point point) const { return hits_[point]; }
  /// Coroutines currently parked on `point`.
  std::size_t suspended(fp::Point point) const;

  /// Drop all armings, hit counts and (unreleased) waiters.  Tests only;
  /// never call with coroutines still parked unless tearing down.
  void reset();

 private:
  /// An arming; action kNone = unarmed.
  struct Arming {
    FaultAction action = FaultAction::kNone;
    net::NodeId node = kAnyNode;
    std::uint32_t remaining = 1;
    std::uint32_t delay = 0;  // matching fires to let pass before acting
  };

  sim::Simulator* sim_ = nullptr;
  // Test-setup plumbing, invoked at most once per armed panic.
  // qrdtm-lint: allow(hot-std-function)
  std::function<void(net::NodeId)> panic_;
  std::array<Arming, fp::kCount> armings_{};
  std::array<std::uint64_t, fp::kCount> hits_{};
  // Insertion-ordered so resume() wakes waiters deterministically.
  std::vector<std::pair<fp::Point, sim::Promise<bool>>> waiters_;
};

}  // namespace qrdtm
