// QR-Q batch planner: queue-oriented speculative batch commit (kQueued).
//
// Q-Store-style execution (see PAPERS.md and DESIGN.md §13): instead of
// paying a full quorum round trip and abort/backoff cycle per transaction,
// the planner collects the transactions a node submits over a deterministic
// formation window, assigns them a seeded batch order, and executes them
// *speculatively* against a per-object queue cache:
//
//   * The first touch of an object fetches it once through the read quorum
//     (flat-style, no Rqv) and admits it to the batch cache; every later
//     touch by any member -- read or write -- is a local cache hit.  Hot
//     keys cost one quorum fetch per batch instead of one per transaction.
//   * Writes are absorbed in queue order: member i+1 reads member i's
//     speculative value, so intra-batch read-write conflicts are resolved
//     by ordering instead of abort+retry (Atomic RMI 2's a-priori order).
//   * The whole batch commits through the runtime's 2PC round
//     (TxnRuntime::commit_vote / commit_confirm) against the write quorum:
//     one protected write-set push per cohort carrying, per object, the
//     quorum base version, the number of speculative steps, and the final
//     value (one write of the run, store/write_run.h).  Replicas apply
//     base+steps.
//   * A failed vote names the stale objects; the planner drops only those
//     queues, re-fetches them on next touch, re-executes the bodies from
//     the refreshed cache (local, near-zero message cost) and re-votes.
//     One speculation_rollback is counted per discarded round.
//
// The planner is per-node (owned by the TxnRuntime) and purely
// deterministic: batch order comes from a seeded RNG split off the
// runtime's stream, and all waiting is simulated time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "core/txn.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace qrdtm::core {

struct CommittedTxn;

class BatchPlanner {
 public:
  explicit BatchPlanner(TxnRuntime& rt);

  BatchPlanner(const BatchPlanner&) = delete;
  BatchPlanner& operator=(const BatchPlanner&) = delete;

  /// Enqueue one transaction body for the next batch.  The returned future
  /// resolves true when the batch containing the body commits, false when
  /// the member's attempt budget (`max_attempts`, 0 = unlimited) is
  /// exhausted by speculation rollbacks.
  sim::Future<bool> submit(TxnBody body, std::uint32_t max_attempts);

  /// A speculative head lent by lookup(): valid until the cache next
  /// changes (admit, absorb, rollback).
  struct Head {
    Version version = 0;  // quorum base + absorbed writes
    std::span<const std::uint8_t> data;
  };

  /// Batch-cache read for an executing member: the object's current
  /// speculative head, or nullopt when it is not cached yet (the caller
  /// quorum-fetches and admits).
  std::optional<Head> lookup(ObjectId id) const;

  /// Admit a quorum-fetched copy as a new per-object queue.
  void admit(ObjectId id, Version version, std::span<const std::uint8_t> data);

  /// Transactions waiting for the next batch (test observability).
  std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    TxnBody body;
    sim::Promise<bool> done;
    std::uint32_t max_attempts = 0;
    sim::Tick enqueue_tick = 0;
  };

  /// One per-object queue, collapsed: the quorum base plus the speculative
  /// head after `steps` absorbed writes.
  struct BatchObject {
    ObjectId id = 0;
    Version base = 0;
    std::uint32_t steps = 0;  // writes absorbed this round
    Bytes base_data;          // value at `base` (restored on rollback)
    Bytes data;               // current speculative value
    bool written = false;
    bool fetched = false;  // false = created inside the batch
  };

  /// Formation/execution loop: waits one window, then drains pending
  /// transactions batch by batch until none remain.
  sim::Task<void> run_loop();

  /// Execute `batch` speculatively and commit it through batch 2PC,
  /// retrying on rollback; resolves every member's promise.
  sim::Task<void> run_batch(std::vector<Pending> batch);

  /// One batch 2PC round; the confirm phase runs only when the batch wrote
  /// something.  Returns true on commit; on abort leaves in round_.stale
  /// the union of replica-reported stale ids (empty = diagnose nothing,
  /// invalidate everything).
  sim::Task<bool> commit_round(TxnId batch_id);

  /// Fold one executed member's sets into the queue cache (and, when a
  /// recorder is attached, into the member's pending commit record).
  void absorb(Txn& txn, std::vector<CommittedTxn>* records);

  /// Roll the cache back after a failed round: drop stale and created
  /// entries, restore the rest to their quorum base.  Empty `stale` drops
  /// everything.
  void rollback_cache(std::span<const ObjectId> stale);

  /// Empty the cache, keeping every entry's buffers.
  void clear_cache();

  /// The cache entry for `id`, appended (value-initialised but for its
  /// buffers) when absent.
  BatchObject& entry(ObjectId id);

  TxnRuntime& rt_;
  Rng order_rng_;  // batch-order shuffle; split off the runtime stream
  std::vector<Pending> pending_;
  bool loop_active_ = false;

  /// Queue cache in admission order (deterministic); entries past
  /// nobjects_ are spares whose buffers the next admissions reuse.
  std::vector<BatchObject> objects_;
  std::size_t nobjects_ = 0;
  FlatTable<std::uint32_t> index_;  // id -> position in objects_
  /// The batch 2PC round's storage; absorb() borrows its set vectors for
  /// each member's sets before the round fills them.
  CommitScratch round_;
};

}  // namespace qrdtm::core
