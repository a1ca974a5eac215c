// Per-node versioned object store (one per replica).
//
// In QR every node keeps a copy of every object (paper §III-B property 1),
// though copies may be stale: only the members of the committing write
// quorum receive a new version.  Each entry carries:
//   * version + data    -- the replica's (possibly stale) copy,
//   * protected flag    -- set between a 2PC commit vote and the confirm
//     (the paper's `protected` object field).
// The paper's potential-reader/-writer lists (Alg. 2 l.17-18) are not kept:
// only contention management would read them, and it is not implemented
// (DESIGN.md §2).
//
// An object a replica has never heard of behaves as version 0: validation
// treats the replica as maximally stale for it, which is safe (Q1 guarantees
// some quorum member is up to date).
//
// Every Rqv read probes the store once per data-set entry, so lookup is a
// flat index: a FlatTable (common/flat_table.h) from id to a pointer to the
// entry.  Entries live in a deque and never move, and nothing is erased
// except by clear_all(), so a ReplicaEntry* stays valid across any later
// insert.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "common/bytes.h"
#include "common/flat_table.h"
#include "store/object.h"

namespace qrdtm::store {

struct ReplicaEntry {
  Version version = 0;
  Bytes data;
  TxnId protector = 0;
  /// Simulation tick when the current protection was taken; the coordinator-
  /// liveness lease (QrServer) sheds protections older than the lease.
  std::uint64_t protect_tick = 0;
  /// The protection backs a yes-vote with a durable WAL prepare: the replica
  /// promised to commit.  A lease-expired *prepared* protection must run the
  /// cooperative termination protocol (DESIGN.md §17) instead of being shed
  /// silently -- shedding it could lose an acknowledged commit.
  bool prepared = false;
  bool is_protected = false;
};

/// One stored object: its id beside its entry.
struct StoredObject {
  ObjectId id = kNullObject;
  ReplicaEntry entry;
};

class ReplicaStore {
 public:
  ReplicaStore() = default;
  // Index values point into objects_: a copy would alias the original, but a
  // move hands over the deque's storage with every entry in place.  A
  // moved-from store may only be destroyed or assigned to.
  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;
  ReplicaStore(ReplicaStore&&) = default;
  ReplicaStore& operator=(ReplicaStore&&) = default;

  /// Looks up an entry; nullptr when the replica has no copy.
  const ReplicaEntry* find(ObjectId id) const {
    ReplicaEntry* const* e = index_.find(id);
    return e != nullptr ? *e : nullptr;
  }
  ReplicaEntry* find_mut(ObjectId id) {
    ReplicaEntry** e = index_.find(id);
    return e != nullptr ? *e : nullptr;
  }

  /// The replica's version for validation purposes (0 when absent).
  Version version_of(ObjectId id) const;

  /// True when the object is protected by a transaction other than `txn`.
  bool protected_against(ObjectId id, TxnId txn) const;

  /// Install an initial object at setup time (bypasses the protocol; used
  /// to seed benchmark data structures before the run starts).
  void seed(ObjectId id, Bytes data, Version version = 1);

  /// Apply a committed write: fast-forwards the copy iff `version` is newer
  /// (a stale replica may receive confirms out of order across objects).
  /// The value is copied from where it lies (a confirm buffer, the commit
  /// log) into the entry's own buffer, whose capacity it reuses.
  void apply(ObjectId id, Version version, std::span<const std::uint8_t> data);

  /// 2PC vote bookkeeping.  `now` is recorded so the protection can later be
  /// lease-expired if the coordinator dies between vote and confirm.  No
  /// default: a protection stamped `now = 0` looks eternally lease-expired
  /// to expire_protection(), so every caller must name the lease epoch.
  void protect(ObjectId id, TxnId txn, std::uint64_t now);
  /// Clears protection iff held by `txn` (confirms may arrive after a
  /// competing transaction re-protected the object).
  void unprotect(ObjectId id, TxnId txn);

  /// Mark the protection on `id` held by `txn` as backed by a durable
  /// prepare (yes-vote).  No-op if `txn` does not hold the protection.
  void mark_prepared(ObjectId id, TxnId txn);

  /// True when `id` is currently protected BY `txn` (not merely against
  /// it).  Confirm deduplication uses this to tell a fresh 2PC round of a
  /// retried root (live protection -> must apply) from a retransmitted
  /// confirm of an already-settled round (no protection -> drop).
  bool holds_protection(ObjectId id, TxnId txn) const;

  /// True when `id` is protected AND the protection is prepared-backed.
  bool prepared(ObjectId id) const;

  /// Shed the protection on `id` iff it has been held for at least `lease`
  /// ticks -- the coordinator is presumed dead (its confirm would have
  /// arrived long ago).  Returns true when a protection was shed.  Refuses
  /// (returns false) for *prepared* protections: those carry a yes-vote and
  /// may only be released by a confirm or a termination-round decision.
  bool expire_protection(ObjectId id, std::uint64_t now, std::uint64_t lease);

  /// True when `id` holds a protection whose lease has run out (prepared or
  /// not) -- the trigger for a termination round on prepared entries.
  bool lease_expired(ObjectId id, std::uint64_t now, std::uint64_t lease) const;

  /// Wipe EVERYTHING, committed versions included.  Models a crash: memory
  /// is volatile, the CommitLog is the disk, and recovery rebuilds the store
  /// via CommitLog::replay_into.
  void clear_all();

  std::size_t num_objects() const { return objects_.size(); }

  /// Always 0: the store keeps no per-transaction reader/writer entries.
  /// Kept only because benchmark/main.cpp still reports it.
  std::size_t tracked_txn_entries() const { return 0; }

  /// Whole-store view for recovery catch-up serving, in first-insert
  /// order; consumers building wire payloads sort by id.
  const std::deque<StoredObject>& entries() const { return objects_; }

 private:
  ReplicaEntry& get_or_create(ObjectId id);

  std::deque<StoredObject> objects_;
  FlatTable<ReplicaEntry*> index_;  // id -> its entry in objects_
};

}  // namespace qrdtm::store
