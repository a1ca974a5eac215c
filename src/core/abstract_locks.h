// Abstract locks for open nesting (QR-ON).
//
// Open-nested transactions commit globally before their parent does, so
// memory-level validation can no longer protect the parent's semantics.
// Following TFA-ON (Turcu & Ravindran, SYSTOR'12 -- the open-nesting system
// the paper's related work cites), semantic isolation comes from *abstract
// locks*: an open-nested operation acquires a lock naming the semantic
// entity it touches (e.g. a hashmap key), holds it until the ROOT commits
// or is compensated, and thereby keeps other roots from observing or
// mutating the entity's intermediate state.
//
// Locks are distributed: lock ids hash to a home node whose LockManager
// arbitrates acquisition.  Acquisition is reentrant per root transaction.
#pragma once

#include <cstdint>

#include "common/flat_table.h"
#include "core/types.h"
#include "net/rpc.h"

namespace qrdtm::core {

using AbstractLockId = std::uint64_t;

namespace msg {
constexpr net::MsgKind kLockAcquire = 0x0110;
constexpr net::MsgKind kLockRelease = 0x0111;  // one-way
}  // namespace msg

/// Server-side lock table; one per node, arbitrating the lock ids homed
/// there.
class LockManager {
 public:
  explicit LockManager(net::RpcEndpoint& rpc);

  bool is_held(AbstractLockId lock) const { return holders_.contains(lock); }
  TxnId holder_of(AbstractLockId lock) const {
    const TxnId* root = holders_.find(lock);
    return root == nullptr ? 0 : *root;
  }
  std::size_t held_count() const { return holders_.size(); }

 private:
  Bytes handle_acquire(const Bytes& req);
  void handle_release(const Bytes& req);

  FlatTable<TxnId> holders_;  // lock -> root transaction
};

/// Client helper: the home node arbitrating `lock` in an `n`-node cluster.
net::NodeId lock_home(AbstractLockId lock, std::uint32_t num_nodes);

}  // namespace qrdtm::core
