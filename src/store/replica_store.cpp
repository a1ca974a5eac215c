#include "store/replica_store.h"

#include <utility>

#include "common/check.h"

namespace qrdtm::store {

void ReplicaStore::clear_all() {
  objects_.clear();
  index_.clear();
}

Version ReplicaStore::version_of(ObjectId id) const {
  const ReplicaEntry* e = find(id);
  return e ? e->version : 0;
}

bool ReplicaStore::protected_against(ObjectId id, TxnId txn) const {
  const ReplicaEntry* e = find(id);
  return e && e->is_protected && e->protector != txn;
}

ReplicaEntry& ReplicaStore::get_or_create(ObjectId id) {
  QRDTM_CHECK_MSG(id != kNullObject, "null object id");
  ReplicaEntry*& entry = index_[id];
  if (entry == nullptr) {
    entry = &objects_.emplace_back(StoredObject{.id = id, .entry = {}}).entry;
  }
  return *entry;
}

void ReplicaStore::seed(ObjectId id, Bytes data, Version version) {
  ReplicaEntry& e = get_or_create(id);
  e.version = version;
  e.data = std::move(data);
  e.is_protected = false;
}

void ReplicaStore::apply(ObjectId id, Version version,
                         std::span<const std::uint8_t> data) {
  ReplicaEntry& e = get_or_create(id);
  if (version > e.version) {
    e.version = version;
    e.data.assign(data.begin(), data.end());
  }
}

void ReplicaStore::protect(ObjectId id, TxnId txn, std::uint64_t now) {
  ReplicaEntry& e = get_or_create(id);
  QRDTM_CHECK_MSG(!e.is_protected || e.protector == txn,
                  "protect over another transaction's protection");
  e.is_protected = true;
  e.protector = txn;
  e.protect_tick = now;
}

void ReplicaStore::unprotect(ObjectId id, TxnId txn) {
  ReplicaEntry* e = find_mut(id);
  if (e && e->is_protected && e->protector == txn) {
    e->is_protected = false;
    e->protector = 0;
    e->prepared = false;
  }
}

void ReplicaStore::mark_prepared(ObjectId id, TxnId txn) {
  ReplicaEntry* e = find_mut(id);
  if (e && e->is_protected && e->protector == txn) e->prepared = true;
}

bool ReplicaStore::holds_protection(ObjectId id, TxnId txn) const {
  const ReplicaEntry* e = find(id);
  return e && e->is_protected && e->protector == txn;
}

bool ReplicaStore::prepared(ObjectId id) const {
  const ReplicaEntry* e = find(id);
  return e && e->is_protected && e->prepared;
}

bool ReplicaStore::expire_protection(ObjectId id, std::uint64_t now,
                                     std::uint64_t lease) {
  ReplicaEntry* e = find_mut(id);
  if (!e || !e->is_protected) return false;
  if (e->prepared) return false;  // yes-voted: termination round territory
  if (now < e->protect_tick + lease) return false;
  e->is_protected = false;
  e->protector = 0;
  return true;
}

bool ReplicaStore::lease_expired(ObjectId id, std::uint64_t now,
                                 std::uint64_t lease) const {
  const ReplicaEntry* e = find(id);
  return e && e->is_protected && now >= e->protect_tick + lease;
}

}  // namespace qrdtm::store
