#include "core/abstract_locks.h"

#include "common/serde.h"

namespace qrdtm::core {

LockManager::LockManager(net::RpcEndpoint& rpc) {
  rpc.register_service(
      msg::kLockAcquire,
      [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
        return handle_acquire(b);
      });
  rpc.register_service(
      msg::kLockRelease,
      [this](net::NodeId, const Bytes& b) -> std::optional<Bytes> {
        handle_release(b);
        return std::nullopt;
      });
}

Bytes LockManager::handle_acquire(const Bytes& req) {
  Reader r(req);
  AbstractLockId lock = r.u64();
  TxnId root = r.u64();
  r.expect_done();

  bool granted = false;
  if (const TxnId* holder = holders_.find(lock)) {
    granted = *holder == root;  // reentrant
  } else {
    holders_[lock] = root;
    granted = true;
  }
  Writer w;
  w.boolean(granted);
  return std::move(w).take();
}

void LockManager::handle_release(const Bytes& req) {
  Reader r(req);
  AbstractLockId lock = r.u64();
  TxnId root = r.u64();
  if (holder_of(lock) == root) holders_.erase(lock);
}

net::NodeId lock_home(AbstractLockId lock, std::uint32_t num_nodes) {
  return static_cast<net::NodeId>((lock * 0x9e3779b97f4a7c15ULL >> 33) %
                                  num_nodes);
}

}  // namespace qrdtm::core
