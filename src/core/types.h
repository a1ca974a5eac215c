// Core transaction types shared by client runtime and replica servers.
#pragma once

#include <cstdint>
#include <string>

#include "store/object.h"

namespace qrdtm::core {

using qrdtm::Bytes;
using store::ObjectCopy;
using store::ObjectId;
using store::TxnId;
using store::Version;

/// Execution model for the transaction runtime (paper §I-A).
enum class NestingMode : std::uint8_t {
  kFlat = 0,    // QR: conflicts detected at commit; full abort
  kClosed = 1,  // QR-CN: Rqv + closed nested transactions (partial abort)
  kCheckpoint = 2,  // QR-CHK: Rqv + automatic checkpoints (partial rollback)
  kQueued = 3,  // QR-Q: queue-ordered speculative batch commit (Q-Store style)
};

inline const char* to_string(NestingMode m) {
  switch (m) {
    case NestingMode::kFlat:
      return "flat";
    case NestingMode::kClosed:
      return "closed";
    case NestingMode::kCheckpoint:
      return "checkpoint";
    case NestingMode::kQueued:
      return "queued";
  }
  return "?";
}

/// Checkpoint epoch (QR-CHK).  Epoch 0 is the transaction start; rollback to
/// 0 is equivalent to a full abort-and-retry.
using ChkEpoch = std::uint64_t;

/// What an abort message asks the runtime to do.
enum class AbortTarget : std::uint8_t {
  kRoot = 0,       // abort the whole (root) transaction
  kScope = 1,      // QR-CN: abort the closed-nested scope `scope_id`
  kCheckpoint = 2  // QR-CHK: roll back to checkpoint `chk`
};

/// A protocol abort (abortClosed, abortChk or a full abort).  The paper's
/// Java implementation throws it (§VI-A); here it travels as a value: the
/// abort site records it in the root transaction and hands control to the
/// innermost scope boundary, which destroys the frames below it and
/// forwards the abort until the scope it names handles it (core/txn.h).
struct Abort {
  AbortTarget target = AbortTarget::kRoot;
  TxnId scope_id = 0;    // kScope: closed-nested scope to retry
  ChkEpoch chk = 0;      // kCheckpoint: epoch to roll back to
  std::string reason;
};

}  // namespace qrdtm::core
