// Benchmark application interface.
//
// Each app is a distributed data structure (or STAMP-style application)
// built purely on the public DTM API: objects are serde blobs, navigation is
// by stored object ids, and every data-structure operation is wrapped in
// Txn::nested so it becomes one closed-nested transaction under QR-CN
// (paper §VI-C: "each CT is an operation on [the] data structure") while
// flattening transparently under flat QR and QR-CHK.
//
// Bodies produced by make_txn draw all their randomness *up front* (op
// kinds, keys, amounts), so a retried or replayed body re-executes
// deterministically given the values it reads.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "core/cluster.h"

namespace qrdtm::apps {

using core::Bytes;
using core::Cluster;
using core::ObjectId;
using core::Txn;
using core::TxnBody;

struct WorkloadParams {
  /// Fraction of data-structure operations that are read-only (paper Fig. 5
  /// sweeps this 0..1).
  double read_ratio = 0.2;
  /// Operations (closed-nested calls) per root transaction (Fig. 6 sweeps
  /// 1..5).
  std::uint32_t nested_calls = 3;
  /// Population size: accounts / keys / resources (Fig. 7 sweeps this).
  std::uint32_t num_objects = 64;
  /// Application compute charged per operation.
  sim::Tick op_compute = sim::usec(200);
};

class App {
 public:
  virtual ~App() = default;

  virtual std::string name() const = 0;

  /// Seed the initial data structure into every replica.  Must be called
  /// once, before any transactions run.
  virtual void setup(Cluster& cluster, const WorkloadParams& params,
                     Rng& rng) = 0;

  /// Produce one root-transaction body: `params.nested_calls` operations,
  /// each a closed-nested call.
  virtual TxnBody make_txn(const WorkloadParams& params, Rng& rng) = 0;

  /// Produce a read-only body that checks the structure's integrity
  /// invariants and writes the verdict to *ok (run it after the workload,
  /// with contention quiesced).
  virtual TxnBody make_checker(bool* ok) = 0;
};

/// Factory over the registered benchmark apps.
std::unique_ptr<App> make_app(const std::string& name);

/// Names accepted by make_app, in the paper's reporting order.
std::vector<std::string> app_names();

// --- small shared encoding helpers (serde payload schemas) ---

/// An encoded i64 held inline: Txn::write takes it as a span, so writing a
/// balance allocates nothing.
using I64Value = InlineWriter<8>;
I64Value i64_value(std::int64_t v);

/// An owning encoded i64, for seeding and the baselines' Bytes writes.
Bytes enc_i64(std::int64_t v);
/// Decodes an i64 payload in place (a span Txn::read lent, or Bytes).
std::int64_t dec_i64(std::span<const std::uint8_t> b);

}  // namespace qrdtm::apps
