// qrdtm_fuzz -- chaos fuzz harness over recorded histories.
//
// Sweeps seed x protocol x nesting-mode x app x fault-schedule combinations.
// Every combo runs a full deterministic simulation with a HistoryRecorder
// attached, subjects it to a seed-derived fault schedule (fail-stops,
// kill/rejoin churn, partition windows, message-drop bursts, latency
// spikes), and then feeds the recorded history
// to check_history(): 1-copy serializability for the QR family and TFA,
// snapshot-read validity for DecentSTM.  An application-level invariant
// check (run through the protocol after the chaos quiesces) and a
// replica-vs-certified-final-state comparison back the history checker up.
//
// On a violation the driver shrinks the failing combo to the smallest
// transactions-per-client count that still fails, writes the recorded
// history next to the binary, and prints a one-line repro command.
//
//   $ qrdtm_fuzz                          # full sweep (~288 combos)
//   $ qrdtm_fuzz --seeds 2                # quick look
//   $ qrdtm_fuzz --repro qr:closed:bank:7:2 --txns 3   # replay one combo
//   $ qrdtm_fuzz --break-validation       # prove the checker catches a
//                                         # protocol bug (exit 0 iff caught)
//   $ qrdtm_fuzz --sched-base 4 --schedules 1   # torn-checkpoint flavor
//   $ qrdtm_fuzz --sched-base 5 --schedules 1   # orphan-2pc flavor
//   $ qrdtm_fuzz --break-recovery         # prove the checker catches the
//                                         # Greengage torn-checkpoint bug
//   $ qrdtm_fuzz --break-termination      # prove the checker catches a
//                                         # skipped 2PC decision record
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "baselines/decent.h"
#include "baselines/tfa.h"
#include "core/chaos.h"
#include "core/cluster.h"
#include "core/faultpoint.h"
#include "core/history.h"

using namespace qrdtm;

namespace {

constexpr std::uint32_t kNumNodes = 13;
constexpr std::uint32_t kClients = 4;       // client processes on nodes 0..3
constexpr std::uint32_t kMaxAttempts = 50;  // per-transaction retry budget
constexpr std::uint32_t kBankAccounts = 12;
constexpr std::int64_t kBankTotal =
    static_cast<std::int64_t>(kBankAccounts) * 1000;

struct ComboSpec {
  std::string protocol;  // "qr" | "tfa" | "decent"
  core::NestingMode mode = core::NestingMode::kFlat;  // qr only
  std::string app = "bank";                           // qr only
  std::uint64_t seed = 1;
  std::uint32_t sched = 0;  // fault-schedule flavor (0 = no faults)
  std::uint32_t txns_per_client = 6;
  std::uint32_t num_objects = kBankAccounts;
  bool break_validation = false;
  /// QR only: > 0 runs the cluster on sharded quorum cohorts (partial
  /// replication) with this many shards, majority inner quorums of 7 over
  /// the 13 nodes -- no single cohort root, so churn schedules' kills
  /// cannot wedge a whole cohort.
  std::uint32_t shards = 0;
};

struct ComboResult {
  bool violation = false;
  std::string report;
  std::size_t committed = 0;
  core::HistoryRecorder recorder;
  /// qrdtm-trace spans for the same run (QR combos only); dumped next to
  /// the history counterexample on failure so a violation can be replayed
  /// visually in Perfetto.
  core::TraceRecorder tracer;
};

const char* mode_name(core::NestingMode m) {
  switch (m) {
    case core::NestingMode::kFlat:
      return "flat";
    case core::NestingMode::kClosed:
      return "closed";
    case core::NestingMode::kCheckpoint:
      return "checkpoint";
    case core::NestingMode::kQueued:
      return "queued";
  }
  return "?";
}

std::string combo_name(const ComboSpec& c) {
  std::string s = c.protocol;
  s += ':';
  s += c.protocol == "qr" ? mode_name(c.mode) : "-";
  s += ':';
  s += c.protocol == "qr" ? c.app : "bank";
  s += ':';
  s += std::to_string(c.seed);
  s += ':';
  s += std::to_string(c.sched);
  return s;
}

// Fault-schedule flavors, derived deterministically from (seed, sched):
//   0 -- control, no faults;
//   1 -- message-drop bursts + one latency spike;
//   2 -- the above plus (QR only) one leaf fail-stop;
//   3 -- churn: flavor-1 network faults, plus one partition window for
//        every protocol, plus (QR only) up to two fail-stops each paired
//        with a catch-up recovery;
//   4 -- torn-checkpoint: flavor-3 churn plus (QR only) commit-log
//        checkpoint cuts scattered over the horizon, so cuts race
//        in-flight 2PC prepares and recoveries replay across cut
//        boundaries;
//   5 -- orphan-2pc: flavor-4 faults plus (QR only) coordinator crashes
//        steered into the vote->confirm window (fp::kDecisionBeforeLog /
//        fp::kConfirmPartial armed kPanic on client nodes), leaving
//        prepared protections in-doubt until the cooperative termination
//        protocol or the restarted coordinator's decision re-drive
//        resolves them.
// TFA is single-copy and DecentSTM requires full replica-group votes, so
// neither tolerates kills by design -- for them flavors 2-5 keep the
// network faults but never kill (and have no commit log to cut).
core::FaultSchedule make_schedule(const ComboSpec& c) {
  if (c.sched == 0) return {};
  core::ChaosOptions opts;
  opts.horizon = sim::sec(3);
  opts.drop_bursts = 2;
  opts.drop_prob = 0.10;
  opts.burst_len = sim::msec(400);
  opts.latency_spikes = 1;
  opts.spike_extra = sim::msec(300);
  opts.spike_len = sim::msec(500);
  // Spike server-side nodes only; clients live on 0..3.
  for (std::uint32_t n = kClients; n < kNumNodes; ++n) {
    opts.spike_candidates.push_back(static_cast<net::NodeId>(n));
  }
  if (c.sched >= 2 && c.protocol == "qr") {
    opts.max_kills = 1;
    // Tree-13 leaves: losing one never loses a whole quorum level.
    for (std::uint32_t n = 4; n < kNumNodes; ++n) {
      opts.kill_candidates.push_back(static_cast<net::NodeId>(n));
    }
  }
  if (c.sched >= 3) {
    if (c.protocol == "qr") {
      // Recovery makes kills transient, so churn can afford two victims
      // where the stay-dead flavor uses one.
      opts.max_kills = 2;
      opts.recover_after = sim::msec(700);
      opts.recover_jitter = sim::msec(200);
    }
    opts.partition_windows = 1;
    opts.partition_len = sim::msec(400);
    opts.partition_max_side = 3;
    // Partition server-side nodes only, like spikes.
    for (std::uint32_t n = kClients; n < kNumNodes; ++n) {
      opts.partition_candidates.push_back(static_cast<net::NodeId>(n));
    }
  }
  if (c.sched >= 4 && c.protocol == "qr") {
    // Cuts on every node (empty candidates = all): write quorums include
    // client-side replicas too, and a cut racing a prepare is interesting
    // wherever the prepare lands.
    opts.checkpoint_cuts = 6;
  }
  if (c.sched >= 5 && c.protocol == "qr") {
    // Orphan-2PC: crash coordinators (= client nodes 0..3) exactly inside
    // their vote->confirm window via steered fault points, then restart
    // them.  The in-doubt prepares left on the write quorum must be
    // resolved by termination rounds or the recovered coordinator's
    // decision re-drive -- never by guessing.
    opts.orphan_windows = 2;
    for (std::uint32_t n = 0; n < kClients; ++n) {
      opts.orphan_candidates.push_back(static_cast<net::NodeId>(n));
    }
    opts.orphan_recover_after = sim::msec(600);
    opts.orphan_recover_jitter = sim::msec(200);
  }
  return core::FaultSchedule::generate(c.seed * 1000003 + c.sched, kNumNodes,
                                       opts);
}

// ------------------------------------------------------------------ QR ---

sim::Task<void> qr_client(core::Cluster* cl, net::NodeId node, apps::App* app,
                          apps::WorkloadParams params, Rng rng,
                          std::uint32_t txns, std::uint32_t* gave_up) {
  for (std::uint32_t i = 0; i < txns; ++i) {
    core::TxnBody body = app->make_txn(params, rng);
    const bool ok = co_await cl->runtime(node).run_transaction_bounded(
        std::move(body), kMaxAttempts);
    if (!ok) ++*gave_up;
  }
}

sim::Task<void> qr_checker(core::Cluster* cl, apps::App* app, bool* ok,
                           bool* committed) {
  *committed = co_await cl->runtime(0).run_transaction_bounded(
      app->make_checker(ok), 100);
}

ComboResult run_qr(const ComboSpec& c) {
  core::ClusterConfig cfg;
  cfg.num_nodes = kNumNodes;
  cfg.seed = c.seed;
  cfg.runtime.mode = c.mode;
  cfg.test_skip_commit_validation = c.break_validation;
  if (c.shards > 0) {
    cfg.quorum = core::QuorumKind::kSharded;
    cfg.num_shards = c.shards;
    cfg.cohort_size = 7;
    cfg.sharded_majority_inner = true;
  }

  core::Cluster cluster(cfg);
  ComboResult out;
  cluster.set_history_recorder(&out.recorder);
  cluster.set_trace_recorder(&out.tracer);

  std::unique_ptr<apps::App> app = apps::make_app(c.app);
  apps::WorkloadParams params;
  params.num_objects = c.num_objects;
  params.nested_calls = 2;
  params.read_ratio = 0.3;
  params.op_compute = sim::usec(100);
  Rng setup_rng(c.seed * 7919 + 17);
  app->setup(cluster, params, setup_rng);

  const core::FaultSchedule sched = make_schedule(c);
  sched.arm(cluster, &out.recorder);

  std::uint32_t gave_up = 0;
  for (std::uint32_t n = 0; n < kClients; ++n) {
    cluster.simulator().spawn(
        qr_client(&cluster, static_cast<net::NodeId>(n), app.get(), params,
                  Rng(c.seed).split(100 + n), c.txns_per_client, &gave_up));
  }
  cluster.run_to_completion();

  // Quiesce chaos leftovers so the integrity check runs on a calm cluster.
  cluster.network().set_drop_probability(0.0);
  cluster.network().clear_partition();
  for (std::uint32_t n = 0; n < kNumNodes; ++n) {
    cluster.network().set_node_slowdown(static_cast<net::NodeId>(n), 0);
  }

  bool invariant_ok = false;
  bool checker_committed = false;
  cluster.simulator().spawn(
      qr_checker(&cluster, app.get(), &invariant_ok, &checker_committed));
  cluster.run_to_completion();

  const core::CheckResult cr =
      core::check_history(out.recorder, core::CheckLevel::kSerializable);
  out.committed = cr.committed;
  if (!cr.ok) {
    out.violation = true;
    out.report = cr.report;
    return out;
  }
  if (!checker_committed) {
    out.violation = true;
    out.report = "app integrity checker could not commit after chaos cleared";
    return out;
  }
  if (!invariant_ok) {
    out.violation = true;
    out.report = "app integrity invariant violated (protocol-level read)";
    return out;
  }
  if (!c.break_validation) {
    // The certified 1-copy final state must be reachable from the live
    // replicas: for every object some live node holds exactly the final
    // version and bytes (commit confirms are reliable one-ways).
    for (const auto& [id, fin] : cr.final_state) {
      core::Version best = 0;
      const store::ReplicaEntry* best_entry = nullptr;
      for (std::uint32_t n = 0; n < kNumNodes; ++n) {
        if (!cluster.network().alive(static_cast<net::NodeId>(n))) continue;
        const store::ReplicaEntry* e =
            cluster.server(static_cast<net::NodeId>(n)).store().find(id);
        if (e != nullptr && e->version > best) {
          best = e->version;
          best_entry = e;
        }
      }
      if (best != fin.version ||
          (best_entry != nullptr && best_entry->data != fin.data)) {
        out.violation = true;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "VIOLATION (replica divergence): o=%llu newest live "
                      "replica has v=%llu, certified final state is v=%llu",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(best),
                      static_cast<unsigned long long>(fin.version));
        out.report = buf;
        return out;
      }
    }
  }
  return out;
}

// ------------------------------------------------------- baseline bank ---

struct BankOp {
  bool audit = false;
  core::ObjectId a = 1, b = 2, c = 3;
  std::int64_t amount = 0;
};

// Accounts are ids 1..kBankAccounts (both baselines allocate sequentially).
BankOp draw_bank_op(Rng& rng) {
  BankOp op;
  op.audit = rng.chance(0.3);
  op.a = 1 + rng.below(kBankAccounts);
  do {
    op.b = 1 + rng.below(kBankAccounts);
  } while (op.b == op.a);
  op.c = 1 + rng.below(kBankAccounts);
  op.amount = 1 + static_cast<std::int64_t>(rng.below(50));
  return op;
}

template <class Cluster>
sim::Task<void> bank_client(Cluster* cl, net::NodeId node, Rng rng,
                            std::uint32_t txns, std::uint32_t* gave_up) {
  for (std::uint32_t i = 0; i < txns; ++i) {
    const BankOp op = draw_bank_op(rng);
    typename Cluster::Body body =
        [op](typename Cluster::Txn& t) -> sim::Task<void> {
      if (op.audit) {
        co_await t.read(op.a);
        co_await t.read(op.b);
        co_await t.read(op.c);
        co_return;
      }
      const std::int64_t va = apps::dec_i64(co_await t.read_for_write(op.a));
      const std::int64_t vb = apps::dec_i64(co_await t.read_for_write(op.b));
      t.write(op.a, apps::enc_i64(va - op.amount));
      t.write(op.b, apps::enc_i64(vb + op.amount));
    };
    const bool ok = co_await cl->run_transaction_bounded(node, std::move(body),
                                                         kMaxAttempts);
    if (!ok) ++*gave_up;
  }
}

sim::Task<void> tfa_checker(baselines::TfaCluster* cl, bool* ok,
                            bool* committed) {
  // One single-read transaction per account.  The state is frozen once the
  // workload drains, so the piecewise sum is atomic in effect -- and a
  // whole-sum transaction could stall on a home-node lock orphaned by a
  // dropped lock response (its forwarding revalidation re-checks locks;
  // the lock lease sheds the orphan eventually, but only after
  // BaselineConfig::lock_lease of wall-clock the checker would burn in
  // retries).  A single-read transaction forwards before its first
  // read-set entry exists, so it always commits.
  std::int64_t sum = 0;
  bool all_committed = true;
  for (core::ObjectId id = 1; id <= kBankAccounts; ++id) {
    std::int64_t value = 0;
    // `value` is read back right after the directly co_awaited bounded run
    // below returns, so the by-reference capture cannot dangle.
    baselines::TfaBody body =
        // qrdtm-lint: allow(coro-ref-capture)
        [&value, id](baselines::TfaTxn& t) -> sim::Task<void> {
      value = apps::dec_i64(co_await t.read(id));
    };
    const bool c = co_await cl->run_transaction_bounded(0, std::move(body), 100);
    all_committed = all_committed && c;
    sum += value;
  }
  *committed = all_committed;
  *ok = sum == kBankTotal;
}

sim::Task<void> decent_checker(baselines::DecentCluster* cl, bool* ok,
                               bool* committed) {
  baselines::DecentBody body = [ok](baselines::DecentTxn& t) -> sim::Task<void> {
    std::int64_t sum = 0;
    for (core::ObjectId id = 1; id <= kBankAccounts; ++id) {
      sum += apps::dec_i64(co_await t.read(id));
    }
    *ok = sum == kBankTotal;
  };
  *committed = co_await cl->run_transaction_bounded(0, std::move(body), 100);
}

/// One baseline combo: Bank clients under the combo's fault schedule, then
/// `checker` on the quiesced cluster and check_history() at `level`.
/// Client n draws from Rng(seed).split(salt + n).
template <class Cluster>
ComboResult run_baseline(const ComboSpec& c, core::CheckLevel level,
                         std::uint64_t salt,
                         sim::Task<void> (*checker)(Cluster*, bool*, bool*)) {
  typename Cluster::Config cfg;
  cfg.num_nodes = kNumNodes;
  cfg.seed = c.seed;
  Cluster cluster(cfg);
  ComboResult out;
  cluster.set_history_recorder(&out.recorder);
  for (std::uint32_t i = 0; i < kBankAccounts; ++i) {
    cluster.seed_new_object(apps::enc_i64(1000));
  }

  const core::FaultSchedule sched = make_schedule(c);
  sched.arm(cluster.simulator(), cluster.network(), nullptr, &out.recorder);

  std::uint32_t gave_up = 0;
  for (std::uint32_t n = 0; n < kClients; ++n) {
    cluster.simulator().spawn(bank_client(&cluster,
                                          static_cast<net::NodeId>(n),
                                          Rng(c.seed).split(salt + n),
                                          c.txns_per_client, &gave_up));
  }
  cluster.run_to_completion();

  cluster.network().set_drop_probability(0.0);
  cluster.network().clear_partition();
  for (std::uint32_t n = 0; n < kNumNodes; ++n) {
    cluster.network().set_node_slowdown(static_cast<net::NodeId>(n), 0);
  }
  bool invariant_ok = false;
  bool checker_committed = false;
  cluster.simulator().spawn(
      checker(&cluster, &invariant_ok, &checker_committed));
  cluster.run_to_completion();

  const core::CheckResult cr = core::check_history(out.recorder, level);
  out.committed = cr.committed;
  if (!cr.ok) {
    out.violation = true;
    out.report = cr.report;
  } else if (!checker_committed) {
    out.violation = true;
    out.report = "bank sum checker could not commit after chaos cleared";
  } else if (!invariant_ok) {
    out.violation = true;
    out.report = "bank balance sum diverged from the seeded total";
  }
  return out;
}

ComboResult run_combo(const ComboSpec& c) {
  if (c.protocol == "qr") return run_qr(c);
  if (c.protocol == "tfa") {
    return run_baseline<baselines::TfaCluster>(
        c, core::CheckLevel::kSerializable, 200, tfa_checker);
  }
  if (c.protocol == "decent") {
    // DecentSTM provides snapshot isolation: write skew is legal, lost
    // updates and phantom versions are not.
    return run_baseline<baselines::DecentCluster>(
        c, core::CheckLevel::kSnapshotReads, 300, decent_checker);
  }
  std::fprintf(stderr, "unknown protocol %s\n", c.protocol.c_str());
  std::exit(2);
}

// --------------------------------------------- broken-recovery canary ---

sim::Task<void> torn_txn(core::Cluster* cl, core::ObjectId obj,
                         bool* committed) {
  core::TxnBody body = [obj](core::Txn& t) -> sim::Task<void> {
    const std::int64_t v = apps::dec_i64(co_await t.read_for_write(obj));
    t.write(obj, apps::i64_value(v + 1));
  };
  *committed = co_await cl->runtime(0).run_transaction_bounded(std::move(body),
                                                               kMaxAttempts);
}

/// Steered Greengage checkpoint_dtx_info race: park a coordinator between
/// its votes and its confirm, cut a checkpoint on every replica inside that
/// window, resume, then crash-and-restart every replica one at a time.  In
/// the control run the cut carries the in-flight prepare forward, replay
/// matches the later confirm against it, and the committed version survives
/// every restart.  With `broken` the cut drops the carry (fp::kChkCutCarry
/// kSkip) and recovery trusts local replay alone (fp::kRecoverySkipSync
/// kSkip), so the commit silently vanishes from every replica -- the
/// replica-divergence check against the certified final state must say so.
/// Returns true iff a violation was reported (into *report).
bool run_torn_recovery(std::uint64_t seed, bool broken, std::string* report) {
  core::ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = core::QuorumKind::kMajority;
  cfg.seed = seed;
  core::Cluster cluster(cfg);
  core::HistoryRecorder recorder;
  cluster.set_history_recorder(&recorder);
  const core::ObjectId obj = cluster.seed_new_object(apps::enc_i64(0));
  FaultPointRegistry& faults = cluster.fault_points();

  // Phase 1: park the coordinator in the vote->confirm window.  The write
  // quorum has protected and durably prepared the write-set; the confirm
  // does not exist yet.
  faults.arm(fp::kCommitBeforeConfirm, FaultAction::kSuspend, /*node=*/0);
  bool committed = false;
  cluster.simulator().spawn(torn_txn(&cluster, obj, &committed));
  cluster.run_to_completion();
  if (faults.suspended(fp::kCommitBeforeConfirm) != 1) {
    *report = "torn-recovery staging failed: coordinator never parked";
    return false;
  }

  // Phase 2: cut a checkpoint on every replica while the prepare is in
  // flight.  Broken mode reproduces the Greengage bug: the cut forgets the
  // prepared-but-unconfirmed transaction.
  if (broken) {
    faults.arm(fp::kChkCutCarry, FaultAction::kSkip, FaultPointRegistry::kAnyNode,
               FaultPointRegistry::kUnlimited);
  }
  for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
    cluster.cut_checkpoint(static_cast<net::NodeId>(n));
  }
  faults.disarm(fp::kChkCutCarry);

  // Phase 3: release the confirm; the transaction commits for real.
  faults.resume(fp::kCommitBeforeConfirm);
  cluster.run_to_completion();
  if (!committed) {
    *report = "torn-recovery staging failed: steered transaction aborted";
    return false;
  }

  // Phase 4: crash and restart every replica, one at a time so read quorums
  // stay available for the control run's anti-entropy pull.  Broken mode
  // re-admits each node on its (torn) local replay alone.
  for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
    const net::NodeId node = static_cast<net::NodeId>(n);
    if (broken) {
      faults.arm(fp::kRecoverySkipSync, FaultAction::kSkip, node);
    }
    cluster.kill_node(node);
    cluster.recover_node(node);
    cluster.run_to_completion();
  }

  // Verdict: the certified final state must be reachable from the live
  // replicas (same check run_qr applies after chaos).
  const core::CheckResult cr =
      core::check_history(recorder, core::CheckLevel::kSerializable);
  if (!cr.ok) {
    *report = cr.report;
    return true;
  }
  for (const auto& [id, fin] : cr.final_state) {
    core::Version best = 0;
    for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
      const store::ReplicaEntry* e =
          cluster.server(static_cast<net::NodeId>(n)).store().find(id);
      if (e != nullptr && e->version > best) best = e->version;
    }
    if (best != fin.version) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "VIOLATION (replica divergence): o=%llu newest live "
                    "replica has v=%llu, certified final state is v=%llu",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(best),
                    static_cast<unsigned long long>(fin.version));
      *report = buf;
      return true;
    }
  }
  *report = "no violation";
  return false;
}

/// --break-termination canary: crash a coordinator on its FIRST confirm
/// send (fp::kConfirmPartial kPanic, delay 0), so the client's commit is
/// acknowledged but no write-quorum member ever hears the outcome.  In the
/// control run the decision record is durable before the crash: the
/// restarted coordinator replays it and re-drives the confirms, every
/// replica applies, and the certified final state is reachable.  With
/// `broken` the decision record is skipped (fp::kDecisionBeforeLog kSkip --
/// the bug the decision-before-confirm ordering exists to prevent), so the
/// restart finds nothing to re-drive, the acknowledged commit never reaches
/// a single replica, and the replica-divergence check must say so.
/// Returns true iff a violation was reported (into *report).
bool run_orphan_termination(std::uint64_t seed, bool broken,
                            std::string* report) {
  core::ClusterConfig cfg;
  cfg.num_nodes = 7;
  cfg.quorum = core::QuorumKind::kMajority;
  cfg.seed = seed;
  core::Cluster cluster(cfg);
  core::HistoryRecorder recorder;
  cluster.set_history_recorder(&recorder);
  const core::ObjectId obj = cluster.seed_new_object(apps::enc_i64(0));
  FaultPointRegistry& faults = cluster.fault_points();

  if (broken) {
    faults.arm(fp::kDecisionBeforeLog, FaultAction::kSkip, /*node=*/0);
  }
  faults.arm(fp::kConfirmPartial, FaultAction::kPanic, /*node=*/0,
             /*uses=*/1, /*delay_fires=*/0);
  bool committed = false;
  cluster.simulator().spawn(torn_txn(&cluster, obj, &committed));
  cluster.run_to_completion();
  if (!committed) {
    *report = "orphan-2pc staging failed: steered commit was not acked";
    return false;
  }

  // Restart the coordinator: replay + decision re-drive (control) vs an
  // empty decision log (broken).
  cluster.recover_node(0);
  cluster.run_to_completion();

  const core::CheckResult cr =
      core::check_history(recorder, core::CheckLevel::kSerializable);
  if (!cr.ok) {
    *report = cr.report;
    return true;
  }
  for (const auto& [id, fin] : cr.final_state) {
    core::Version best = 0;
    for (std::uint32_t n = 0; n < cfg.num_nodes; ++n) {
      const store::ReplicaEntry* e =
          cluster.server(static_cast<net::NodeId>(n)).store().find(id);
      if (e != nullptr && e->version > best) best = e->version;
    }
    if (best != fin.version) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "VIOLATION (replica divergence): o=%llu newest live "
                    "replica has v=%llu, certified final state is v=%llu",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(best),
                    static_cast<unsigned long long>(fin.version));
      *report = buf;
      return true;
    }
  }
  *report = "no violation";
  return false;
}

// --------------------------------------------------------------- driver ---

struct Options {
  std::uint32_t seeds = 12;
  std::uint64_t seed_base = 1;
  std::uint32_t schedules = 3;
  std::uint32_t sched_base = 0;
  std::uint32_t txns = 6;
  std::string trace_dir = ".";
  std::vector<std::string> protocols = {"qr", "tfa", "decent"};
  std::vector<core::NestingMode> modes = {core::NestingMode::kFlat,
                                          core::NestingMode::kClosed,
                                          core::NestingMode::kCheckpoint,
                                          core::NestingMode::kQueued};
  std::vector<std::string> apps = {"bank", "vacation"};
  bool break_validation = false;
  bool break_recovery = false;
  bool break_termination = false;
  std::uint32_t shards = 0;  // qr only: sharded cohorts with N shards
  std::string repro;  // proto:mode:app:seed:sched
};

void usage() {
  std::printf(
      "usage: qrdtm_fuzz [options]\n"
      "  --seeds N           seeds per combo class (default 12)\n"
      "  --seed-base N       first seed (default 1)\n"
      "  --schedules N       number of fault-schedule flavors swept,\n"
      "                      sched-base..sched-base+N-1 (default 3)\n"
      "  --sched-base N      first fault-schedule flavor (default 0;\n"
      "                      3 = kill/rejoin churn + partitions,\n"
      "                      4 = churn + torn checkpoint cuts)\n"
      "  --txns N            transactions per client (default 6)\n"
      "  --protocols CSV     subset of qr,tfa,decent\n"
      "  --modes CSV         subset of flat,closed,checkpoint,queued "
      "(qr only)\n"
      "  --apps CSV          subset of bank,vacation (qr only)\n"
      "  --shards N          qr only: run on sharded quorum cohorts\n"
      "                      (N shards, majority cohorts of 7; default 0 =\n"
      "                      full replication)\n"
      "  --trace-dir DIR     where counterexample traces are written\n"
      "  --repro SPEC        run one combo: proto:mode:app:seed:sched\n"
      "  --break-validation  disable replica commit validation and require\n"
      "                      the checker to catch the bug under both the\n"
      "                      per-transaction (flat) and batched (queued)\n"
      "                      commit paths; exit 0 iff it catches both\n"
      "  --break-recovery    steer the Greengage torn-checkpoint race with\n"
      "                      the carry and the anti-entropy pull disabled;\n"
      "                      the control run must certify and the broken\n"
      "                      run must be caught; exit 0 iff both hold\n"
      "  --break-termination steer a coordinator crash into the confirm\n"
      "                      broadcast with the decision record skipped, so\n"
      "                      an acknowledged commit reaches no replica; the\n"
      "                      control run (decision logged + re-driven) must\n"
      "                      certify and the broken run must be caught;\n"
      "                      exit 0 iff both hold\n");
}

std::vector<std::string> split_csv(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_mode(const std::string& s, core::NestingMode& out) {
  if (s == "flat") {
    out = core::NestingMode::kFlat;
  } else if (s == "closed") {
    out = core::NestingMode::kClosed;
  } else if (s == "checkpoint" || s == "chk") {
    out = core::NestingMode::kCheckpoint;
  } else if (s == "queued") {
    out = core::NestingMode::kQueued;
  } else {
    return false;
  }
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return false;
    if (flag == "--break-validation") {
      opt.break_validation = true;
      continue;
    }
    if (flag == "--break-recovery") {
      opt.break_recovery = true;
      continue;
    }
    if (flag == "--break-termination") {
      opt.break_termination = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string val = argv[++i];
    if (flag == "--seeds") {
      opt.seeds = static_cast<std::uint32_t>(std::atoi(val.c_str()));
    } else if (flag == "--seed-base") {
      opt.seed_base = static_cast<std::uint64_t>(std::atoll(val.c_str()));
    } else if (flag == "--schedules") {
      opt.schedules = static_cast<std::uint32_t>(std::atoi(val.c_str()));
    } else if (flag == "--sched-base") {
      opt.sched_base = static_cast<std::uint32_t>(std::atoi(val.c_str()));
    } else if (flag == "--txns") {
      opt.txns = static_cast<std::uint32_t>(std::atoi(val.c_str()));
    } else if (flag == "--shards") {
      opt.shards = static_cast<std::uint32_t>(std::atoi(val.c_str()));
    } else if (flag == "--trace-dir") {
      opt.trace_dir = val;
    } else if (flag == "--protocols") {
      opt.protocols = split_csv(val);
    } else if (flag == "--apps") {
      opt.apps = split_csv(val);
    } else if (flag == "--modes") {
      opt.modes.clear();
      for (const std::string& m : split_csv(val)) {
        core::NestingMode mode;
        if (!parse_mode(m, mode)) {
          std::fprintf(stderr, "unknown mode %s\n", m.c_str());
          return false;
        }
        opt.modes.push_back(mode);
      }
    } else if (flag == "--repro") {
      opt.repro = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

/// Shrink a failing combo to the smallest txns-per-client that still fails,
/// write its trace, and print the repro line.  Returns the shrunk result.
ComboResult report_failure(ComboSpec spec, ComboResult res,
                           const Options& opt) {
  std::printf("FAIL %s txns=%u\n", combo_name(spec).c_str(),
              spec.txns_per_client);
  for (std::uint32_t t = spec.txns_per_client / 2; t >= 1; t /= 2) {
    ComboSpec smaller = spec;
    smaller.txns_per_client = t;
    ComboResult r = run_combo(smaller);
    if (!r.violation) break;
    spec = smaller;
    res = std::move(r);
    std::printf("  shrunk to txns=%u\n", t);
    if (t == 1) break;
  }
  std::string base = opt.trace_dir + "/fuzz_counterexample_";
  for (char ch : combo_name(spec)) base += ch == ':' ? '_' : ch;
  std::string trace = base + ".txt";
  if (!res.recorder.dump_to_file(trace)) trace = "<trace write failed>";
  std::printf("%s\n", res.report.c_str());
  std::printf("  combo:  %s (%zu committed txns)\n", combo_name(spec).c_str(),
              res.committed);
  std::printf("  trace:  %s\n", trace.c_str());
  if (!res.tracer.empty()) {
    // QR combos also carry a qrdtm-trace of the failing run; dump it in
    // Chrome trace-event format for Perfetto.
    std::string spans = base + ".trace.json";
    if (res.tracer.write_chrome_trace(spans)) {
      std::printf("  spans:  %s (load at ui.perfetto.dev)\n", spans.c_str());
    }
  }
  std::printf("  repro:  qrdtm_fuzz --repro %s --txns %u%s\n",
              combo_name(spec).c_str(), spec.txns_per_client,
              spec.break_validation ? " --break-validation" : "");
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  std::vector<ComboSpec> combos;
  auto push_seeds = [&](ComboSpec base) {
    for (std::uint32_t s = 0; s < opt.seeds; ++s) {
      for (std::uint32_t f = 0; f < opt.schedules; ++f) {
        ComboSpec c = base;
        c.seed = opt.seed_base + s;
        c.sched = opt.sched_base + f;
        combos.push_back(c);
      }
    }
  };

  if (!opt.repro.empty()) {
    const std::vector<std::string> parts = split_csv(opt.repro, ':');
    if (parts.size() != 5) {
      std::fprintf(stderr, "bad --repro spec %s\n", opt.repro.c_str());
      return 2;
    }
    ComboSpec c;
    c.protocol = parts[0];
    if (c.protocol == "qr" && !parse_mode(parts[1], c.mode)) {
      std::fprintf(stderr, "bad mode %s\n", parts[1].c_str());
      return 2;
    }
    if (c.protocol == "qr") c.app = parts[2];
    c.seed = static_cast<std::uint64_t>(std::atoll(parts[3].c_str()));
    c.sched = static_cast<std::uint32_t>(std::atoi(parts[4].c_str()));
    c.txns_per_client = opt.txns;
    c.break_validation = opt.break_validation;
    c.shards = opt.shards;
    if (c.break_validation) c.num_objects = 4;
    combos.push_back(c);
  } else if (opt.break_recovery) {
    // Steered canary for the torn-checkpoint race.  The control run proves
    // the detection pipeline has no false positive on the healthy protocol;
    // the broken run proves it has teeth: with the carry and the
    // anti-entropy pull disabled the committed transaction vanishes from
    // every replica, and the divergence check must say so.
    bool control_ok = true;
    std::string report;
    for (std::uint32_t s = 0; s < (opt.seeds < 2 ? opt.seeds : 2); ++s) {
      if (run_torn_recovery(opt.seed_base + s, /*broken=*/false, &report)) {
        std::printf("fuzz: ERROR -- control torn-recovery run seed=%llu "
                    "reported a violation:\n  %s\n",
                    static_cast<unsigned long long>(opt.seed_base + s),
                    report.c_str());
        control_ok = false;
      }
    }
    bool caught = false;
    std::uint64_t caught_seed = 0;
    const std::uint32_t seeds = opt.seeds < 4 ? opt.seeds : 4;
    for (std::uint32_t s = 0; s < seeds && !caught; ++s) {
      if (run_torn_recovery(opt.seed_base + s, /*broken=*/true, &report)) {
        caught = true;
        caught_seed = opt.seed_base + s;
      }
    }
    if (caught) {
      std::printf("fuzz: checker caught the torn-checkpoint recovery bug "
                  "(seed=%llu)\n  %s\n",
                  static_cast<unsigned long long>(caught_seed),
                  report.c_str());
    } else {
      std::printf("fuzz: ERROR -- recovery broken but no violation detected "
                  "(%s)\n",
                  report.c_str());
    }
    return control_ok && caught ? 0 : 1;
  } else if (opt.break_termination) {
    // Steered canary for the decision-before-confirm ordering.  Control:
    // crash after the decision record, the restart re-drives the confirms,
    // the acked commit survives.  Broken: same crash with the decision
    // record skipped -- the acked commit reaches no replica and the
    // divergence check must catch it.
    bool control_ok = true;
    std::string report;
    for (std::uint32_t s = 0; s < (opt.seeds < 2 ? opt.seeds : 2); ++s) {
      if (run_orphan_termination(opt.seed_base + s, /*broken=*/false,
                                 &report)) {
        std::printf("fuzz: ERROR -- control orphan-termination run seed=%llu "
                    "reported a violation:\n  %s\n",
                    static_cast<unsigned long long>(opt.seed_base + s),
                    report.c_str());
        control_ok = false;
      }
    }
    bool caught = false;
    std::uint64_t caught_seed = 0;
    const std::uint32_t seeds = opt.seeds < 4 ? opt.seeds : 4;
    for (std::uint32_t s = 0; s < seeds && !caught; ++s) {
      if (run_orphan_termination(opt.seed_base + s, /*broken=*/true,
                                 &report)) {
        caught = true;
        caught_seed = opt.seed_base + s;
      }
    }
    if (caught) {
      std::printf("fuzz: checker caught the skipped-decision-record bug "
                  "(seed=%llu)\n  %s\n",
                  static_cast<unsigned long long>(caught_seed),
                  report.c_str());
    } else {
      std::printf("fuzz: ERROR -- termination broken but no violation "
                  "detected (%s)\n",
                  report.c_str());
    }
    return control_ok && caught ? 0 : 1;
  } else if (opt.break_validation) {
    // Focused detection run: high contention, no chaos needed -- the
    // protocol itself is broken, the checker must see it.  The bug is
    // injected into both commit paths (per-transaction flat votes and
    // batched queued votes); it must be caught under each, since a checker
    // blind to one path would silently certify its broken histories.
    bool all_caught = true;
    for (core::NestingMode mode :
         {core::NestingMode::kFlat, core::NestingMode::kQueued}) {
      ComboSpec base;
      base.protocol = "qr";
      base.mode = mode;
      base.app = "bank";
      base.txns_per_client = opt.txns > 6 ? opt.txns : 8;
      base.num_objects = 4;
      base.break_validation = true;
      bool caught = false;
      const std::uint32_t seeds = opt.seeds < 4 ? opt.seeds : 4;
      std::size_t mode_ran = 0;
      for (std::uint32_t s = 0; s < seeds && !caught; ++s) {
        ComboSpec c = base;
        c.seed = opt.seed_base + s;
        ComboResult res = run_combo(c);
        ++mode_ran;
        if (res.violation) {
          report_failure(c, std::move(res), opt);
          caught = true;  // one caught counterexample per path suffices
        }
      }
      std::printf("fuzz: checker %s the injected validation bug under %s "
                  "(%zu combos)\n",
                  caught ? "caught" : "MISSED", mode_name(mode), mode_ran);
      all_caught = all_caught && caught;
    }
    return all_caught ? 0 : 1;
  } else {
    for (const std::string& proto : opt.protocols) {
      if (proto == "qr") {
        for (core::NestingMode mode : opt.modes) {
          for (const std::string& app : opt.apps) {
            ComboSpec base;
            base.protocol = "qr";
            base.mode = mode;
            base.app = app;
            base.txns_per_client = opt.txns;
            base.shards = opt.shards;
            push_seeds(base);
          }
        }
      } else {
        ComboSpec base;
        base.protocol = proto;
        base.txns_per_client = opt.txns;
        push_seeds(base);
      }
    }
  }

  std::size_t ran = 0, violations = 0, committed = 0;
  for (const ComboSpec& c : combos) {
    ComboResult res = run_combo(c);
    ++ran;
    committed += res.committed;
    if (res.violation) {
      ++violations;
      report_failure(c, std::move(res), opt);
      if (opt.break_validation) break;  // one caught counterexample suffices
    }
  }

  if (opt.break_validation) {
    if (violations > 0) {
      std::printf(
          "fuzz: checker caught the injected validation bug (%zu combos)\n",
          ran);
      return 0;
    }
    std::printf(
        "fuzz: ERROR -- validation disabled but no violation detected in "
        "%zu combos\n",
        ran);
    return 1;
  }
  std::printf("fuzz: %zu combos, %zu committed txns checked, %zu violations\n",
              ran, committed, violations);
  return violations == 0 ? 0 : 1;
}
