// Wire-format tests for the QR protocol messages: exact bytes, round trips,
// the in-place views (each message's one parser, or the parser its owning
// decode copies out of), and fuzzing the decoders with random/truncated bytes
// (a replica must reject corrupt input with SerdeError, never crash or
// accept garbage silently).  The read-request sweeps run every input through
// ReadRequest::decode and through a live replica's kRead service, which
// validates the data-set in place; the commit sweeps do the same for
// CommitRequest / CommitConfirm and the kCommitRequest / kCommitConfirm
// services.  A service that rejects a message drops it (counted in
// NetStats::dropped_malformed) and leaves the replica as it was.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/qr_server.h"
#include "core/wire.h"
#include "net/latency.h"
#include "wire_encode.h"

namespace qrdtm::core {
namespace {

ReadRequest sample_read_request(Rng& rng) {
  ReadRequest req;
  req.root = rng.next();
  req.mode = static_cast<NestingMode>(rng.below(3));
  req.object = rng.next();
  req.for_write = rng.chance(0.5);
  int n = static_cast<int>(rng.below(8));
  for (int i = 0; i < n; ++i) {
    req.dataset.push_back(DataSetEntry{rng.next(), rng.next(), rng.next(),
                                       static_cast<std::uint32_t>(rng.next()),
                                       rng.next()});
  }
  return req;
}

/// One replica behind a two-endpoint network, fed raw kRead,
/// kCommitRequest and kCommitConfirm payloads.  Its protection lease is
/// 1 us, and arm() stores every object a message names at the version it
/// names, protected since tick 0 by a transaction other than the message's:
/// a served Rqv read or vote sheds (and counts in Metrics::lease_breaks)
/// each such protection it reads, and a served confirm logs its outcome.
/// state() captures everything a served message can change, so serve()
/// checks that a rejected message left it equal.
struct ServiceRig {
  struct State {
    std::vector<std::tuple<ObjectId, Version, Bytes, TxnId, bool, bool,
                           std::uint64_t>>
        entries;
    std::size_t log_bytes = 0;
    std::uint64_t log_records = 0;
    std::size_t log_in_flight = 0;
    Version log_high = 0;
    std::size_t prepared = 0;
    std::size_t outcomes = 0;
    Metrics metrics;
    bool operator==(const State&) const = default;
  };

  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::RpcEndpoint> client_ep;
  std::unique_ptr<net::RpcEndpoint> server_ep;
  Metrics metrics;
  std::unique_ptr<QrServer> server;

  ServiceRig() {
    net = std::make_unique<net::Network>(
        sim, std::make_unique<net::UniformLatency>(sim::msec(1)), 1,
        sim::usec(10));
    client_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server_ep = std::make_unique<net::RpcEndpoint>(sim, *net);
    server = std::make_unique<QrServer>(*server_ep, metrics);
    server->set_protection_lease(sim::usec(1));
  }

  void arm_object(ObjectId id, Version v, TxnId owner) {
    if (id == store::kNullObject) return;  // never stored
    server->store().seed(id, Bytes{}, v);
    server->store().protect(id, owner + 1, /*now=*/0);
  }
  void arm(const ReadRequest& req) {
    for (const DataSetEntry& e : req.dataset) {
      arm_object(e.id, e.version, req.root);
    }
  }
  void arm(const CommitRequest& req) {
    for (const CommitReadEntry& e : req.readset) {
      arm_object(e.id, e.version, req.txn);
    }
    for (const CommitWriteEntry& e : req.writeset) {
      arm_object(e.id, e.base, req.txn);
    }
  }
  void arm(const CommitConfirm& c) {
    for (const CommitWriteEntry& e : c.writeset) {
      arm_object(e.id, e.base, c.txn);
    }
  }

  State state() const {
    State s;
    for (const store::StoredObject& o : server->store().entries()) {
      const store::ReplicaEntry& e = o.entry;
      s.entries.emplace_back(o.id, e.version, e.data, e.protector,
                             e.is_protected, e.prepared, e.protect_tick);
    }
    const store::CommitLog& log = server->commit_log();
    s.log_bytes = log.size_bytes();
    s.log_records = log.tail_records();
    s.log_in_flight = log.in_flight();
    s.log_high = log.high_version();
    s.prepared = server->prepared_txns();
    s.outcomes = server->applied_outcomes();
    s.metrics = metrics;
    return s;
  }

  /// Deliver `wire` as `kind`.  False when the service rejected it as
  /// malformed, which drops the message, counts the drop and changes
  /// nothing else.
  bool serve(net::MsgKind kind, const Bytes& wire) {
    const State before = state();
    const std::uint64_t dropped = net->stats().dropped_malformed;
    client_ep->notify(server_ep->id(), kind, wire);
    sim.run();
    const bool accepted = net->stats().dropped_malformed == dropped;
    if (!accepted) {
      EXPECT_EQ(net->stats().dropped_malformed, dropped + 1);
      EXPECT_TRUE(state() == before) << "a dropped message changed the replica";
    }
    return accepted;
  }
  bool serve(const Bytes& wire) { return serve(msg::kRead, wire); }

  /// True when no armed protection of `req` was read and shed.
  bool untouched(const ReadRequest& req) {
    if (metrics.lease_breaks != 0) return false;
    for (const DataSetEntry& e : req.dataset) {
      if (e.id == store::kNullObject) continue;
      if (!server->store().protected_against(e.id, req.root)) return false;
    }
    return true;
  }
};

TEST(Wire, ReadRequestRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 100; ++iter) {
    ReadRequest req = sample_read_request(rng);
    ReadRequest got = ReadRequest::decode(encode(req));
    EXPECT_EQ(got.root, req.root);
    EXPECT_EQ(got.mode, req.mode);
    EXPECT_EQ(got.object, req.object);
    EXPECT_EQ(got.for_write, req.for_write);
    ASSERT_EQ(got.dataset.size(), req.dataset.size());
    for (std::size_t i = 0; i < req.dataset.size(); ++i) {
      EXPECT_EQ(got.dataset[i].id, req.dataset[i].id);
      EXPECT_EQ(got.dataset[i].version, req.dataset[i].version);
      EXPECT_EQ(got.dataset[i].owner, req.dataset[i].owner);
      EXPECT_EQ(got.dataset[i].owner_depth, req.dataset[i].owner_depth);
      EXPECT_EQ(got.dataset[i].owner_chk, req.dataset[i].owner_chk);
    }
  }
}

TEST(Wire, ReadResponseRoundTrip) {
  ReadResponse resp;
  resp.status = ReadStatus::kAbort;
  resp.version = 17;
  resp.data = Bytes{1, 2, 3};
  resp.abort_scope = 42;
  resp.abort_depth = 2;
  resp.abort_chk = 9;
  const Bytes wire = encode(resp);
  const ReadResponseView got = ReadResponse::decode_view(wire);
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.version, resp.version);
  EXPECT_EQ(Bytes(got.data.begin(), got.data.end()), resp.data);
  EXPECT_EQ(got.abort_scope, resp.abort_scope);
  EXPECT_EQ(got.abort_depth, resp.abort_depth);
  EXPECT_EQ(got.abort_chk, resp.abort_chk);
}

TEST(Wire, CommitMessagesRoundTrip) {
  CommitRequest req;
  req.txn = 7;
  req.readset = {{1, 2}, {3, 4}};
  req.writeset.push_back(CommitWriteEntry{5, 6, Bytes{9, 9}});
  req.writeset.push_back(CommitWriteEntry{10, 11, Bytes{1}, 4});
  CommitRequest got = CommitRequest::decode(encode(req));
  EXPECT_EQ(got.txn, 7u);
  ASSERT_EQ(got.readset.size(), 2u);
  EXPECT_EQ(got.readset[1].id, 3u);
  ASSERT_EQ(got.writeset.size(), 2u);
  EXPECT_EQ(got.writeset[0].data, (Bytes{9, 9}));
  EXPECT_EQ(got.writeset[0].steps, 1u);  // the per-transaction default
  EXPECT_EQ(got.writeset[1].id, 10u);
  EXPECT_EQ(got.writeset[1].base, 11u);
  EXPECT_EQ(got.writeset[1].steps, 4u);

  CommitConfirm confirm;
  confirm.txn = 8;
  confirm.commit = true;
  confirm.writeset = req.writeset;
  const Bytes cwire = encode(confirm);
  const CommitConfirmView cgot = CommitConfirm::decode_view(cwire);
  EXPECT_EQ(cgot.txn, 8u);
  EXPECT_TRUE(cgot.commit);
  ASSERT_EQ(cgot.writeset.size(), 2u);
  auto cit = cgot.writeset.begin();
  EXPECT_EQ(cit->steps, 1u);
  ++cit;
  EXPECT_EQ(cit->steps, 4u);
  EXPECT_EQ(Bytes(cit->data.begin(), cit->data.end()), (Bytes{1}));

  VoteResponse vote{.commit = true, .stale = {}};
  const Bytes vwire = encode(vote);
  const VoteResponseView vgot = VoteResponse::decode_view(vwire);
  EXPECT_TRUE(vgot.commit);
  EXPECT_EQ(vgot.stale.size(), 0u);
  VoteResponse abort_vote{.commit = false, .stale = {3, 10}};
  const Bytes awire = encode(abort_vote);
  const VoteResponseView agot = VoteResponse::decode_view(awire);
  EXPECT_FALSE(agot.commit);
  ASSERT_EQ(agot.stale.size(), 2u);
  EXPECT_EQ(agot.stale[0], 3u);
  EXPECT_EQ(agot.stale[1], 10u);
}

// --- the wire format itself -------------------------------------------------
// Round trips cannot catch a change that alters encode and decode alike, so
// these pin the exact bytes.  Every field value has distinct bytes, so a
// swapped field, a changed width or a byte-order flip all show.

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t byte : b) {
    s.push_back(kDigits[byte >> 4]);
    s.push_back(kDigits[byte & 0xf]);
  }
  return s;
}

TEST(WireFormat, ReadRequestBytes) {
  ReadRequest req;
  req.root = 0x0102030405060708;
  req.mode = NestingMode::kClosed;
  req.object = 0x1112131415161718;
  req.for_write = true;
  req.dataset.push_back(DataSetEntry{0x2122232425262728, 0x3132333435363738,
                                     0x4142434445464748, 0x51525354,
                                     0x6162636465666768});
  req.dataset.push_back(DataSetEntry{0x7172737475767778, 0x8182838485868788,
                                     0x9192939495969798, 0xa1a2a3a4,
                                     0xb1b2b3b4b5b6b7b8});
  EXPECT_EQ(hex(encode(req)),
            "0807060504030201"  // root
            "01"                // mode: closed
            "1817161514131211"  // object
            "01"                // for_write
            "02000000"          // data-set count
            "2827262524232221" "3837363534333231" "4847464544434241"
            "54535251" "6867666564636261"
            "7877767574737271" "8887868584838281" "9897969594939291"
            "a4a3a2a1" "b8b7b6b5b4b3b2b1");
}

TEST(WireFormat, ReadResponseBytes) {
  ReadResponse resp;
  resp.status = ReadStatus::kAbort;
  resp.version = 0x0102030405060708;
  resp.data = Bytes{0xde, 0xad, 0xbe};
  resp.abort_scope = 0x1112131415161718;
  resp.abort_depth = 0x21222324;
  resp.abort_chk = 0x3132333435363738;
  EXPECT_EQ(hex(encode(resp)),
            "02"                // status: abort
            "0807060504030201"  // version
            "03000000" "deadbe" // data
            "1817161514131211"  // abort_scope
            "24232221"          // abort_depth
            "3837363534333231"  // abort_chk
  );
}

TEST(WireFormat, CommitRequestBytes) {
  CommitRequest req;
  req.txn = 0x0102030405060708;
  req.readset.push_back(CommitReadEntry{0x1112131415161718,
                                        0x2122232425262728});
  req.writeset.push_back(CommitWriteEntry{0x3132333435363738,
                                          0x4142434445464748,
                                          Bytes{0xca, 0xfe}, 0x51525354});
  EXPECT_EQ(hex(req.encode()),
            "0807060504030201"  // txn
            "01000000"          // read-set count
            "1817161514131211" "2827262524232221"
            "01000000"          // write-set count
            "3837363534333231"  // id
            "4847464544434241"  // base
            "54535251"          // steps
            "02000000" "cafe"   // data
  );
}

TEST(WireFormat, VoteResponseBytes) {
  VoteResponse vote{.commit = false,
                    .stale = {0x0102030405060708, 0x1112131415161718}};
  EXPECT_EQ(hex(encode(vote)),
            "00"                // commit: no
            "02000000"          // stale count
            "0807060504030201" "1817161514131211");
}

// --- the in-place views ------------------------------------------------------

TEST(Wire, ReadRequestViewReadsTheDataSetInPlace) {
  ReadRequest req;
  req.root = 1;
  req.mode = NestingMode::kCheckpoint;
  req.object = 2;
  req.for_write = true;
  for (std::uint64_t i = 0; i < 3; ++i) {
    req.dataset.push_back(DataSetEntry{10 + i, 20 + i, 30 + i, 1, 40 + i});
  }
  Bytes wire = encode(req);
  const ReadRequestView v = ReadRequest::decode_view(wire);
  EXPECT_EQ(v.root, 1u);
  EXPECT_EQ(v.mode, NestingMode::kCheckpoint);
  EXPECT_EQ(v.object, 2u);
  EXPECT_TRUE(v.for_write);
  ASSERT_EQ(v.dataset.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const DataSetEntry e = v.dataset[i];
    EXPECT_EQ(e.id, req.dataset[i].id);
    EXPECT_EQ(e.version, req.dataset[i].version);
    EXPECT_EQ(e.owner, req.dataset[i].owner);
    EXPECT_EQ(e.owner_depth, req.dataset[i].owner_depth);
    EXPECT_EQ(e.owner_chk, req.dataset[i].owner_chk);
  }
  // The records are read from the buffer itself, not from a copy: the last
  // record's owner_chk is the message's final 8 bytes.
  wire[wire.size() - 8] = 0x7f;
  EXPECT_EQ(v.dataset[2].owner_chk, 0x7fu);
}

TEST(Wire, ReadResponseViewBorrowsTheValue) {
  ReadResponse resp;
  resp.status = ReadStatus::kOk;
  resp.version = 9;
  resp.data = Bytes{1, 2, 3};
  const Bytes wire = encode(resp);
  const ReadResponseView v = ReadResponse::decode_view(wire);
  EXPECT_EQ(v.status, ReadStatus::kOk);
  EXPECT_EQ(v.version, 9u);
  ASSERT_EQ(v.data.size(), 3u);
  EXPECT_EQ(v.data.data(), wire.data() + 1 + 8 + 4) << "borrowed in place";
  EXPECT_EQ(Bytes(v.data.begin(), v.data.end()), resp.data);
}

TEST(WireFuzz, DecodeViewThrowsOnCorruptInput) {
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    ReadRequest req = sample_read_request(rng);
    Bytes wire = encode(req);
    Bytes cut(wire.begin(), wire.begin() + rng.below(wire.size()));
    EXPECT_THROW((void)ReadRequest::decode_view(cut), SerdeError);
    Bytes flipped = wire;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      const ReadRequestView v = ReadRequest::decode_view(flipped);
      // A flip that still parses leaves a record count that fits.
      EXPECT_EQ(v.dataset.size(), req.dataset.size());
    } catch (const SerdeError&) {
      // rejected: fine
    }
    const ReadRequestView v = ReadRequest::decode_view(wire);
    EXPECT_EQ(v.root, req.root);
    EXPECT_EQ(v.mode, req.mode);
    EXPECT_EQ(v.object, req.object);
    EXPECT_EQ(v.for_write, req.for_write);
    ASSERT_EQ(v.dataset.size(), req.dataset.size());
    for (std::size_t i = 0; i < req.dataset.size(); ++i) {
      EXPECT_EQ(v.dataset[i].id, req.dataset[i].id);
      EXPECT_EQ(v.dataset[i].owner_chk, req.dataset[i].owner_chk);
    }
  }
}

// A data-set count that disagrees with the records present is rejected
// before any record is read, by the decoder and by the replica.
TEST(WireFuzz, WrongDataSetCountThrows) {
  Rng rng(6);
  for (int iter = 0; iter < 50; ++iter) {
    ReadRequest req = sample_read_request(rng);
    req.mode = NestingMode::kClosed;
    const Bytes wire = encode(req);
    constexpr std::size_t kCountAt = 8 + 1 + 8 + 1;
    const auto n = static_cast<std::uint32_t>(req.dataset.size());
    for (std::uint32_t bad : {n + 1, n + 2, n == 0 ? 0xffffffffu : n - 1,
                              0xffffffffu, 0x80000000u}) {
      if (bad == n) continue;
      Bytes b = wire;
      std::memcpy(b.data() + kCountAt, &bad, sizeof(bad));
      EXPECT_THROW((void)ReadRequest::decode(b), SerdeError) << bad;
      ServiceRig rig;
      rig.arm(req);
      EXPECT_FALSE(rig.serve(b)) << bad;
      EXPECT_TRUE(rig.untouched(req)) << "count " << bad;
    }
  }
}

// --- enum bytes --------------------------------------------------------------
// A byte past an enum's last value is malformed input, not some value the
// receiver's switch happens to fall into.

TEST(WireFuzz, OutOfRangeNestingModeThrows) {
  ReadRequest req;
  req.mode = NestingMode::kQueued;
  req.dataset.push_back(DataSetEntry{1, 2, 3, 0, 4});
  Bytes wire = encode(req);
  EXPECT_NO_THROW(ReadRequest::decode(wire));
  for (std::uint8_t bad :
       {static_cast<std::uint8_t>(NestingMode::kQueued) + 1, 0xff}) {
    wire[8] = bad;  // mode byte
    EXPECT_THROW(ReadRequest::decode(wire), SerdeError);
    ServiceRig rig;
    rig.arm(req);
    EXPECT_FALSE(rig.serve(wire));
    EXPECT_TRUE(rig.untouched(req));
  }
}

TEST(WireFuzz, OutOfRangeReadStatusThrows) {
  ReadResponse resp;
  resp.status = ReadStatus::kAbort;
  Bytes wire = encode(resp);
  EXPECT_NO_THROW(ReadResponse::decode_view(wire));
  wire[0] = static_cast<std::uint8_t>(ReadStatus::kAbort) + 1;
  EXPECT_THROW(ReadResponse::decode_view(wire), SerdeError);
  wire[0] = 0xff;
  EXPECT_THROW(ReadResponse::decode_view(wire), SerdeError);
}

TEST(WireFuzz, OutOfRangeTxnStatusThrows) {
  TxnStatusResponse resp;
  resp.txn = 3;
  resp.status = TxnStatus::kPrepared;
  Bytes wire = encode(resp);
  EXPECT_NO_THROW(TxnStatusResponse::decode(wire));
  wire[8] = static_cast<std::uint8_t>(TxnStatus::kPrepared) + 1;  // status
  EXPECT_THROW(TxnStatusResponse::decode(wire), SerdeError);
  wire[8] = 0xff;
  EXPECT_THROW(TxnStatusResponse::decode(wire), SerdeError);
}

// Fuzz: truncations of valid messages must throw SerdeError, never crash,
// and the replica must reject them before it reads any data-set record.
TEST(WireFuzz, TruncatedMessagesThrow) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    const ReadRequest req = sample_read_request(rng);
    const Bytes full = encode(req);
    ServiceRig rig;
    rig.arm(req);
    for (std::size_t len = 0; len < full.size(); ++len) {
      Bytes cut(full.begin(), full.begin() + len);
      EXPECT_THROW(ReadRequest::decode(cut), SerdeError)
          << "len " << len << "/" << full.size();
      EXPECT_FALSE(rig.serve(cut)) << "len " << len << "/" << full.size();
    }
    EXPECT_TRUE(rig.untouched(req));
    // Control: the whole request is served, and under Rqv it reads (and
    // sheds the protection of) every record.
    EXPECT_TRUE(rig.serve(full));
    const bool rqv = req.mode == NestingMode::kClosed ||
                     req.mode == NestingMode::kCheckpoint;
    EXPECT_EQ(rig.metrics.lease_breaks, rqv ? req.dataset.size() : 0u);
  }
}

// Fuzz: random byte strings either decode (structurally-valid garbage) or
// throw SerdeError; nothing else.  The replica's kRead service agrees with
// ReadRequest::decode on every one.
TEST(WireFuzz, RandomBytesNeverCrash) {
  Rng rng(3);
  ServiceRig rig;
  int decoded = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)ReadRequest::decode(junk);
      ++decoded;
      EXPECT_TRUE(rig.serve(junk));
    } catch (const SerdeError&) {
      ++rejected;
      EXPECT_FALSE(rig.serve(junk));
    }
    try {
      (void)CommitRequest::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    try {
      (void)ReadResponse::decode_view(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  (void)decoded;  // structurally-valid garbage is acceptable
}

// Fuzz: bit flips in valid messages must not crash the decoder or the
// replica, which accepts exactly what the decoder accepts.
TEST(WireFuzz, BitFlipsNeverCrash) {
  Rng rng(4);
  ServiceRig rig;
  for (int iter = 0; iter < 300; ++iter) {
    Bytes wire = encode(sample_read_request(rng));
    std::size_t pos = rng.below(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    bool decodes = true;
    try {
      (void)ReadRequest::decode(wire);
    } catch (const SerdeError&) {
      decodes = false;  // rejected: fine
    }
    EXPECT_EQ(rig.serve(wire), decodes);
  }
}

// --- commit messages through a live replica --------------------------------

CommitRequest sample_commit_request(Rng& rng) {
  CommitRequest req;
  req.txn = rng.next();
  const int nr = static_cast<int>(rng.below(4));
  for (int i = 0; i < nr; ++i) {
    req.readset.push_back(CommitReadEntry{rng.next(), rng.next()});
  }
  const int nw = static_cast<int>(rng.below(4));
  for (int i = 0; i < nw; ++i) {
    Bytes data(rng.below(6));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    req.writeset.push_back(CommitWriteEntry{
        rng.next(), rng.next(), std::move(data),
        static_cast<std::uint32_t>(1 + rng.below(4))});
  }
  return req;
}

CommitConfirm sample_confirm(Rng& rng) {
  const CommitRequest req = sample_commit_request(rng);
  return CommitConfirm{
      .txn = req.txn, .commit = rng.chance(0.5), .writeset = req.writeset};
}

bool decodes_request(const Bytes& b) {
  try {
    (void)CommitRequest::decode(b);
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

/// Whether CommitConfirm::decode_view accepts `b`, checked against an
/// element-by-element parse of the write-set (decode_vec into owned
/// entries), which must accept exactly the same inputs.
bool decodes_confirm(const Bytes& b) {
  bool reference = true;
  try {
    Reader r(b);
    (void)r.u64();
    (void)r.boolean();
    (void)decode_vec<CommitWriteEntry>(r, [](Reader& r2) {
      CommitWriteEntry e;
      e.id = r2.u64();
      e.base = r2.u64();
      e.steps = r2.u32();
      e.data = r2.blob();
      return e;
    });
    r.expect_done();
  } catch (const SerdeError&) {
    reference = false;
  }
  bool view = true;
  try {
    (void)CommitConfirm::decode_view(b);
  } catch (const SerdeError&) {
    view = false;
  }
  EXPECT_EQ(view, reference);
  return view;
}

TEST(Wire, CommitViewsReadTheSetsInPlace) {
  CommitRequest req;
  req.txn = 7;
  req.readset = {{1, 2}, {3, 4}};
  req.writeset.push_back(CommitWriteEntry{5, 6, Bytes{9, 8}, 1});
  req.writeset.push_back(CommitWriteEntry{10, 11, Bytes{7}, 4});
  const Bytes wire = encode(req);
  const CommitRequestView v = CommitRequest::decode_view(wire);
  EXPECT_EQ(v.txn, 7u);
  ASSERT_EQ(v.readset.size(), 2u);
  EXPECT_EQ(v.readset[1].id, 3u);
  EXPECT_EQ(v.readset[1].version, 4u);
  ASSERT_EQ(v.writeset.size(), 2u);
  auto it = v.writeset.begin();
  EXPECT_EQ(it->id, 5u);
  EXPECT_EQ(it->steps, 1u);
  EXPECT_EQ(it.raw().size(), 8u + 8 + 4 + 4 + 2);
  ++it;
  EXPECT_EQ(it->base, 11u);
  EXPECT_EQ(it->steps, 4u);
  ASSERT_EQ(it->data.size(), 1u);
  EXPECT_EQ(it->data.data(), wire.data() + wire.size() - 1)
      << "the value is borrowed in place";
  ++it;
  EXPECT_TRUE(it == v.writeset.end());
  // The write-set run is the message's tail: count plus entries.
  EXPECT_EQ(v.writeset.bytes().data() + v.writeset.bytes().size(),
            wire.data() + wire.size());
  EXPECT_EQ(v.writeset.bytes().size(), 4u + 2 * (8 + 8 + 4 + 4) + 3);

  const CommitConfirm confirm{.txn = 8, .commit = true, .writeset = req.writeset};
  const Bytes cwire = encode(confirm);
  const CommitConfirmView cv = CommitConfirm::decode_view(cwire);
  EXPECT_EQ(cv.txn, 8u);
  EXPECT_TRUE(cv.commit);
  ASSERT_EQ(cv.writeset.size(), 2u);
  EXPECT_EQ(Bytes(cv.writeset.begin()->data.begin(),
                  cv.writeset.begin()->data.end()),
            (Bytes{9, 8}));
}

// A replica logs a request's write-set as its bytes: the log it writes
// that way is the log a LoggedWrite vector writes.
TEST(Wire, CommitWriteSetIsTheLogWriteLayout) {
  Rng rng(9);
  for (int iter = 0; iter < 50; ++iter) {
    const CommitRequest req = sample_commit_request(rng);
    store::CommitLog verbatim;
    store::CommitLog rebuilt;
    verbatim.append_encoded_prepare(
        req.txn, CommitRequest::decode_view(encode(req)).writeset.bytes(), 3);
    std::vector<store::LoggedWrite> writes;
    for (const CommitWriteEntry& e : req.writeset) {
      writes.push_back(store::LoggedWrite{e.id, e.base, e.steps, e.data});
    }
    rebuilt.append_prepare(req.txn, writes, 3);
    EXPECT_EQ(verbatim.size_bytes(), rebuilt.size_bytes());
    EXPECT_EQ(verbatim.high_version(), rebuilt.high_version());
    store::ReplicaStore a;
    store::ReplicaStore b;
    verbatim.cut(a, 0);
    rebuilt.cut(b, 0);
    verbatim.append_confirm(req.txn, true, 3);
    rebuilt.append_confirm(req.txn, true, 3);
    verbatim.replay_into(a);
    rebuilt.replay_into(b);
    ASSERT_EQ(a.num_objects(), b.num_objects());
    for (const store::StoredObject& o : b.entries()) {
      ASSERT_NE(a.find(o.id), nullptr);
      EXPECT_EQ(a.find(o.id)->version, o.entry.version);
      EXPECT_EQ(a.find(o.id)->data, o.entry.data);
    }
  }
}

TEST(WireFuzz, TruncatedCommitMessagesAreDropped) {
  Rng rng(10);
  for (int iter = 0; iter < 30; ++iter) {
    const CommitRequest req = sample_commit_request(rng);
    const CommitConfirm confirm = sample_confirm(rng);
    const Bytes full = encode(req);
    const Bytes cfull = encode(confirm);
    ServiceRig rig;
    rig.arm(req);
    rig.arm(confirm);
    for (std::size_t len = 0; len < full.size(); ++len) {
      const Bytes cut(full.begin(), full.begin() + len);
      EXPECT_FALSE(decodes_request(cut)) << len;
      EXPECT_FALSE(rig.serve(msg::kCommitRequest, cut)) << len;
      EXPECT_FALSE(rig.serve(msg::kBatchCommitRequest, cut)) << len;
    }
    for (std::size_t len = 0; len < cfull.size(); ++len) {
      const Bytes cut(cfull.begin(), cfull.begin() + len);
      EXPECT_FALSE(decodes_confirm(cut)) << len;
      EXPECT_FALSE(rig.serve(msg::kCommitConfirm, cut)) << len;
      EXPECT_FALSE(rig.serve(msg::kBatchCommitConfirm, cut)) << len;
    }
    // Control: the whole messages are served, and change the replica.
    const auto before = rig.state();
    EXPECT_TRUE(rig.serve(msg::kCommitRequest, full));
    EXPECT_TRUE(rig.serve(msg::kCommitConfirm, cfull));
    EXPECT_FALSE(rig.state() == before);
  }
}

TEST(WireFuzz, WrongCommitCountsAreDropped) {
  Rng rng(11);
  for (int iter = 0; iter < 30; ++iter) {
    const CommitRequest req = sample_commit_request(rng);
    const CommitConfirm confirm = sample_confirm(rng);
    const auto nr = static_cast<std::uint32_t>(req.readset.size());
    const auto nw = static_cast<std::uint32_t>(req.writeset.size());
    const auto nc = static_cast<std::uint32_t>(confirm.writeset.size());
    struct Case {
      net::MsgKind kind;
      Bytes wire;
      std::size_t count_at;
      std::uint32_t n;
    };
    const Case cases[] = {
        {msg::kCommitRequest, encode(req), 8, nr},
        {msg::kCommitRequest, encode(req), 8 + 4 + 16 * std::size_t{nr}, nw},
        {msg::kCommitConfirm, encode(confirm), 8 + 1, nc}};
    for (const Case& c : cases) {
      ServiceRig rig;
      rig.arm(req);
      rig.arm(confirm);
      for (std::uint32_t bad : {c.n + 1, c.n + 2, c.n == 0 ? 0xffffffffu : c.n - 1,
                                0xffffffffu, 0x80000000u}) {
        if (bad == c.n) continue;
        Bytes b = c.wire;
        std::memcpy(b.data() + c.count_at, &bad, sizeof(bad));
        const bool decodes = c.kind == msg::kCommitRequest
                                 ? decodes_request(b)
                                 : decodes_confirm(b);
        EXPECT_FALSE(decodes) << "count " << bad;
        EXPECT_EQ(rig.serve(c.kind, b), decodes) << "count " << bad;
      }
    }
  }
}

// Random bytes and bit flips: each commit service accepts exactly what its
// parser accepts, and a rejected message changes nothing.
TEST(WireFuzz, CommitServicesAcceptExactlyWhatDecodeAccepts) {
  Rng rng(12);
  int rejected = 0;
  ServiceRig rig;
  for (int iter = 0; iter < 1000; ++iter) {
    Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    const bool req_ok = decodes_request(junk);
    const bool confirm_ok = decodes_confirm(junk);
    rejected += (req_ok ? 0 : 1) + (confirm_ok ? 0 : 1);
    EXPECT_EQ(rig.serve(msg::kCommitRequest, junk), req_ok);
    EXPECT_EQ(rig.serve(msg::kCommitConfirm, junk), confirm_ok);
  }
  EXPECT_GT(rejected, 0);
  for (int iter = 0; iter < 300; ++iter) {
    const CommitRequest req = sample_commit_request(rng);
    const CommitConfirm confirm = sample_confirm(rng);
    ServiceRig armed;
    armed.arm(req);
    armed.arm(confirm);
    Bytes wire = encode(req);
    wire[rng.below(wire.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_EQ(armed.serve(msg::kCommitRequest, wire), decodes_request(wire));
    Bytes cwire = encode(confirm);
    cwire[rng.below(cwire.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_EQ(armed.serve(msg::kCommitConfirm, cwire), decodes_confirm(cwire));
  }
}

// A coordinator reads every vote in place (VoteResponse::decode_view).
// The view must accept exactly the replies the element-by-element parse of
// the stale list accepts (decode_vec), and read the same ids.
bool decodes_vote_by_element(const Bytes& b, std::vector<ObjectId>* stale) {
  try {
    Reader r(b);
    (void)r.boolean();
    *stale = decode_vec<ObjectId>(r, [](Reader& r2) { return r2.u64(); });
    r.expect_done();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

TEST(WireFuzz, VoteViewAcceptsExactlyWhatDecodeAccepts) {
  Rng rng(14);
  int accepted = 0;
  int rejected = 0;
  const auto check = [&](const Bytes& wire) {
    std::vector<ObjectId> expect;
    const bool ok = decodes_vote_by_element(wire, &expect);
    bool view_ok = true;
    VoteResponseView v;
    try {
      v = VoteResponse::decode_view(wire);
    } catch (const SerdeError&) {
      view_ok = false;
    }
    EXPECT_EQ(view_ok, ok) << hex(wire);
    if (ok && view_ok) {
      ASSERT_EQ(v.stale.size(), expect.size());
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(v.stale[i], expect[i]);
      }
      EXPECT_EQ(v.commit, wire[0] != 0);
    }
    ++(ok ? accepted : rejected);
  };
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.below(48), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    check(junk);
  }
  for (int iter = 0; iter < 500; ++iter) {
    VoteResponse vote;
    vote.commit = rng.chance(0.5);
    for (std::uint64_t i = rng.below(5); i > 0; --i) {
      vote.stale.push_back(rng.next());
    }
    const Bytes wire = encode(vote);
    check(wire);
    Bytes flipped = wire;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    check(flipped);
    check(Bytes(wire.begin(),
                wire.begin() + static_cast<std::ptrdiff_t>(
                                   rng.below(wire.size()))));
    for (const std::uint32_t count :
         {static_cast<std::uint32_t>(vote.stale.size() + 1),
          static_cast<std::uint32_t>(vote.stale.size() - 1), 0xffffffffu}) {
      Bytes recounted = wire;
      std::memcpy(recounted.data() + 1, &count, sizeof(count));
      check(recounted);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace qrdtm::core
