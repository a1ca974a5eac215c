// Wire-format tests for the QR protocol messages: exact bytes, round trips,
// the replica's reused read decode, and fuzzing the decoders with random/
// truncated bytes (a replica must reject corrupt input with SerdeError,
// never crash or accept garbage silently).
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/wire.h"

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

TEST(Wire, ReadRequestRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 100; ++iter) {
    ReadRequest req = sample_read_request(rng);
    ReadRequest got = ReadRequest::decode(req.encode());
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
  ReadResponse got = ReadResponse::decode(resp.encode());
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.version, resp.version);
  EXPECT_EQ(got.data, resp.data);
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
  CommitRequest got = CommitRequest::decode(req.encode());
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
  CommitConfirm cgot = CommitConfirm::decode(confirm.encode());
  EXPECT_EQ(cgot.txn, 8u);
  EXPECT_TRUE(cgot.commit);
  ASSERT_EQ(cgot.writeset.size(), 2u);
  EXPECT_EQ(cgot.writeset[0].steps, 1u);
  EXPECT_EQ(cgot.writeset[1].steps, 4u);
  EXPECT_EQ(cgot.writeset[1].data, (Bytes{1}));

  VoteResponse vote{.commit = true, .stale = {}};
  VoteResponse vgot = VoteResponse::decode(vote.encode());
  EXPECT_TRUE(vgot.commit);
  EXPECT_TRUE(vgot.stale.empty());
  VoteResponse abort_vote{.commit = false, .stale = {3, 10}};
  VoteResponse agot = VoteResponse::decode(abort_vote.encode());
  EXPECT_FALSE(agot.commit);
  EXPECT_EQ(agot.stale, (std::vector<ObjectId>{3, 10}));
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
  EXPECT_EQ(hex(req.encode()),
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
  EXPECT_EQ(hex(resp.encode()),
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
  EXPECT_EQ(hex(vote.encode()),
            "00"                // commit: no
            "02000000"          // stale count
            "0807060504030201" "1817161514131211");
}

// --- decode_into: the replica's reused read decode ----------------------------

TEST(Wire, DecodeIntoReplacesEveryFieldAndReusesTheDataSet) {
  ReadRequest big;
  big.root = 1;
  big.mode = NestingMode::kCheckpoint;
  big.object = 2;
  big.for_write = true;
  for (std::uint64_t i = 0; i < 3; ++i) {
    big.dataset.push_back(DataSetEntry{10 + i, 20 + i, 30 + i, 1, 40 + i});
  }
  ReadRequest small;
  small.root = 5;
  small.mode = NestingMode::kClosed;
  small.object = 6;
  small.dataset.push_back(DataSetEntry{7, 8, 9, 0, 11});

  ReadRequest into;
  into.decode_into(big.encode());
  ASSERT_EQ(into.dataset.size(), 3u);
  const DataSetEntry* storage = into.dataset.data();

  into.decode_into(small.encode());
  EXPECT_EQ(into.root, 5u);
  EXPECT_EQ(into.mode, NestingMode::kClosed);
  EXPECT_EQ(into.object, 6u);
  EXPECT_FALSE(into.for_write);
  ASSERT_EQ(into.dataset.size(), 1u) << "no entry of the longer request left";
  EXPECT_EQ(into.dataset[0].id, 7u);
  EXPECT_EQ(into.dataset[0].version, 8u);
  EXPECT_EQ(into.dataset[0].owner, 9u);
  EXPECT_EQ(into.dataset[0].owner_depth, 0u);
  EXPECT_EQ(into.dataset[0].owner_chk, 11u);
  EXPECT_EQ(into.dataset.data(), storage) << "the data-set storage is reused";
}

TEST(WireFuzz, DecodeIntoThrowsOnCorruptInputAndRecovers) {
  Rng rng(5);
  ReadRequest into;
  for (int iter = 0; iter < 200; ++iter) {
    ReadRequest req = sample_read_request(rng);
    Bytes wire = req.encode();
    Bytes cut(wire.begin(), wire.begin() + rng.below(wire.size()));
    EXPECT_THROW(into.decode_into(cut), SerdeError);
    Bytes flipped = wire;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      into.decode_into(flipped);
    } catch (const SerdeError&) {
      // rejected: fine
    }
    // Whatever the failed decodes left behind, the next valid one is exact.
    into.decode_into(wire);
    EXPECT_EQ(into.root, req.root);
    EXPECT_EQ(into.mode, req.mode);
    EXPECT_EQ(into.object, req.object);
    EXPECT_EQ(into.for_write, req.for_write);
    ASSERT_EQ(into.dataset.size(), req.dataset.size());
    for (std::size_t i = 0; i < req.dataset.size(); ++i) {
      EXPECT_EQ(into.dataset[i].id, req.dataset[i].id);
      EXPECT_EQ(into.dataset[i].owner_chk, req.dataset[i].owner_chk);
    }
  }
}

// --- enum bytes --------------------------------------------------------------
// A byte past an enum's last value is malformed input, not some value the
// receiver's switch happens to fall into.

TEST(WireFuzz, OutOfRangeNestingModeThrows) {
  ReadRequest req;
  req.mode = NestingMode::kQueued;
  Bytes wire = req.encode();
  EXPECT_NO_THROW(ReadRequest::decode(wire));
  wire[8] = static_cast<std::uint8_t>(NestingMode::kQueued) + 1;  // mode byte
  EXPECT_THROW(ReadRequest::decode(wire), SerdeError);
  wire[8] = 0xff;
  EXPECT_THROW(ReadRequest::decode(wire), SerdeError);
}

TEST(WireFuzz, OutOfRangeReadStatusThrows) {
  ReadResponse resp;
  resp.status = ReadStatus::kAbort;
  Bytes wire = resp.encode();
  EXPECT_NO_THROW(ReadResponse::decode(wire));
  wire[0] = static_cast<std::uint8_t>(ReadStatus::kAbort) + 1;
  EXPECT_THROW(ReadResponse::decode(wire), SerdeError);
  wire[0] = 0xff;
  EXPECT_THROW(ReadResponse::decode(wire), SerdeError);
}

TEST(WireFuzz, OutOfRangeTxnStatusThrows) {
  TxnStatusResponse resp;
  resp.txn = 3;
  resp.status = TxnStatus::kPrepared;
  Bytes wire = resp.encode();
  EXPECT_NO_THROW(TxnStatusResponse::decode(wire));
  wire[8] = static_cast<std::uint8_t>(TxnStatus::kPrepared) + 1;  // status
  EXPECT_THROW(TxnStatusResponse::decode(wire), SerdeError);
  wire[8] = 0xff;
  EXPECT_THROW(TxnStatusResponse::decode(wire), SerdeError);
}

// Fuzz: truncations of valid messages must throw SerdeError, never crash.
TEST(WireFuzz, TruncatedMessagesThrow) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    Bytes full = sample_read_request(rng).encode();
    for (std::size_t len = 0; len < full.size(); ++len) {
      Bytes cut(full.begin(), full.begin() + len);
      EXPECT_THROW(ReadRequest::decode(cut), SerdeError)
          << "len " << len << "/" << full.size();
    }
  }
}

// Fuzz: random byte strings either decode (structurally-valid garbage) or
// throw SerdeError; nothing else.
TEST(WireFuzz, RandomBytesNeverCrash) {
  Rng rng(3);
  int decoded = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)ReadRequest::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    try {
      (void)CommitRequest::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    try {
      (void)ReadResponse::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  (void)decoded;  // structurally-valid garbage is acceptable
}

// Fuzz: bit flips in valid messages must not crash the decoder.
TEST(WireFuzz, BitFlipsNeverCrash) {
  Rng rng(4);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes wire = sample_read_request(rng).encode();
    std::size_t pos = rng.below(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)ReadRequest::decode(wire);
    } catch (const SerdeError&) {
      // rejected: fine
    }
  }
}

}  // namespace
}  // namespace qrdtm::core
