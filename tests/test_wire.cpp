// Wire-format tests for the QR protocol messages: round trips, and fuzzing
// the decoders with random/truncated bytes (a replica must reject corrupt
// input with SerdeError, never crash or accept garbage silently).
#include <gtest/gtest.h>

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
