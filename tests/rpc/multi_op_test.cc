// The kMultiOp batch codec: round trips, per-slot statuses, and the
// hostile-decode discipline every wire path carries — counts are
// guarded before allocation, sub-op types must be batchable (never
// kMultiOp itself, never a membership message), trailing bytes are an
// error, not padding. Also the daemon's dispatch rule
// (IsPooledRequest), which classifies a batch by its sub-op types.
#include "rpc/multi_op.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "wire/serde.h"

namespace p2prange {
namespace rpc {
namespace {

TEST(MultiOpTest, RequestRoundTripsWithOrderPreserved) {
  MultiOpRequest req;
  req.ops.push_back(MultiOp{MsgType::kProbeBucket, "probe-one"});
  req.ops.push_back(MultiOp{MsgType::kPing, ""});
  req.ops.push_back(MultiOp{MsgType::kStoreDescriptor, "store-body"});

  auto decoded = DecodeMultiOpRequest(EncodeMultiOpRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->ops.size(), 3u);
  EXPECT_EQ(decoded->ops[0].type, MsgType::kProbeBucket);
  EXPECT_EQ(decoded->ops[0].body, "probe-one");
  EXPECT_EQ(decoded->ops[1].type, MsgType::kPing);
  EXPECT_TRUE(decoded->ops[1].body.empty());
  EXPECT_EQ(decoded->ops[2].type, MsgType::kStoreDescriptor);
  EXPECT_EQ(decoded->ops[2].body, "store-body");
}

TEST(MultiOpTest, ResponseRoundTripsPerSlotStatuses) {
  MultiOpResponse resp;
  resp.results.push_back(MultiOpResult{StatusCode::kOk, "found"});
  resp.results.push_back(
      MultiOpResult{StatusCode::kOutOfRange, "wrong owner 127.0.0.1:9"});
  resp.results.push_back(
      MultiOpResult{StatusCode::kResourceExhausted, "work queue full"});

  auto decoded = DecodeMultiOpResponse(EncodeMultiOpResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->results.size(), 3u);
  EXPECT_EQ(decoded->results[0].status, StatusCode::kOk);
  EXPECT_EQ(decoded->results[0].body, "found");
  EXPECT_EQ(decoded->results[1].status, StatusCode::kOutOfRange);
  EXPECT_EQ(decoded->results[2].status, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->results[2].body, "work queue full");
}

TEST(MultiOpTest, OnlyDataPathTypesAreBatchable) {
  EXPECT_TRUE(IsBatchableMsgType(MsgType::kPing));
  EXPECT_TRUE(IsBatchableMsgType(MsgType::kStoreDescriptor));
  EXPECT_TRUE(IsBatchableMsgType(MsgType::kProbeBucket));
  EXPECT_TRUE(IsBatchableMsgType(MsgType::kFetchPartition));
  // Membership mutates poll-thread state; a nested batch would let one
  // frame amplify into recursion. Neither may ride in a batch.
  EXPECT_FALSE(IsBatchableMsgType(MsgType::kJoin));
  EXPECT_FALSE(IsBatchableMsgType(MsgType::kGossip));
  EXPECT_FALSE(IsBatchableMsgType(MsgType::kHandoff));
  EXPECT_FALSE(IsBatchableMsgType(MsgType::kMultiOp));
}

std::string Batch(std::initializer_list<MsgType> types) {
  MultiOpRequest req;
  for (const MsgType t : types) req.ops.push_back(MultiOp{t, "body bytes"});
  return EncodeMultiOpRequest(req);
}

TEST(MultiOpTest, PooledRequestsAreThoseThatMayBlockThePollLoop) {
  // Payload- or disk-bound: the worker pool's.
  EXPECT_TRUE(IsPooledRequest(MsgType::kFetchPartition, ""));
  EXPECT_TRUE(IsPooledRequest(MsgType::kStorePartition, ""));
  EXPECT_TRUE(IsPooledRequest(MsgType::kStoreDescriptor, ""));
  // A short in-memory step: answered on the poll thread.
  for (const MsgType t :
       {MsgType::kPing, MsgType::kProbeBucket, MsgType::kMetrics,
        MsgType::kJoin, MsgType::kLeave, MsgType::kNotify,
        MsgType::kGetNeighbors, MsgType::kGossip, MsgType::kPullBuckets,
        MsgType::kHandoff}) {
    EXPECT_FALSE(IsPooledRequest(t, "")) << MsgTypeName(t);
  }

  // A batch is classified by its sub-ops: one pooled sub-op anywhere
  // sends the whole batch to the pool.
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp,
                               Batch({MsgType::kProbeBucket,
                                      MsgType::kProbeBucket,
                                      MsgType::kProbeBucket})));
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp,
                               Batch({MsgType::kPing, MsgType::kPing})));
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp,
                               Batch({MsgType::kPing, MsgType::kProbeBucket})));
  EXPECT_TRUE(IsPooledRequest(MsgType::kMultiOp,
                              Batch({MsgType::kProbeBucket,
                                     MsgType::kFetchPartition})));
  EXPECT_TRUE(IsPooledRequest(MsgType::kMultiOp,
                              Batch({MsgType::kStoreDescriptor,
                                     MsgType::kProbeBucket})));
  EXPECT_TRUE(IsPooledRequest(MsgType::kMultiOp,
                              Batch({MsgType::kPing, MsgType::kPing,
                                     MsgType::kStorePartition})));
}

TEST(MultiOpTest, MalformedBatchIsServedInline) {
  // A batch that cannot decode stays on the poll thread, where the
  // decode fails — even when its readable prefix names a pooled op.
  const std::string fetch_batch =
      Batch({MsgType::kFetchPartition, MsgType::kProbeBucket});
  ASSERT_TRUE(IsPooledRequest(MsgType::kMultiOp, fetch_batch));
  for (size_t cut = 0; cut < fetch_batch.size(); ++cut) {
    EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp,
                                 std::string_view(fetch_batch).substr(0, cut)))
        << "truncation at " << cut;
  }
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp, fetch_batch + "x"));
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp, "\xFF\xFF garbage"));

  wire::Encoder empty;
  empty.PutVarint(0);
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp, empty.Take()));

  wire::Encoder unknown;
  unknown.PutVarint(2);
  unknown.PutU8(static_cast<uint8_t>(MsgType::kFetchPartition));
  unknown.PutString("");
  unknown.PutU8(99);
  unknown.PutString("");
  EXPECT_FALSE(IsPooledRequest(MsgType::kMultiOp, unknown.Take()));
}

TEST(MultiOpTest, DecodeRejectsEmptyBatch) {
  wire::Encoder enc;
  enc.PutVarint(0);
  EXPECT_TRUE(DecodeMultiOpRequest(enc.Take()).status().IsInvalidArgument());
}

TEST(MultiOpTest, DecodeRejectsNonBatchableSubOp) {
  wire::Encoder enc;
  enc.PutVarint(1);
  enc.PutU8(static_cast<uint8_t>(MsgType::kGossip));
  enc.PutString("entries");
  EXPECT_TRUE(DecodeMultiOpRequest(enc.Take()).status().IsInvalidArgument());
}

TEST(MultiOpTest, DecodeRejectsNestedMultiOp) {
  wire::Encoder enc;
  enc.PutVarint(1);
  enc.PutU8(static_cast<uint8_t>(MsgType::kMultiOp));
  enc.PutString("a batch in a batch");
  EXPECT_TRUE(DecodeMultiOpRequest(enc.Take()).status().IsInvalidArgument());
}

TEST(MultiOpTest, DecodeRejectsUnknownSubOpType) {
  wire::Encoder enc;
  enc.PutVarint(1);
  enc.PutU8(99);
  enc.PutString("");
  EXPECT_TRUE(DecodeMultiOpRequest(enc.Take()).status().IsInvalidArgument());
}

TEST(MultiOpTest, HostileCountIsRejectedBeforeAllocation) {
  // Claims 10 million sub-ops in a 3-byte body: the guarded count must
  // refuse before reserving anything.
  wire::Encoder enc;
  enc.PutVarint(10'000'000);
  auto decoded = DecodeMultiOpRequest(enc.Take());
  EXPECT_FALSE(decoded.ok());
}

TEST(MultiOpTest, BatchAboveTheCapIsRejected) {
  MultiOpRequest req;
  for (size_t i = 0; i < kMaxMultiOps + 1; ++i) {
    req.ops.push_back(MultiOp{MsgType::kPing, "x"});
  }
  EXPECT_FALSE(DecodeMultiOpRequest(EncodeMultiOpRequest(req)).ok());
}

TEST(MultiOpTest, TrailingBytesAreAnError) {
  MultiOpRequest req;
  req.ops.push_back(MultiOp{MsgType::kPing, "p"});
  std::string bytes = EncodeMultiOpRequest(req);
  bytes.push_back('\0');
  EXPECT_TRUE(DecodeMultiOpRequest(bytes).status().IsInvalidArgument());

  MultiOpResponse resp;
  resp.results.push_back(MultiOpResult{StatusCode::kOk, "r"});
  std::string rbytes = EncodeMultiOpResponse(resp);
  rbytes.push_back('\0');
  EXPECT_TRUE(DecodeMultiOpResponse(rbytes).status().IsInvalidArgument());
}

TEST(MultiOpTest, ResponseWithUnknownStatusByteIsRejected) {
  wire::Encoder enc;
  enc.PutVarint(1);
  enc.PutU8(200);  // far beyond the last StatusCode
  enc.PutString("");
  EXPECT_TRUE(DecodeMultiOpResponse(enc.Take()).status().IsInvalidArgument());
}

TEST(MultiOpTest, TruncatedBodyNeverCrashes) {
  MultiOpRequest req;
  req.ops.push_back(MultiOp{MsgType::kProbeBucket, "a longer body here"});
  req.ops.push_back(MultiOp{MsgType::kPing, "pong"});
  const std::string bytes = EncodeMultiOpRequest(req);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = DecodeMultiOpRequest(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut << " decoded";
  }
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
