// kMultiOp: several data-path requests in one framed round trip.
//
// The paper's §4 lookup probes l (=5) buckets per query; on a small
// ring several of those buckets land on the same peer, and without
// batching each one pays its own request/response frame and syscall
// pair. A kMultiOp body carries every sub-request destined for one
// peer; the response carries one (status, body) pair per sub-request,
// in order, so the caller can map results back to the probes that
// produced them. A sub-request failing — including a wrong-owner
// redirect or a load shed — fails only its own slot, never the batch.
//
// Only the stateless data-path types may ride in a batch (see
// IsBatchableMsgType): membership messages mutate single-threaded
// daemon state and are dispatched inline by the poll loop, and nesting
// kMultiOp would let a hostile peer amplify one frame into unbounded
// recursion. The decoder enforces both.
#ifndef P2PRANGE_RPC_MULTI_OP_H_
#define P2PRANGE_RPC_MULTI_OP_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rpc/message.h"

namespace p2prange {
namespace rpc {

/// \brief One sub-request of a batch: the same (type, body) pair that
/// would otherwise travel as its own envelope.
struct MultiOp {
  MsgType type = MsgType::kProbeBucket;
  std::string body;
};

struct MultiOpRequest {
  std::vector<MultiOp> ops;
};

/// \brief One sub-request's outcome. On kOk `body` is the handler's
/// response payload; on any other status it is the error message.
struct MultiOpResult {
  StatusCode status = StatusCode::kOk;
  std::string body;
};

struct MultiOpResponse {
  std::vector<MultiOpResult> results;
};

/// Most sub-requests one batch may carry. The client's first wave
/// sends at most l (=5); the cap only bounds hostile counts before
/// any allocation.
inline constexpr size_t kMaxMultiOps = 256;

/// True iff `t` may appear inside a kMultiOp batch: the stateless
/// data-path types a worker thread can serve without touching
/// membership, and never kMultiOp itself.
bool IsBatchableMsgType(MsgType t);

/// \brief The daemon's dispatch rule: true iff a request may block the
/// poll loop and so belongs on the worker pool — its cost grows with
/// its payload or it touches disk. That is kFetchPartition,
/// kStorePartition, kStoreDescriptor (WAL + snapshot rewrite), and a
/// kMultiOp holding one of them. Everything else (pings, probes,
/// membership, metrics, handoff, pull) is a short in-memory step the
/// poll thread answers inline, skipping the queue/doorbell round trip.
/// A batch is classified by its sub-op type bytes alone: no body is
/// copied, nothing is decoded. A malformed batch is inline, where its
/// decode fails as it would anywhere.
bool IsPooledRequest(MsgType type, std::string_view body);

std::string EncodeMultiOpRequest(const MultiOpRequest& req);
Result<MultiOpRequest> DecodeMultiOpRequest(std::string_view body);

std::string EncodeMultiOpResponse(const MultiOpResponse& resp);
Result<MultiOpResponse> DecodeMultiOpResponse(std::string_view body);

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_MULTI_OP_H_
