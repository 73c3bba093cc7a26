#include "rpc/multi_op.h"

#include "wire/serde.h"

namespace p2prange {
namespace rpc {

bool IsBatchableMsgType(MsgType t) {
  switch (t) {
    case MsgType::kPing:
    case MsgType::kStoreDescriptor:
    case MsgType::kProbeBucket:
    case MsgType::kFetchPartition:
      return true;
    default:
      return false;
  }
}

namespace {

bool IsPooledMsgType(MsgType t) {
  switch (t) {
    case MsgType::kStoreDescriptor:
    case MsgType::kStorePartition:
    case MsgType::kFetchPartition:
      return true;
    default:
      return false;
  }
}

Status NonBatchable(uint8_t raw_type) {
  return Status::InvalidArgument("non-batchable sub-op type " +
                                 std::to_string(raw_type));
}

/// Walks a kMultiOp request body, handing each sub-op's type and a
/// view of its body to `visit` (which may veto with an error). Fails
/// on any framing defect: a bad count, an unknown type byte, a
/// truncated body, trailing bytes.
template <typename Visit>
Status WalkMultiOpRequest(std::string_view body, Visit&& visit) {
  wire::Decoder dec(body);
  // Each sub-op is at least a type byte plus a length varint.
  ASSIGN_OR_RETURN(const size_t n, dec.GuardedCount(2, kMaxMultiOps));
  if (n == 0) return Status::InvalidArgument("empty multi-op batch");
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(const uint8_t raw_type, dec.U8());
    if (!IsKnownMsgType(raw_type)) return NonBatchable(raw_type);
    ASSIGN_OR_RETURN(const std::string_view op_body, dec.StringView());
    RETURN_NOT_OK(visit(static_cast<MsgType>(raw_type), op_body));
  }
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing batch bytes");
  return Status::OK();
}

}  // namespace

bool IsPooledRequest(MsgType type, std::string_view body) {
  if (type != MsgType::kMultiOp) return IsPooledMsgType(type);
  bool pooled = false;
  const Status walked =
      WalkMultiOpRequest(body, [&pooled](MsgType t, std::string_view) {
        pooled = pooled || IsPooledMsgType(t);
        return Status::OK();
      });
  return walked.ok() && pooled;
}

std::string EncodeMultiOpRequest(const MultiOpRequest& req) {
  wire::Encoder enc;
  enc.PutVarint(req.ops.size());
  for (const MultiOp& op : req.ops) {
    enc.PutU8(static_cast<uint8_t>(op.type));
    enc.PutString(op.body);
  }
  return enc.Take();
}

Result<MultiOpRequest> DecodeMultiOpRequest(std::string_view body) {
  MultiOpRequest req;
  RETURN_NOT_OK(
      WalkMultiOpRequest(body, [&req](MsgType t, std::string_view op_body) {
        if (!IsBatchableMsgType(t)) {
          return NonBatchable(static_cast<uint8_t>(t));
        }
        req.ops.push_back(MultiOp{t, std::string(op_body)});
        return Status::OK();
      }));
  return req;
}

std::string EncodeMultiOpResponse(const MultiOpResponse& resp) {
  wire::Encoder enc;
  enc.PutVarint(resp.results.size());
  for (const MultiOpResult& r : resp.results) {
    enc.PutU8(static_cast<uint8_t>(r.status));
    enc.PutString(r.body);
  }
  return enc.Take();
}

Result<MultiOpResponse> DecodeMultiOpResponse(std::string_view body) {
  wire::Decoder dec(body);
  ASSIGN_OR_RETURN(const size_t n, dec.GuardedCount(2, kMaxMultiOps));
  MultiOpResponse resp;
  resp.results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(const uint8_t raw_status, dec.U8());
    if (raw_status > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
      return Status::InvalidArgument("unknown sub-op status " +
                                     std::to_string(raw_status));
    }
    MultiOpResult r;
    r.status = static_cast<StatusCode>(raw_status);
    ASSIGN_OR_RETURN(r.body, dec.String());
    resp.results.push_back(std::move(r));
  }
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing batch bytes");
  return resp;
}

}  // namespace rpc
}  // namespace p2prange
