// The worker-pool daemon's dispatch, in process: a TcpServer whose
// async intercept hands IsPooledRequest() requests to an Executor and
// serves the rest inline, in front of a NodeService — the wiring of
// tools/p2prange_node.cc with --workers >= 1. Two claims:
//
//  1. Probes and pings never wait for a worker: with every worker
//     parked in a slow job they are still answered, while a pooled
//     fetch queues behind the parked jobs until a worker frees up.
//  2. The redirect snapshot the pooled daemon consults follows a
//     membership view change within one loop iteration (one
//     PublishRedirectRing call after the change), and only then.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/memory.h"
#include "rel/relation.h"
#include "rpc/executor.h"
#include "rpc/membership.h"
#include "rpc/multi_op.h"
#include "rpc/node_service.h"
#include "rpc/ring_view.h"
#include "rpc/tcp_transport.h"

namespace p2prange {
namespace rpc {
namespace {

const Transport::CallOptions kPatient{.deadline_ms = 5000.0};

NetAddress Loopback(uint16_t port) {
  NetAddress a;
  a.host = 0x7F000001;  // 127.0.0.1
  a.port = port;
  return a;
}

/// A NodeService behind a TcpServer with a worker pool, polled on a
/// background thread exactly as the daemon's loop does: PollOnce, then
/// write back every finished job.
class PooledNode {
 public:
  static std::unique_ptr<PooledNode> Start(int workers) {
    auto node = WrapUnique(new PooledNode());
    auto exec = Executor::Make({.workers = workers, .queue_depth = 16});
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    if (!exec.ok()) return nullptr;
    node->executor_ = std::move(*exec);
    PooledNode* self = node.get();
    auto server = TcpServer::Listen(
        Loopback(0), [self](MsgType type, std::string_view body) {
          return self->service_->Handle(type, body);
        });
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return nullptr;
    node->server_ = std::make_unique<TcpServer>(std::move(*server));
    auto service =
        NodeService::Make(node->server_->address(), NodeServiceOptions{});
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    if (!service.ok()) return nullptr;
    node->service_ = std::move(*service);

    node->server_->AddWakeFd(node->executor_->doorbell_fd());
    node->server_->set_async_dispatch(
        [self](uint64_t conn_id, const RpcEnvelope& env) {
          const MsgType type = env.header.type;
          if (!IsPooledRequest(type, env.body)) return false;
          RpcHeader rh;
          rh.call_id = env.header.call_id;
          rh.type = type;
          rh.is_response = true;
          const bool admitted = self->executor_->TrySubmit(
              conn_id, [self, type, body = env.body, rh]() {
                auto response = self->service_->Handle(type, body);
                RpcHeader h = rh;
                if (response.ok()) return EncodeEnvelope(h, *response);
                h.status = response.status().code();
                return EncodeEnvelope(h, response.status().message());
              });
          if (!admitted) {
            RpcHeader h = rh;
            h.status = StatusCode::kResourceExhausted;
            self->server_->Respond(conn_id,
                                   EncodeEnvelope(h, "work queue full"));
          }
          return true;
        });
    node->thread_ = std::thread([self] {
      while (!self->stop_) {
        if (!self->server_->PollOnce(/*timeout_ms=*/20).ok()) break;
        for (auto& done : self->executor_->DrainCompletions()) {
          self->server_->Respond(done.tag, done.payload);
        }
      }
    });
    return node;
  }

  ~PooledNode() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (executor_ != nullptr) executor_->Shutdown();
  }

  const NetAddress& address() const { return service_->self(); }
  Executor& executor() { return *executor_; }
  NodeService& service() { return *service_; }

 private:
  PooledNode() = default;

  std::unique_ptr<Executor> executor_;
  std::unique_ptr<TcpServer> server_;
  std::unique_ptr<NodeService> service_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(PooledDispatchTest, ProbesAndPingsAnsweredWhileEveryWorkerIsParked) {
  constexpr int kWorkers = 2;
  auto node = PooledNode::Start(kWorkers);
  ASSERT_NE(node, nullptr);

  // Seed one descriptor and one partition over the wire (both pooled,
  // both answered while the workers are still free).
  TcpTransport seeder;
  StoreDescriptorRequest store;
  store.bucket = 7;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(100, 200)},
                          node->address()};
  ASSERT_TRUE(seeder
                  .Call(NetAddress{}, node->address(),
                        MsgType::kStoreDescriptor,
                        EncodeStoreDescriptorRequest(store))
                  .ok());
  StorePartitionRequest partition;
  partition.key = store.descriptor.key;
  partition.tuples = Relation("T", Schema({Field{"a", ValueType::kInt64,
                                                 AttributeDomain{0, 1000}}}));
  ASSERT_TRUE(partition.tuples.Append({Value(int64_t{150})}).ok());
  ASSERT_TRUE(seeder
                  .Call(NetAddress{}, node->address(),
                        MsgType::kStorePartition,
                        EncodeStorePartitionRequest(partition))
                  .ok());
  const uint64_t seeded = node->executor().snapshot().submitted;
  EXPECT_EQ(seeded, 2u);

  // Park every worker in a job that only the test releases. The
  // promise dies before `node` does, so a failed assertion below still
  // unparks the workers before the pool's shutdown joins them.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto parked = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_TRUE(node->executor().TrySubmit(/*tag=*/0, [released, parked] {
      ++*parked;
      released.wait();
      return std::string();
    }));
  }
  const auto park_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (*parked < kWorkers &&
         std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(*parked, kWorkers);

  // A pooled fetch now has to wait for a worker.
  TcpTransport bulk;
  auto fetch = bulk.StartCall(node->address(), MsgType::kFetchPartition,
                              EncodeFetchPartitionRequest(partition.key));
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  const uint64_t queued = seeded + kWorkers + 1;
  const auto queue_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (node->executor().snapshot().submitted < queued &&
         std::chrono::steady_clock::now() < queue_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(node->executor().snapshot().submitted, queued);

  // Pings, probes and a probe-only batch on another connection are
  // answered by the poll thread meanwhile.
  TcpTransport client;
  auto pong = client.Call(NetAddress{}, node->address(), MsgType::kPing,
                          "still here", kPatient);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->body, "still here");

  ProbeBucketRequest probe;
  probe.bucket = 7;
  probe.query = PartitionKey{"T", "a", Range(110, 190)};
  auto hit = client.Call(NetAddress{}, node->address(), MsgType::kProbeBucket,
                         EncodeProbeBucketRequest(probe),
                         kPatient);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  auto candidate = DecodeProbeBucketResponse(hit->body);
  ASSERT_TRUE(candidate.ok());
  ASSERT_TRUE(candidate->has_value());
  EXPECT_EQ((*candidate)->descriptor, store.descriptor);

  MultiOpRequest batch;
  batch.ops.push_back(
      MultiOp{MsgType::kProbeBucket, EncodeProbeBucketRequest(probe)});
  batch.ops.push_back(MultiOp{MsgType::kPing, "p"});
  auto batched = client.Call(NetAddress{}, node->address(), MsgType::kMultiOp,
                             EncodeMultiOpRequest(batch),
                             kPatient);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  auto slots = DecodeMultiOpResponse(batched->body);
  ASSERT_TRUE(slots.ok());
  ASSERT_EQ(slots->results.size(), 2u);
  EXPECT_EQ(slots->results[0].status, StatusCode::kOk);
  EXPECT_EQ(slots->results[1].body, "p");

  // None of those touched the pool; the fetch is still waiting in it.
  EXPECT_EQ(node->executor().snapshot().submitted, queued);
  auto early = bulk.PollCall(node->address(), *fetch);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_FALSE(early->has_value()) << "a pooled fetch ran on a parked pool";

  release.set_value();
  auto fetched = bulk.WaitCall(node->address(), *fetch, /*deadline_ms=*/5000.0);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_FALSE(fetched->body.empty());
  EXPECT_EQ(node->service().counters().partitions_fetched, 1u);
}

TEST(PooledDispatchTest, RedirectFollowsViewChangeWithinOneLoopIteration) {
  // Membership timers pushed past the test: only the messages below
  // move the view.
  MembershipConfig config;
  config.probe_period_ms = 1e9;
  config.gossip_period_ms = 1e9;
  config.stabilize_period_ms = 1e9;
  config.backoff_max_ms = 1e9;
  config.reconnect_period_ms = 0.0;
  const NetAddress self = Loopback(7000);
  const NetAddress other = Loopback(7001);
  TcpTransport transport;
  auto membership = LiveMembership::Make(self, /*incarnation=*/100, config,
                                         &transport);
  ASSERT_TRUE(membership.ok()) << membership.status().ToString();
  NodeServiceOptions options;
  options.descriptor_replication = 1;
  auto service = NodeService::Make(self, options);
  ASSERT_TRUE(service.ok());
  (*service)->set_membership(&*membership);
  (*service)->PublishRedirectRing();  // the pooled daemon, before its loop

  // A bucket the other member owns once it is in the ring.
  const chord::ChordId bucket = RingView::IdOf(other);
  auto two = RingView::Make({self, other});
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->Replicas(bucket, 1).front(), other);

  StoreDescriptorRequest store;
  store.bucket = bucket;
  store.descriptor =
      PartitionDescriptor{PartitionKey{"T", "a", Range(1, 2)}, self};
  const std::string store_body = EncodeStoreDescriptorRequest(store);
  auto redirected_to = [&]() -> std::optional<NetAddress> {
    auto r = (*service)->Handle(MsgType::kStoreDescriptor, store_body);
    if (r.ok()) return std::nullopt;
    EXPECT_TRUE(r.status().IsOutOfRange()) << r.status().ToString();
    return ParseWrongOwner(r.status().message());
  };

  // Alone: every bucket is ours.
  EXPECT_EQ(redirected_to(), std::nullopt);

  // One loop iteration: a join arrives (served inline on the poll
  // thread), then the iteration ends with its publish.
  MemberEntry joiner;
  joiner.addr = other;
  joiner.incarnation = 5;
  ASSERT_TRUE(
      (*service)->Handle(MsgType::kJoin, EncodeViewMessage({joiner})).ok());
  // Mid-iteration the workers still see the published snapshot...
  EXPECT_EQ(redirected_to(), std::nullopt);
  (*service)->PublishRedirectRing();
  // ...and from the end of the iteration on, the new owner.
  EXPECT_EQ(redirected_to(), other);
  // An iteration with no view change keeps the decision.
  (*service)->PublishRedirectRing();
  EXPECT_EQ(redirected_to(), other);

  // The member dies: one more iteration and the bucket is ours again.
  joiner.status = MemberStatus::kDead;
  ASSERT_TRUE(
      (*service)->Handle(MsgType::kGossip, EncodeViewMessage({joiner})).ok());
  ASSERT_EQ(membership->num_alive(), 1u);
  (*service)->PublishRedirectRing();
  EXPECT_EQ(redirected_to(), std::nullopt);
}

}  // namespace
}  // namespace rpc
}  // namespace p2prange
