// Live-ring churn acceptance (DESIGN.md §9): a ring of real
// p2prange_node processes grown one --join at a time, then driven
// through joins, an abrupt SIGKILL, and a graceful rolling restart
// while a seeded query load keeps running. The claims:
//
//  1. Growth works over real RPC — daemons join through a bootstrap
//     member, the views converge, and the client discovers the new
//     members through gossip.
//  2. No query ever fails outright under this churn (replication +
//     failover + redirects absorb every transition).
//  3. Answer quality survives: once the ring re-converges after each
//     event, recall is within two points of the static baseline.
//
// Waits are poll-until-converged loops with deadlines, never fixed
// sleeps, so the test is fast on fast machines and only patient on
// loaded CI boxes. Every child is reaped by RAII.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "tools/live_process.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

namespace fs = std::filesystem;

/// One ring member with fast membership timers, so the acceptance run
/// is quick: probes every 100ms, three strikes at a 300ms timeout ≈
/// sub-2s detection.
std::unique_ptr<live::NodeProcess> StartDaemon(const std::string& binary,
                                               const NetAddress& addr,
                                               const std::string& wal_dir,
                                               const std::string& join) {
  std::vector<std::string> flags = {
      "--replication=2",
      "--probe_ms=100",
      "--gossip_ms=100",
      "--stabilize_ms=100",
      "--probe_timeout_ms=300",
  };
  if (!join.empty()) flags.push_back("--join=" + join);
  return std::make_unique<live::NodeProcess>(binary, addr, wal_dir,
                                             std::move(flags));
}

constexpr uint32_t kDomainLo = 0;
constexpr uint32_t kDomainHi = 1000;
constexpr uint64_t kSeed = 7;
constexpr size_t kPublishes = 30;
constexpr size_t kQueries = 20;

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSeed ^ 0x5bd1e995u);
  options.descriptor_replication = 2;
  // Short enough that a probe into a half-dead peer fails over inside
  // one batch, long enough for sanitized builds on loaded boxes.
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  return options;
}

::testing::AssertionResult AwaitPing(rpc::RingClient& client,
                                     const NetAddress& member) {
  return ::testing::AssertionResult(live::AwaitPing(client, member))
         << "no pong from " << member.ToString() << " after 10s";
}

/// Polls RefreshView until the client's view holds exactly `expected`
/// alive members — i.e. the ring's own views converged on that count,
/// since the client only relays what the members gossip.
::testing::AssertionResult AwaitViewSize(rpc::RingClient& client,
                                         size_t expected) {
  return ::testing::AssertionResult(
             live::AwaitViewSize(client, expected, std::chrono::seconds(15)))
         << "view stuck at " << client.view().size() << " members, wanted "
         << expected;
}

struct BatchResult {
  int failed_lookups = 0;  ///< Lookup() itself errored — must never happen
  int probes_failed = 0;   ///< probe groups no replica answered
  int failovers = 0;
  int redirects = 0;
  double recall = 0.0;
};

/// The seeded query batch: the same kQueries draws every time, so
/// recall numbers across phases are directly comparable.
BatchResult QueryBatch(rpc::RingClient& client) {
  BatchResult batch;
  UniformRangeGenerator qgen(kDomainLo, kDomainHi, kSeed ^ 0x9E3779B9);
  for (size_t i = 0; i < kQueries; ++i) {
    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    if (!outcome.ok()) {
      ADD_FAILURE() << "lookup " << i << ": " << outcome.status().ToString();
      ++batch.failed_lookups;
      continue;
    }
    batch.probes_failed += outcome->probes_failed;
    batch.failovers += outcome->failovers;
    batch.redirects += outcome->redirects;
    if (!outcome->ranked.empty()) {
      batch.recall += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  batch.recall /= static_cast<double>(kQueries);
  return batch;
}

/// Repeats the batch until recall recovers to within two points of the
/// baseline with every probe answered (re-replication is asynchronous;
/// convergence, not instant repair, is the contract). Queries must
/// never fail even while converging.
BatchResult AwaitRecall(rpc::RingClient& client, double baseline) {
  BatchResult batch;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    batch = QueryBatch(client);
    EXPECT_EQ(batch.failed_lookups, 0);
    if (batch.probes_failed == 0 && batch.recall >= baseline - 0.02) {
      return batch;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } while (std::chrono::steady_clock::now() < deadline);
  return batch;
}

TEST(LiveChurnTest, RingGrownByJoinsSurvivesKillAndRollingRestart) {
  const std::string binary = live::ToolBinary("p2prange_node");
  ASSERT_FALSE(binary.empty()) << "p2prange_node not built next to tests";
  const std::string scratch =
      live::MakeScratchDir(::testing::TempDir() + "live_churn_");
  ASSERT_FALSE(scratch.empty());
  auto wal = [&](const char* name) {
    const std::string dir = scratch + "/" + name;
    fs::create_directories(dir);
    return dir;
  };

  // Grow the ring one join at a time: a starts alone, b and c enter
  // through it.
  auto a = StartDaemon(binary, live::ReservePort(), wal("a"), "");
  auto client_result =
      rpc::RingClient::Make({a->address()}, ClientOptions());
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  rpc::RingClient& client = **client_result;
  ASSERT_TRUE(AwaitPing(client, a->address()));
  ASSERT_TRUE(AwaitViewSize(client, 1));

  const std::string bootstrap = a->address().ToString();
  auto b = StartDaemon(binary, live::ReservePort(), wal("b"), bootstrap);
  ASSERT_TRUE(AwaitPing(client, b->address()));
  ASSERT_TRUE(AwaitViewSize(client, 2));
  auto c = StartDaemon(binary, live::ReservePort(), wal("c"), bootstrap);
  ASSERT_TRUE(AwaitPing(client, c->address()));
  ASSERT_TRUE(AwaitViewSize(client, 3));

  // Seed the ring (holders round-robin over the members) and take the
  // static baseline.
  {
    UniformRangeGenerator gen(kDomainLo, kDomainHi, kSeed);
    const std::vector<NetAddress> holders = {a->address(), b->address(),
                                             c->address()};
    for (size_t i = 0; i < kPublishes; ++i) {
      ASSERT_TRUE(client
                      .Publish(PartitionKey{"T", "a", gen.Next()},
                               holders[i % holders.size()])
                      .ok())
          << "publish " << i;
    }
  }
  const BatchResult baseline = QueryBatch(client);
  ASSERT_EQ(baseline.failed_lookups, 0);
  ASSERT_EQ(baseline.probes_failed, 0);
  ASSERT_GT(baseline.recall, 0.0) << "the workload found nothing at all";

  // --- Event 1: a fourth member joins under load -----------------------
  auto d = StartDaemon(binary, live::ReservePort(), wal("d"), bootstrap);
  ASSERT_TRUE(AwaitPing(client, d->address()));
  // Queries keep being answered while the join propagates.
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  ASSERT_TRUE(AwaitViewSize(client, 4));
  const BatchResult after_join = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_join.probes_failed, 0);
  EXPECT_GE(after_join.recall, baseline.recall - 0.02)
      << "join cost recall: " << after_join.recall << " vs baseline "
      << baseline.recall;

  // --- Event 2: one member dies abruptly (no handoff) ------------------
  b->Kill();
  client.transport().Disconnect(b->address());
  // Queries during the detection window must still all be answered:
  // the dead peer's buckets fail over to their surviving replicas.
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  ASSERT_TRUE(AwaitViewSize(client, 3)) << "failure detector never fired";
  const BatchResult after_kill = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_kill.probes_failed, 0);
  EXPECT_GE(after_kill.recall, baseline.recall - 0.02)
      << "abrupt death cost recall: " << after_kill.recall << " vs baseline "
      << baseline.recall;

  // --- Event 3: rolling restart of a remaining member ------------------
  // SIGTERM hands its descriptors to the successor and announces the
  // leave; the replacement process rejoins on the same address and WAL
  // directory and pulls its arc back.
  const NetAddress c_addr = c->address();
  const std::string c_wal = c->wal_dir();
  ASSERT_TRUE(c->Terminate());
  client.transport().Disconnect(c_addr);
  EXPECT_EQ(QueryBatch(client).failed_lookups, 0);
  c = StartDaemon(binary, c_addr, c_wal, bootstrap);
  ASSERT_TRUE(AwaitPing(client, c_addr));
  ASSERT_TRUE(AwaitViewSize(client, 3));
  const BatchResult after_restart = AwaitRecall(client, baseline.recall);
  EXPECT_EQ(after_restart.probes_failed, 0);
  EXPECT_GE(after_restart.recall, baseline.recall - 0.02)
      << "rolling restart cost recall: " << after_restart.recall
      << " vs baseline " << baseline.recall;

  // Survivors drain gracefully (exit 0) — the ring shrinks member by
  // member without a failure.
  EXPECT_TRUE(d->Terminate());
  EXPECT_TRUE(c->Terminate());
  EXPECT_TRUE(a->Terminate());
}

}  // namespace
}  // namespace p2prange
