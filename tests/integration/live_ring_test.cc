// The deployable system, end to end: real p2prange_node processes on
// loopback, driven by a RingClient over real TCP. Three claims:
//
//  1. Answer quality survives deployment — the paper's uniform workload
//     gets the same average recall over the wire as through the
//     in-process simulator (the protocol is the same protocol), on the
//     single-loop daemon and on the worker-pool daemon (--workers=2)
//     alike.
//  2. Failure handling works on a real network — a stopped peer costs
//     deadline timeouts and FaultPolicy retransmissions, a killed peer
//     fails over to replicas, and the answer still comes back.
//  3. Durability holds across process death — a restarted daemon serves
//     the descriptors it had before SIGTERM.
//
// Every child is reaped by RAII (SIGKILL as the last resort) so a
// failing assertion can never leak a daemon into the build machine.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "rel/generator.h"
#include "rpc/ring_client.h"
#include "tools/live_process.h"
#include "workload/range_workload.h"

namespace p2prange {
namespace {

namespace fs = std::filesystem;

/// Each daemon exports its metrics next to its WAL.
std::string MetricsJson(const std::string& wal_dir) {
  return wal_dir + "/metrics.json";
}

std::unique_ptr<live::NodeProcess> StartDaemon(const std::string& binary,
                                               const NetAddress& addr,
                                               const std::string& wal_dir,
                                               int workers = 0) {
  return std::make_unique<live::NodeProcess>(
      binary, addr, wal_dir,
      std::vector<std::string>{"--metrics_json=" + MetricsJson(wal_dir),
                               "--workers=" + std::to_string(workers)});
}

constexpr std::chrono::seconds kTerminateTimeout{5};

struct Ring {
  std::vector<std::unique_ptr<live::NodeProcess>> daemons;
  std::vector<NetAddress> members;
  std::string scratch;
};

Ring SpawnRing(const std::string& binary, size_t n, int workers = 0) {
  Ring ring;
  ring.scratch = live::MakeScratchDir(::testing::TempDir() + "live_ring_");
  EXPECT_FALSE(ring.scratch.empty());
  for (size_t i = 0; i < n; ++i) {
    const NetAddress addr = live::ReservePort();
    EXPECT_NE(addr.port, 0);
    const std::string dir = ring.scratch + "/n" + std::to_string(i);
    fs::create_directories(dir);
    ring.daemons.push_back(StartDaemon(binary, addr, dir, workers));
    ring.members.push_back(addr);
  }
  return ring;
}

/// Waits until every member answers a ping (daemons bind fast, but
/// fork+exec is not instantaneous).
::testing::AssertionResult AwaitReady(rpc::RingClient& client,
                                      const std::vector<NetAddress>& members) {
  for (const NetAddress& m : members) {
    if (!live::AwaitPing(client, m, std::chrono::seconds(5))) {
      return ::testing::AssertionFailure()
             << "no pong from " << m.ToString() << " after 5s";
    }
  }
  return ::testing::AssertionSuccess();
}

constexpr uint32_t kDomainLo = 0;
constexpr uint32_t kDomainHi = 1000;
constexpr uint64_t kWorkloadSeed = 42;
constexpr uint64_t kSimSeed = 7;

rpc::RingClientOptions ClientOptions() {
  rpc::RingClientOptions options;
  // The simulator derives its LSH seed as config.seed ^ 0x5bd1e995
  // (RangeCacheSystem::Make); the live client must sample the same
  // hash functions or realized bucket collisions — and therefore
  // recall — would only match in expectation, not per query.
  options.lsh =
      LshParams::Paper(HashFamilyType::kApproxMinwise, kSimSeed ^ 0x5bd1e995u);
  // Generous: sanitized builds on loaded single-core CI boxes can take
  // hundreds of ms per probe; a healthy-ring test must not flake on a
  // deadline that only exists to bound the fault tests.
  options.deadline_ms = 10000.0;
  options.transport.default_deadline_ms = 10000.0;
  return options;
}

/// Publishes `publishes` uniform ranges (holders round-robin), then
/// queries `queries` fresh draws; returns average recall with a miss
/// counting as zero. The exact accounting the sim comparator uses.
double RunLiveWorkload(rpc::RingClient& client,
                       const std::vector<NetAddress>& members,
                       size_t publishes, size_t queries) {
  UniformRangeGenerator gen(kDomainLo, kDomainHi, kWorkloadSeed);
  for (size_t i = 0; i < publishes; ++i) {
    const PartitionKey key{"T", "a", gen.Next()};
    EXPECT_TRUE(client.Publish(key, members[i % members.size()]).ok())
        << "publish " << i;
  }
  UniformRangeGenerator qgen(kDomainLo, kDomainHi,
                             kWorkloadSeed ^ 0x9E3779B9);
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    const Range q = qgen.Next();
    auto outcome = client.Lookup(PartitionKey{"T", "a", q});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) continue;
    EXPECT_EQ(outcome->probes_failed, 0) << "healthy ring dropped a probe";
    if (!outcome->ranked.empty()) {
      recall_sum += q.RecallFrom(outcome->ranked.front().descriptor.key.range);
    }
  }
  return recall_sum / static_cast<double>(queries);
}

/// The same workload through the in-process simulator. cache_on_miss is
/// off because the live client does not publish on a miss; everything
/// else is the paper's defaults, the same LSH scheme, the same draws.
double RunSimWorkload(size_t publishes, size_t queries) {
  SystemConfig cfg;
  cfg.num_peers = 3;
  cfg.lsh = LshParams::Paper(HashFamilyType::kApproxMinwise, kSimSeed);
  cfg.cache_on_miss = false;
  cfg.seed = kSimSeed;
  auto sys = RangeCacheSystem::Make(
      cfg, MakeNumbersCatalog(10, kDomainLo, kDomainHi, 1));
  EXPECT_TRUE(sys.ok());
  if (!sys.ok()) return -1.0;

  UniformRangeGenerator gen(kDomainLo, kDomainHi, kWorkloadSeed);
  const NetAddress holder = sys->source_address();
  for (size_t i = 0; i < publishes; ++i) {
    EXPECT_TRUE(
        sys->PublishPartition(PartitionKey{"Numbers", "key", gen.Next()},
                              holder)
            .ok());
  }
  UniformRangeGenerator qgen(kDomainLo, kDomainHi,
                             kWorkloadSeed ^ 0x9E3779B9);
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    auto outcome =
        sys->LookupRange(PartitionKey{"Numbers", "key", qgen.Next()});
    EXPECT_TRUE(outcome.ok());
    if (outcome.ok() && outcome->match) recall_sum += outcome->match->recall;
  }
  return recall_sum / static_cast<double>(queries);
}

/// Claim 1 on a ring whose daemons run `workers` pool threads (0 = the
/// single-loop daemon): same recall as the simulator, no timeouts, and
/// live metrics from every node.
void ExpectPaperWorkloadMatchesSimulator(int workers) {
  const std::string binary = live::ToolBinary("p2prange_node");
  ASSERT_FALSE(binary.empty()) << "p2prange_node not built next to tests";
  Ring ring = SpawnRing(binary, 3, workers);
  ASSERT_EQ(ring.members.size(), 3u);

  auto client = rpc::RingClient::Make(ring.members, ClientOptions());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(AwaitReady(**client, ring.members));

  const size_t kPublishes = 60, kQueries = 40;
  const double live = RunLiveWorkload(**client, ring.members, kPublishes,
                                      kQueries);
  const double sim = RunSimWorkload(kPublishes, kQueries);
  ASSERT_GE(sim, 0.0);
  EXPECT_GT(live, 0.0) << "the workload found nothing at all";
  EXPECT_NEAR(live, sim, 0.02)
      << "deployment changed answer quality: live=" << live
      << " sim=" << sim;

  // A healthy run costs no timeouts and no retransmissions.
  const rpc::RpcStats& stats = (*client)->transport().rpc_stats();
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.retransmits, 0u);

  // The exported metrics are live: every node served requests and says
  // so in its single-line JSON file.
  for (const auto& daemon : ring.daemons) {
    std::ifstream in(MetricsJson(daemon->wal_dir()));
    std::string json;
    std::getline(in, json);
    EXPECT_NE(json.find("\"requests_served\":"), std::string::npos)
        << MetricsJson(daemon->wal_dir());
    EXPECT_NE(json.find("\"descriptors_stored\":"), std::string::npos);
  }

  for (auto& daemon : ring.daemons) {
    EXPECT_TRUE(daemon->Terminate(kTerminateTimeout));
    if (workers == 0) continue;
    // The final snapshot shows the pool at work: every publish is a
    // descriptor store, which runs on a worker; nothing was shed.
    std::ifstream in(MetricsJson(daemon->wal_dir()));
    std::string json;
    std::getline(in, json);
    EXPECT_NE(json.find("\"executor\":{\"workers\":" +
                        std::to_string(workers)),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"submitted\":0,"), std::string::npos) << json;
    EXPECT_NE(json.find("\"shed\":0,"), std::string::npos) << json;
  }
}

TEST(LiveRingTest, PaperWorkloadRecallMatchesSimulator) {
  ExpectPaperWorkloadMatchesSimulator(/*workers=*/0);
}

TEST(LiveRingTest, PaperWorkloadRecallMatchesSimulatorOnWorkerPool) {
  ExpectPaperWorkloadMatchesSimulator(/*workers=*/2);
}

TEST(LiveRingTest, StoppedPeerCostsTimeoutsKilledPeerFailsOver) {
  const std::string binary = live::ToolBinary("p2prange_node");
  ASSERT_FALSE(binary.empty()) << "p2prange_node not built next to tests";
  Ring ring = SpawnRing(binary, 3);

  rpc::RingClientOptions options = ClientOptions();
  options.descriptor_replication = 2;  // failover has somewhere to go
  options.deadline_ms = 100.0;
  options.transport.default_deadline_ms = 100.0;
  options.fault.max_retries = 1;
  auto client = rpc::RingClient::Make(ring.members, options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(AwaitReady(**client, ring.members));

  // Seed the ring while everyone is healthy.
  UniformRangeGenerator gen(kDomainLo, kDomainHi, 99);
  std::vector<Range> published;
  for (size_t i = 0; i < 20; ++i) {
    const Range r = gen.Next();
    published.push_back(r);
    ASSERT_TRUE((*client)
                    ->Publish(PartitionKey{"T", "a", r},
                              ring.members[i % ring.members.size()])
                    .ok());
  }

  // Ring arcs derive from Sha1(addr) of randomly-assigned ephemeral
  // ports, so a fixed daemon index occasionally owns none of the
  // buckets the queries below will probe. Stop the peer that owns the
  // most of them, so the fault is guaranteed to land in the probe path.
  const size_t kStopQueries = 10;
  std::vector<int> owned(ring.members.size(), 0);
  for (size_t i = 0; i < kStopQueries; ++i) {
    for (const chord::ChordId id : (*client)->lsh().Identifiers(published[i])) {
      const NetAddress& owner = (*client)->view().Owner(id);
      for (size_t m = 0; m < ring.members.size(); ++m) {
        if (ring.members[m] == owner) ++owned[m];
      }
    }
  }
  const size_t victim = static_cast<size_t>(
      std::max_element(owned.begin(), owned.end()) - owned.begin());
  ASSERT_GT(owned[victim], 0);

  // A stopped (SIGSTOP) peer still owns a socket the kernel accepts
  // on, so probes to it die by deadline: timeouts and FaultPolicy
  // retransmissions must show up in the client's counters.
  ring.daemons[victim]->Signal(SIGSTOP);
  const rpc::RpcStats& stats = (*client)->transport().rpc_stats();
  int answered = 0;
  for (size_t i = 0; i < kStopQueries && stats.timeouts == 0; ++i) {
    auto outcome = (*client)->Lookup(PartitionKey{"T", "a", published[i]});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ++answered;
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(stats.timeouts, 0u)
      << "no probe ever hit the stopped peer across " << answered
      << " lookups";
  EXPECT_GT(stats.retransmits, 0u) << "FaultPolicy never retried a timeout";

  // Killed outright, the peer refuses connections: probes fail over to
  // the replica without eating a deadline, and answers keep coming.
  ring.daemons[victim]->Signal(SIGCONT);
  ring.daemons[victim]->Kill();
  bool saw_failover = false;
  for (size_t i = 0; i < published.size(); ++i) {
    auto outcome = (*client)->Lookup(PartitionKey{"T", "a", published[i]});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->failovers > 0) saw_failover = true;
    // The queried range was published: with replication 2 and one dead
    // peer out of three, its descriptor is still reachable.
    EXPECT_FALSE(outcome->ranked.empty()) << published[i].ToString();
  }
  EXPECT_TRUE(saw_failover)
      << "no lookup was answered by a replica of the dead peer";

  for (size_t m = 0; m < ring.daemons.size(); ++m) {
    if (m != victim) {
      EXPECT_TRUE(ring.daemons[m]->Terminate(kTerminateTimeout));
    }
  }
}

TEST(LiveRingTest, RestartedDaemonStillServesItsDescriptors) {
  const std::string binary = live::ToolBinary("p2prange_node");
  ASSERT_FALSE(binary.empty()) << "p2prange_node not built next to tests";
  Ring ring = SpawnRing(binary, 1);

  auto client = rpc::RingClient::Make(ring.members, ClientOptions());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(AwaitReady(**client, ring.members));

  const PartitionKey key{"T", "a", Range(250, 750)};
  ASSERT_TRUE((*client)->Publish(key, ring.members[0]).ok());
  auto before = (*client)->Lookup(key);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->ranked.empty());

  // Clean shutdown, then a new process on the same port and WAL dir.
  ASSERT_TRUE(ring.daemons[0]->Terminate(kTerminateTimeout));
  (*client)->transport().Disconnect(ring.members[0]);
  ring.daemons[0] =
      StartDaemon(binary, ring.members[0], ring.daemons[0]->wal_dir());
  ASSERT_TRUE(AwaitReady(**client, ring.members));

  auto after = (*client)->Lookup(key);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_FALSE(after->ranked.empty())
      << "descriptors did not survive the restart";
  EXPECT_EQ(after->ranked.front().descriptor.key, key);

  EXPECT_TRUE(ring.daemons[0]->Terminate(kTerminateTimeout));
}

}  // namespace
}  // namespace p2prange
