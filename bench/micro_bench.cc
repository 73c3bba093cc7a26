// google-benchmark microbenchmarks for the performance-critical
// primitives: permutation evaluation, range hashing, LSH identifier
// computation, SHA-1, Chord lookups (the heavy ring and the engine's
// compact router), and bucket matching.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include <cstring>
#include <vector>

#include "chord/ring.h"
#include "common/random.h"
#include "hash/bit_permutation.h"
#include "hash/lsh.h"
#include "hash/minwise.h"
#include "hash/sha1.h"
#include "rpc/executor.h"
#include "rpc/frame.h"
#include "rpc/message.h"
#include "rpc/tcp_transport.h"
#include "sim/engine/compact_overlay.h"
#include "store/bucket_store.h"

namespace p2prange {
namespace {

void BM_BitPermutationApply(benchmark::State& state) {
  Rng rng(1);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  const BitPermutation perm(keys, keys.num_levels());
  uint32_t x = 12345;
  for (auto _ : state) {
    x = perm.Apply(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BitPermutationApply);

void BM_BitPermutationApplyNaive(benchmark::State& state) {
  Rng rng(1);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  const BitPermutation perm(keys, static_cast<int>(state.range(0)));
  uint32_t x = 12345;
  for (auto _ : state) {
    x = perm.ApplyNaive(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BitPermutationApplyNaive)->Arg(1)->Arg(5);

void BM_BitPermutationCompile(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
    BitPermutation perm(keys, keys.num_levels());
    benchmark::DoNotOptimize(perm);
  }
}
BENCHMARK(BM_BitPermutationCompile);

void BM_LinearPermute(benchmark::State& state) {
  Rng rng(2);
  const LinearHashFunction fn(rng);
  uint32_t x = 999;
  for (auto _ : state) {
    x = fn.Permute(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_LinearPermute);

// The production path: sublinear range-min kernels, flat in width.
template <HashFamilyType kFamily>
void BM_HashRange(benchmark::State& state) {
  Rng rng(3);
  auto fn = MakeHashFunction(kFamily, rng);
  const Range q(1000, 1000 + static_cast<uint32_t>(state.range(0)) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->HashRange(q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashRange<HashFamilyType::kMinwise>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);
BENCHMARK(BM_HashRange<HashFamilyType::kApproxMinwise>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);
BENCHMARK(BM_HashRange<HashFamilyType::kLinear>)
    ->Arg(334)->Arg(1000)->Arg(1500)->Arg(100000);

// The kernel-vs-naive series: the O(|Q|) reference scan over the same
// widths. Compare against BM_HashRange at equal Arg for the speedup
// (>= 10x at width 1000, >= 100x at width 100000 is the regression
// bar; see EXPERIMENTS.md).
template <HashFamilyType kFamily>
void BM_HashRangeNaive(benchmark::State& state) {
  Rng rng(3);
  auto fn = MakeHashFunction(kFamily, rng);
  const Range q(1000, 1000 + static_cast<uint32_t>(state.range(0)) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->HashRangeNaive(q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kMinwise>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kApproxMinwise>)
    ->Arg(1000)->Arg(100000);
BENCHMARK(BM_HashRangeNaive<HashFamilyType::kLinear>)->Arg(1000)->Arg(100000);

void BM_LshIdentifiers(benchmark::State& state) {
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, 7));
  CHECK(scheme.ok());
  const Range q(100, 433);  // the workload's mean-sized range
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Identifiers(q));
  }
}
BENCHMARK(BM_LshIdentifiers);

void BM_Sha1(benchmark::State& state) {
  const std::string input(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(21)->Arg(1024)->Arg(65536);

void BM_ChordLookup(benchmark::State& state) {
  auto ring = chord::ChordRing::Make(static_cast<size_t>(state.range(0)), 11);
  CHECK(ring.ok());
  Rng rng(13);
  auto origin = ring->RandomAliveAddress();
  CHECK(origin.ok());
  for (auto _ : state) {
    auto result = ring->Lookup(*origin, rng.Next32());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ChordLookup)->Arg(100)->Arg(1000)->Arg(5000);

// The scenario engine's compact Chord router at engine scale, with ~1%
// of slots dead so successor lookups sometimes step over dead peers.
// Origins and targets cycle through 1024 pre-drawn pairs.
void BM_CompactChordRoute(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto net = sim::MakeCompactOverlay(overlay::Kind::kChord, n, 11, 2);
  CHECK(net.ok());
  Rng rng(13);
  for (size_t i = 0; i < n / 100; ++i) {
    (*net)->SetAlive(static_cast<uint32_t>(rng.NextBounded(n)), false);
  }
  std::vector<std::pair<uint32_t, uint32_t>> routes(1024);
  for (auto& [origin, id] : routes) {
    origin = (*net)->RandomAliveSlot(rng);
    id = rng.Next32();
  }
  size_t i = 0;
  int hops = 0;
  for (auto _ : state) {
    const auto& [origin, id] = routes[i++ & (routes.size() - 1)];
    benchmark::DoNotOptimize((*net)->Route(origin, id, &hops));
  }
  state.counters["hops_per_route"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CompactChordRoute)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_BucketBestMatch(benchmark::State& state) {
  BucketStore store;
  Rng rng(17);
  const int entries = static_cast<int>(state.range(0));
  for (int i = 0; i < entries; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(900));
    store.Insert(42, PartitionDescriptor{
                         PartitionKey{"Numbers", "key",
                                      Range(lo, lo + static_cast<uint32_t>(
                                                        rng.NextBounded(100)))},
                         NetAddress{1, 1}});
  }
  const PartitionKey query{"Numbers", "key", Range(300, 500)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.BestMatch(42, query, MatchCriterion::kJaccard));
  }
}
BENCHMARK(BM_BucketBestMatch)->Arg(10)->Arg(100)->Arg(1000);

void BM_PeerIndexBestMatch(benchmark::State& state) {
  // The §5.3 peer-wide matcher over the interval index: cost stays
  // near-flat in store size for selective queries.
  BucketStore store;
  Rng rng(19);
  const int entries = static_cast<int>(state.range(0));
  for (int i = 0; i < entries; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(100000));
    store.Insert(static_cast<chord::ChordId>(rng.NextBounded(1000)),
                 PartitionDescriptor{
                     PartitionKey{"Numbers", "key",
                                  Range(lo, lo + static_cast<uint32_t>(
                                                     rng.NextBounded(200)))},
                     NetAddress{1, 1}});
  }
  const PartitionKey query{"Numbers", "key", Range(50000, 50400)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.BestMatchAnywhere(query, MatchCriterion::kContainment));
  }
}
BENCHMARK(BM_PeerIndexBestMatch)->Arg(100)->Arg(10000)->Arg(100000);

void BM_LshIdentifiersInto(benchmark::State& state) {
  // The batched, allocation-free probe-path form, over the paper
  // workload's query ranges: uniform endpoint pairs in [0, 1000].
  auto scheme = LshScheme::Make(LshParams::Paper(HashFamilyType::kApproxMinwise, 7));
  CHECK(scheme.ok());
  Rng rng(23);
  std::vector<Range> ranges;
  for (int i = 0; i < 1024; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(1001));
    uint32_t b = static_cast<uint32_t>(rng.NextBounded(1001));
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b);
  }
  std::vector<uint32_t> ids;
  size_t i = 0;
  for (auto _ : state) {
    scheme->IdentifiersInto(ranges[i++ % ranges.size()], &ids);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_LshIdentifiersInto);

// --- RPC layer: frame codec, envelope codec, live TCP round trip ------

void BM_FrameEncodeParse(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  std::string buf;
  rpc::FrameParser parser;
  for (auto _ : state) {
    buf.clear();
    rpc::AppendFrame(payload, &buf);
    parser.Feed(buf);
    auto got = parser.Next();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodeParse)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EnvelopeEncodeDecode(benchmark::State& state) {
  rpc::RpcHeader header;
  header.type = rpc::MsgType::kProbeBucket;
  const std::string body(128, 'b');
  for (auto _ : state) {
    ++header.call_id;
    auto got = rpc::DecodeEnvelope(rpc::EncodeEnvelope(header, body));
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_EnvelopeEncodeDecode);

/// Full request/response over a real socket pair: the per-probe cost a
/// live ring pays that the simulator only models. With `workers` > 0
/// every request instead goes through an rpc::Executor — work queue,
/// worker wake-up, completion queue, pipe doorbell — the way the
/// worker-pool daemon serves a pooled request, so the gap between the
/// two rows is that handoff alone.
void RunLoopbackCalls(benchmark::State& state, int workers) {
  NetAddress bind;
  bind.host = 0x7F000001;
  bind.port = 0;
  auto server = rpc::TcpServer::Listen(
      bind, [](rpc::MsgType, std::string_view body) {
        return Result<std::string>(std::string(body));
      });
  CHECK(server.ok());
  std::unique_ptr<rpc::Executor> executor;
  if (workers > 0) {
    auto made = rpc::Executor::Make({.workers = workers, .queue_depth = 128});
    CHECK(made.ok());
    executor = std::move(*made);
    server->AddWakeFd(executor->doorbell_fd());
    server->set_async_dispatch(
        [&executor](uint64_t conn_id, const rpc::RpcEnvelope& env) {
          rpc::RpcHeader h = env.header;
          h.is_response = true;
          CHECK(executor->TrySubmit(conn_id, [h, body = env.body] {
            return rpc::EncodeEnvelope(h, body);
          }));
          return true;
        });
  }
  std::atomic<bool> stop{false};
  std::thread loop([&] {
    while (!stop) {
      // Bench loop: poll errors surface as latency in the measured
      // path; the server thread itself just keeps pumping.
      server->PollOnce(/*timeout_ms=*/1).IgnoreError();
      if (executor == nullptr) continue;
      for (auto& done : executor->DrainCompletions()) {
        server->Respond(done.tag, done.payload);
      }
    }
  });
  rpc::TcpTransport transport;
  const std::string body(static_cast<size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    auto result =
        transport.Call(NetAddress{}, server->address(), rpc::MsgType::kPing,
                       body);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
  }
  stop = true;
  loop.join();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_TcpLoopbackCall(benchmark::State& state) {
  RunLoopbackCalls(state, /*workers=*/0);
}
BENCHMARK(BM_TcpLoopbackCall)->Arg(64)->Arg(4096);

void BM_TcpLoopbackCallPooled(benchmark::State& state) {
  RunLoopbackCalls(state, /*workers=*/2);
}
BENCHMARK(BM_TcpLoopbackCallPooled)->Arg(64)->Arg(4096);

}  // namespace
}  // namespace p2prange

// BENCHMARK_MAIN plus `--smoke` (tools/check.sh): rewrites the flag
// into a tiny --benchmark_min_time so every benchmark still executes —
// catching crashes and CHECK failures — without a full timing run.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char min_time[] = "--benchmark_min_time=0.001";
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
