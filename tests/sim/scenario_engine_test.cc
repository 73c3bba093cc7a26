// The scenario engine: event ordering, compact-model routing against
// the oracle, determinism under a seed, churn-mode recall, the
// byte-budget gauges, and the single-threaded-by-design contract.
#include "sim/engine/scenario_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine/compact_overlay.h"
#include "sim/engine/event_queue.h"

namespace p2prange {
namespace sim {
namespace {

// ---------------------------------------------------------------- events

TEST(EventQueueTest, PopsInTimeThenInsertionOrder) {
  EventQueue q;
  q.Push(5.0, EventType::kCrash, 1);
  q.Push(1.0, EventType::kQuery, 2);
  q.Push(5.0, EventType::kRecover, 3);  // same time: after the crash
  q.Push(3.0, EventType::kRepair, 4);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.max_depth(), 4u);

  Event e;
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kQuery);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kRepair);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kCrash);
  ASSERT_TRUE(q.Pop(&e));
  EXPECT_EQ(e.type, EventType::kRecover);
  EXPECT_EQ(e.subject, 3u);
  EXPECT_FALSE(q.Pop(&e));
  EXPECT_EQ(q.max_depth(), 4u);  // high-water mark survives draining
}

TEST(EventQueueTest, EventsStayPacked) {
  EXPECT_EQ(sizeof(Event), 24u);
}

// ------------------------------------------------------- compact models

class CompactOverlayTest : public ::testing::TestWithParam<overlay::Kind> {};

TEST_P(CompactOverlayTest, RouteLandsOnOwner) {
  auto net = MakeCompactOverlay(GetParam(), 500, 3, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const uint32_t id = rng.Next32();
    const uint32_t owner = (*net)->Owner(id);
    ASSERT_LT(owner, (*net)->num_peers());
    EXPECT_TRUE((*net)->IsAlive(owner));
    int hops = 0;
    const uint32_t routed =
        (*net)->Route((*net)->RandomAliveSlot(rng), id, &hops);
    EXPECT_EQ(routed, owner);
    EXPECT_GE(hops, 0);
  }
}

TEST_P(CompactOverlayTest, OwnerSkipsDeadSlots) {
  auto net = MakeCompactOverlay(GetParam(), 64, 5, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    (*net)->SetAlive((*net)->RandomAliveSlot(rng), false);
  }
  EXPECT_EQ((*net)->num_alive(), 40u);
  for (int i = 0; i < 100; ++i) {
    const uint32_t owner = (*net)->Owner(rng.Next32());
    EXPECT_TRUE((*net)->IsAlive(owner));
  }
}

TEST_P(CompactOverlayTest, StaysUnderTwentyBytesPerPeer) {
  const size_t n = 20000;
  auto net = MakeCompactOverlay(GetParam(), n, 1, 2);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_LT((*net)->MemoryBytes() / n, 20u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CompactOverlayTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(AliveIndexTest, CountsSelectsAndWraps) {
  AliveIndex idx(10);
  EXPECT_EQ(idx.num_alive(), 10u);
  idx.Set(0, false);
  idx.Set(9, false);
  idx.Set(4, false);
  EXPECT_EQ(idx.num_alive(), 7u);
  EXPECT_EQ(idx.CountBefore(5), 3u);   // 1,2,3
  EXPECT_EQ(idx.CountIn(4, 10), 4u);   // 5,6,7,8
  EXPECT_EQ(idx.NextAliveWrapping(9), 1u);  // wraps past dead 9 and 0
  EXPECT_EQ(idx.NextAliveWrapping(4), 5u);
  EXPECT_EQ(idx.SelectAlive(0), 1u);
  EXPECT_EQ(idx.SelectAlive(6), 8u);
  idx.Set(0, true);
  EXPECT_EQ(idx.SelectAlive(0), 0u);
}

// The first alive slot at or after each of slots [0, n), wrapping, by
// one backward pass over the flags (the plain reference). Needs one
// alive slot.
template <typename IsAlive>
std::vector<uint32_t> ReferenceNextAlive(size_t n, const IsAlive& is_alive) {
  std::vector<uint32_t> next(n);
  uint32_t upcoming = 0;
  while (!is_alive(upcoming)) ++upcoming;  // wraps: nothing alive past the end
  for (size_t i = n; i-- > 0;) {
    if (is_alive(static_cast<uint32_t>(i))) upcoming = static_cast<uint32_t>(i);
    next[i] = upcoming;
  }
  return next;
}

void ExpectNextAliveMatchesReference(const AliveIndex& idx,
                                     const std::string& label) {
  const std::vector<uint32_t> want = ReferenceNextAlive(
      idx.size(), [&](uint32_t slot) { return idx.IsAlive(slot); });
  for (uint32_t slot = 0; slot < idx.size(); ++slot) {
    ASSERT_EQ(idx.NextAliveWrapping(slot), want[slot])
        << label << " n=" << idx.size() << " slot=" << slot;
  }
}

TEST(AliveIndexTest, NextAliveWrappingMatchesLinearScan) {
  Rng rng(17);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{63}, size_t{64},
                         size_t{65}, size_t{10000}}) {
    AliveIndex idx(n);
    ExpectNextAliveMatchesReference(idx, "all alive");

    // Random patterns, dense to sparse.
    for (const double alive_share : {0.99, 0.5, 0.05, 0.005}) {
      for (uint32_t i = 0; i < n; ++i) idx.Set(i, rng.NextBernoulli(alive_share));
      if (idx.num_alive() == 0) idx.Set(static_cast<uint32_t>(n - 1), true);
      ExpectNextAliveMatchesReference(idx, "random");
    }

    // A single live slot: at the front, the back, and the middle.
    for (const uint32_t live : {uint32_t{0}, static_cast<uint32_t>(n - 1),
                                static_cast<uint32_t>(n / 2)}) {
      for (uint32_t i = 0; i < n; ++i) idx.Set(i, i == live);
      ExpectNextAliveMatchesReference(idx, "single live slot");
    }

    // A dead run longer than the scan window in the middle, and a dead
    // tail that forces a wrap.
    for (uint32_t i = 0; i < n; ++i) idx.Set(i, true);
    const size_t run = AliveIndex::kScanWindow * 3 + 7;
    for (size_t i = n / 3; i < std::min(n, n / 3 + run); ++i) {
      idx.Set(static_cast<uint32_t>(i), false);
    }
    if (idx.num_alive() > 0) ExpectNextAliveMatchesReference(idx, "dead run");
    for (size_t i = n > run ? n - run : 1; i < n; ++i) {
      idx.Set(static_cast<uint32_t>(i), false);
    }
    idx.Set(0, true);
    ExpectNextAliveMatchesReference(idx, "dead tail");
  }
}

// Crafted id sets the random-id engine rarely draws: empty buckets,
// ids on bucket boundaries, ids 0 and 0xFFFFFFFF, and one dense
// cluster. Checked against lower_bound over the whole array.
TEST(RankDirectoryTest, LowerBoundMatchesFullArraySearch) {
  Rng rng(31);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                         size_t{9}, size_t{16}, size_t{17}, size_t{1000},
                         size_t{100000}}) {
    int bits = 0;
    while ((size_t{16} << bits) <= n) ++bits;  // max(0, floor(log2 n) - 3)
    const int shift = 32 - bits;
    auto boundary = [&](uint64_t j) {
      return static_cast<uint32_t>(j << shift);
    };
    std::vector<std::vector<uint32_t>> sets(4);
    for (size_t i = 0; i < n; ++i) {
      sets[0].push_back(rng.Next32());                              // random
      sets[1].push_back(0x40000000u + static_cast<uint32_t>(i));    // cluster
      sets[2].push_back(boundary(rng.NextBounded(uint64_t{1} << bits)) +
                        static_cast<uint32_t>(rng.NextBounded(3)) - 1);
    }
    sets[3] = sets[0];
    sets[3].front() = 0;
    sets[3].back() = 0xFFFFFFFF;
    for (auto& ids : sets) std::sort(ids.begin(), ids.end());

    for (const std::vector<uint32_t>& ids : sets) {
      const RankDirectory dir(ids);
      EXPECT_LE(dir.MemoryBytes(),
                sizeof(uint32_t) * (std::max<size_t>(n / 8, 1) + 1))
          << "n=" << n;
      std::vector<uint32_t> probes = {0, 1, 0xFFFFFFFE, 0xFFFFFFFF};
      for (uint64_t j = 0; j <= (uint64_t{1} << bits); ++j) {
        probes.push_back(boundary(j));
        probes.push_back(boundary(j) - 1);
      }
      for (size_t i = 0; i < ids.size() && i < 3000; ++i) {
        probes.push_back(ids[i]);
        probes.push_back(ids[i] + 1);
      }
      for (int i = 0; i < 1000; ++i) probes.push_back(rng.Next32());
      for (const uint32_t id : probes) {
        const size_t want = static_cast<size_t>(
            std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
        ASSERT_EQ(dir.LowerBound(ids, id), want) << "n=" << n << " id=" << id;
      }
    }
  }
}

// The Chord model's owner (the rank directory, then the next alive
// slot) against a lower_bound over the whole id array plus the next
// alive slot from a linear pass.
uint32_t ReferenceOwner(const std::vector<uint32_t>& ids,
                        const std::vector<uint32_t>& next_alive, uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return next_alive[it == ids.end() ? 0 : static_cast<size_t>(it - ids.begin())];
}

TEST(CompactChordTest, OwnerMatchesFullArraySearch) {
  Rng rng(23);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                         size_t{9}, size_t{1000}, size_t{100000}}) {
    auto made = MakeCompactOverlay(overlay::Kind::kChord, n, n + 5, 2);
    ASSERT_TRUE(made.ok()) << made.status();
    CompactOverlay& net = **made;
    std::vector<uint32_t> ids(n);
    for (uint32_t slot = 0; slot < n; ++slot) ids[slot] = net.id_of(slot);
    int bits = 0;
    while ((size_t{16} << bits) <= n) ++bits;  // the directory's id bits

    std::vector<uint32_t> probes = {0, 1, 0xFFFFFFFF, 0xFFFFFFFE};
    for (uint64_t j = 0; j < (uint64_t{1} << bits); ++j) {
      const uint32_t start = static_cast<uint32_t>(j << (32 - bits));
      probes.push_back(start);
      probes.push_back(start - 1);
      probes.push_back(start + 1);
    }
    for (uint32_t slot = 0; slot < n && slot < 2000; ++slot) {
      probes.push_back(net.id_of(slot));
      probes.push_back(net.id_of(slot) + 1);
    }
    for (int i = 0; i < 2000; ++i) probes.push_back(rng.Next32());

    // Every slot alive, then ~10% dead, then all but one dead.
    for (int phase = 0; phase < 3; ++phase) {
      if (phase == 1) {
        for (size_t i = 0; i < n / 10; ++i) {
          net.SetAlive(static_cast<uint32_t>(rng.NextBounded(n)), false);
        }
      } else if (phase == 2) {
        for (uint32_t i = 0; i < n; ++i) net.SetAlive(i, i == n / 2);
      }
      if (net.num_alive() == 0) net.SetAlive(0, true);
      const std::vector<uint32_t> next_alive = ReferenceNextAlive(
          n, [&](uint32_t slot) { return net.IsAlive(slot); });
      for (const uint32_t id : probes) {
        ASSERT_EQ(net.Owner(id), ReferenceOwner(ids, next_alive, id))
            << "n=" << n << " phase=" << phase << " id=" << id;
      }
    }
  }
}

// ------------------------------------------------------------- scenarios

ScenarioConfig SmallConfig(overlay::Kind kind, ChurnMode churn,
                           WorkloadShape shape = WorkloadShape::kUniform) {
  ScenarioConfig config;
  config.kind = kind;
  config.shape = shape;
  config.churn = churn;
  config.num_peers = 300;
  config.num_queries = 600;
  config.domain = 20000;
  config.seed = 5;
  return config;
}

TEST(ScenarioEngineTest, ValidatesConfig) {
  ScenarioConfig bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  bad.num_peers = 1;
  EXPECT_FALSE(ScenarioEngine::Make(bad).ok());
  bad = SmallConfig(overlay::Kind::kChord, ChurnMode::kNone);
  bad.crash_wave_fraction = 0.9;
  EXPECT_FALSE(ScenarioEngine::Make(bad).ok());
}

TEST(ScenarioEngineTest, DeterministicUnderSeed) {
  const ScenarioConfig config =
      SmallConfig(overlay::Kind::kChord, ChurnMode::kChurn);
  auto a = ScenarioEngine::Make(config);
  auto b = ScenarioEngine::Make(config);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = a->Run();
  auto rb = b->Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->ToJson(), rb->ToJson());
  EXPECT_GT(ra->queries, 0u);
}

// Pins one seeded report. The cache-on-miss publish reuses the
// identifiers the lookup probed, so it must report exactly what hashing
// the range a second time did. The hotspot shape on a small domain
// mixes exact hits (no publish) with approximate hits and misses, and
// churn adds stale evictions.
TEST(ScenarioEngineTest, SeededReportIsPinned) {
  ScenarioConfig config = SmallConfig(overlay::Kind::kChord, ChurnMode::kChurn,
                                      WorkloadShape::kHotspot);
  config.domain = 1000;
  auto engine = ScenarioEngine::Make(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->recall_sum, 520.81254938177506);
  EXPECT_EQ(report->hops, 27672u);
  EXPECT_EQ(report->messages, 38247u);
  EXPECT_EQ(report->descriptors_stored, 7575u);
  EXPECT_EQ(report->publishes, 505u);
  EXPECT_EQ(report->exact_hits, 95u);
  EXPECT_EQ(report->stale_evictions, 36u);
}

class ScenarioChurnTest : public ::testing::TestWithParam<overlay::Kind> {};

TEST_P(ScenarioChurnTest, NonzeroRecallUnderChurn) {
  auto engine =
      ScenarioEngine::Make(SmallConfig(GetParam(), ChurnMode::kChurn));
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->queries, 600u);
  EXPECT_GT(report->crashes, 0u);
  EXPECT_GT(report->recoveries, 0u);
  EXPECT_GT(report->recall_sum, 0.0)
      << overlay::KindName(GetParam()) << " produced no cache hits";
  EXPECT_GT(report->hops, 0u);
  EXPECT_GT(report->bytes, 0u);
}

TEST_P(ScenarioChurnTest, CrashWaveReportsRecoveryWindows) {
  ScenarioConfig config = SmallConfig(GetParam(), ChurnMode::kCrashWave);
  config.num_queries = 1200;
  config.crash_wave_fraction = 0.2;
  // Keep the wave-settle window (2x this) inside the ~1200 ms horizon
  // so the after-wave recall window actually sees queries.
  config.recover_delay_ms = 100.0;
  auto engine = ScenarioEngine::Make(config);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto report = engine->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->crashes, 0u);
  EXPECT_EQ(report->recoveries, report->crashes);
  EXPECT_GE(report->recall_before_wave, 0.0);
  EXPECT_GE(report->recall_during_wave, 0.0);
  EXPECT_GE(report->recall_after_wave, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScenarioChurnTest,
                         ::testing::Values(overlay::Kind::kChord,
                                           overlay::Kind::kCan,
                                           overlay::Kind::kTapestry),
                         [](const ::testing::TestParamInfo<overlay::Kind>& i) {
                           return std::string(overlay::KindName(i.param));
                         });

TEST(ScenarioEngineTest, WorkloadShapesAllComplete) {
  for (const WorkloadShape shape :
       {WorkloadShape::kUniform, WorkloadShape::kZipf,
        WorkloadShape::kHotspot}) {
    auto engine = ScenarioEngine::Make(
        SmallConfig(overlay::Kind::kChord, ChurnMode::kNone, shape));
    ASSERT_TRUE(engine.ok());
    auto report = engine->Run();
    ASSERT_TRUE(report.ok()) << WorkloadShapeName(shape);
    EXPECT_EQ(report->queries, 600u) << WorkloadShapeName(shape);
    EXPECT_GT(report->recall_sum, 0.0) << WorkloadShapeName(shape);
  }
}

TEST(ScenarioEngineTest, GaugesFlowIntoSystemMetrics) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->bytes_per_peer, 0u);
  EXPECT_GT(report->event_queue_depth, 0u);

  SystemMetrics m;
  report->FillMetrics(&m);
  EXPECT_EQ(m.bytes_per_peer, report->bytes_per_peer);
  EXPECT_EQ(m.event_queue_depth, report->event_queue_depth);
  EXPECT_EQ(m.range_lookups, report->queries);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"bytes_per_peer\":"), std::string::npos);
  EXPECT_NE(json.find("\"event_queue_depth\":"), std::string::npos);
}

TEST(ScenarioEngineTest, ReportJsonCarriesEveryField) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  auto report = engine->Run();
  ASSERT_TRUE(report.ok());
  const std::string json = report->ToJson();
  for (const char* key :
       {"queries", "exact_hits", "approx_hits", "misses", "mean_recall",
        "mean_hops", "messages", "bytes", "publishes", "descriptors_stored",
        "stale_evictions", "crashes", "recoveries", "recovery_ms",
        "bytes_per_peer", "event_queue_depth", "end_time_ms"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos)
        << key;
  }
}

TEST(ScenarioEngineTest, SingleThreadedByDesign) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->on_owner_thread());
  std::atomic<bool> other_thread_owns{true};
  std::thread probe(
      [&] { other_thread_owns = engine->on_owner_thread(); });
  probe.join();
  // Run() CHECK-fails off the owner thread instead of taking locks;
  // the ownership probe is the testable half of that contract.
  EXPECT_FALSE(other_thread_owns);
}

TEST(ScenarioEngineTest, RunIsSingleShot) {
  auto engine = ScenarioEngine::Make(
      SmallConfig(overlay::Kind::kChord, ChurnMode::kNone));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_DEATH_IF_SUPPORTED(static_cast<void>(engine->Run()), "");
}

}  // namespace
}  // namespace sim
}  // namespace p2prange
