#include "chord/node.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.h"

namespace p2prange {
namespace chord {
namespace {

NodeInfo Info(ChordId id) {
  return NodeInfo{id, NetAddress{id, static_cast<uint16_t>(id & 0xFFFF)}};
}

TEST(FingerTableTest, EntriesStartUnset) {
  FingerTable ft;
  for (int i = 0; i < FingerTable::size(); ++i) {
    EXPECT_FALSE(ft.entry(i).has_value());
  }
}

TEST(FingerTableTest, SetClearRoundTrip) {
  FingerTable ft;
  ft.set_entry(3, Info(77));
  ASSERT_TRUE(ft.entry(3).has_value());
  EXPECT_EQ(ft.entry(3)->id, 77u);
  ft.clear_entry(3);
  EXPECT_FALSE(ft.entry(3).has_value());
}

TEST(ChordNodeTest, SuccessorDefaultsToSelf) {
  ChordNode n(100, NetAddress{1, 1});
  EXPECT_EQ(n.successor(), n.info());
}

TEST(ChordNodeTest, OwnsIdUsesPredecessor) {
  ChordNode n(1000, NetAddress{1, 1});
  n.set_predecessor(Info(500));
  EXPECT_TRUE(n.OwnsId(1000));
  EXPECT_TRUE(n.OwnsId(501));
  EXPECT_TRUE(n.OwnsId(750));
  EXPECT_FALSE(n.OwnsId(500));
  EXPECT_FALSE(n.OwnsId(1001));
  EXPECT_FALSE(n.OwnsId(0));
}

TEST(ChordNodeTest, OwnsIdWrapsAroundZero) {
  ChordNode n(10, NetAddress{1, 1});
  n.set_predecessor(Info(0xFFFFFF00));
  EXPECT_TRUE(n.OwnsId(0));
  EXPECT_TRUE(n.OwnsId(10));
  EXPECT_TRUE(n.OwnsId(0xFFFFFFFF));
  EXPECT_FALSE(n.OwnsId(11));
  EXPECT_FALSE(n.OwnsId(0xFFFFFF00));
}

TEST(ChordNodeTest, ClosestPrecedingPicksLargestBeforeTarget) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_fingers().set_entry(4, Info(16));
  n.mutable_fingers().set_entry(7, Info(128));
  n.mutable_fingers().set_entry(10, Info(1024));
  auto best = n.ClosestPrecedingNode(/*target=*/500, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 128u);  // 1024 overshoots, 128 is the closest below
}

TEST(ChordNodeTest, ClosestPrecedingConsidersSuccessorList) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_successors().push_back(Info(100));
  n.mutable_successors().push_back(Info(300));
  auto best = n.ClosestPrecedingNode(350, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 300u);
}

TEST(ChordNodeTest, ClosestPrecedingRespectsUsablePredicate) {
  ChordNode n(0, NetAddress{0, 0});
  n.mutable_fingers().set_entry(7, Info(128));
  n.mutable_fingers().set_entry(4, Info(16));
  auto best = n.ClosestPrecedingNode(
      500, [](const NodeInfo& cand) { return cand.id != 128; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 16u);
}

TEST(ChordNodeTest, ClosestPrecedingNoneWhenNothingImproves) {
  ChordNode n(100, NetAddress{0, 0});
  n.mutable_fingers().set_entry(0, Info(600));  // beyond the target
  EXPECT_FALSE(n.ClosestPrecedingNode(400, nullptr).has_value());
}

TEST(ChordNodeTest, ClosestPrecedingIgnoresSelfEntries) {
  ChordNode n(100, NetAddress{0, 0});
  n.mutable_fingers().set_entry(0, NodeInfo{100, NetAddress{0, 0}});
  EXPECT_FALSE(n.ClosestPrecedingNode(400, nullptr).has_value());
}

TEST(ChordNodeTest, ClosestPrecedingWrapsTarget) {
  // Node high on the ring routing toward a target past zero.
  ChordNode n(0xFFFFF000, NetAddress{0, 0});
  n.mutable_fingers().set_entry(10, Info(0xFFFFFF00));
  n.mutable_fingers().set_entry(20, Info(0x00000100));  // past the target
  auto best = n.ClosestPrecedingNode(/*target=*/0x80, nullptr);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 0xFFFFFF00u);
}

// The evaluation order ClosestPrecedingNode had before it compared
// distances ahead of the liveness test: ask `usable` of every in-range
// candidate, then keep the strictly farthest.
std::optional<NodeInfo> ReferenceClosestPreceding(
    const ChordNode& n, ChordId target,
    const std::function<bool(const NodeInfo&)>& usable) {
  std::optional<NodeInfo> best;
  auto consider = [&](const NodeInfo& cand) {
    if (cand.id == n.id()) return;
    if (!InOpenOpen(n.id(), target, cand.id)) return;
    if (usable && !usable(cand)) return;
    if (!best || ClockwiseDistance(n.id(), cand.id) >
                     ClockwiseDistance(n.id(), best->id)) {
      best = cand;
    }
  };
  for (int i = FingerTable::size() - 1; i >= 0; --i) {
    if (n.fingers().entry(i)) consider(*n.fingers().entry(i));
  }
  for (const NodeInfo& s : n.successors()) consider(s);
  return best;
}

// A node with random fingers (some unset) and a random successor list,
// their ids drawn within `span` past its own. A small span makes
// repeated ids, self entries and in-range candidates common.
ChordNode RandomNode(Rng& rng, uint32_t span) {
  const ChordId self = rng.Next32();
  auto near = [&]() { return self + static_cast<ChordId>(rng.NextBounded(span)); };
  ChordNode n(self, NetAddress{self, 1});
  for (int i = 0; i < FingerTable::size(); ++i) {
    if (rng.NextBernoulli(0.7)) n.mutable_fingers().set_entry(i, Info(near()));
  }
  const uint64_t succ = rng.NextBounded(9);
  for (uint64_t i = 0; i < succ; ++i) n.mutable_successors().push_back(Info(near()));
  return n;
}

TEST(ChordNodeTest, ClosestPrecedingMatchesReferenceOrder) {
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    const uint32_t span = trial % 2 == 0 ? 64 : 0xFFFFFFFF;
    const ChordNode n = RandomNode(rng, span);
    const ChordId target = n.id() + static_cast<ChordId>(rng.NextBounded(span));
    std::unordered_set<ChordId> dead;
    const double dead_share = static_cast<double>(trial % 5) / 4.0;
    for (int i = 0; i < FingerTable::size(); ++i) {
      if (n.fingers().entry(i) && rng.NextBernoulli(dead_share)) {
        dead.insert(n.fingers().entry(i)->id);
      }
    }
    for (const NodeInfo& s : n.successors()) {
      if (rng.NextBernoulli(dead_share)) dead.insert(s.id);
    }
    auto usable = [&](const NodeInfo& c) { return !dead.contains(c.id); };
    const auto want = ReferenceClosestPreceding(n, target, usable);
    const auto got = n.ClosestPrecedingNode(target, usable);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (want) {
      ASSERT_EQ(*got, *want) << "trial " << trial;
    }
    ASSERT_EQ(n.ClosestPrecedingNode(target, nullptr),
              ReferenceClosestPreceding(n, target, nullptr))
        << "trial " << trial;
  }
}

// `usable` runs only for a candidate that would beat the best usable
// candidate so far; with a descending finger scan over live peers that
// is once per hop.
TEST(ChordNodeTest, ClosestPrecedingAsksUsableOnlyOfImprovingCandidates) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const ChordNode n = RandomNode(rng, 0xFFFFFFFF);
    const ChordId target = rng.Next32();
    std::unordered_set<ChordId> dead;
    for (int i = 0; i < FingerTable::size(); ++i) {
      if (n.fingers().entry(i) && rng.NextBernoulli(0.3)) {
        dead.insert(n.fingers().entry(i)->id);
      }
    }
    // Improving candidates: in range, and strictly farther than the
    // best usable candidate seen before them in evaluation order.
    int improving = 0;
    std::optional<uint32_t> best_dist;
    auto count = [&](const NodeInfo& c) {
      if (c.id == n.id() || !InOpenOpen(n.id(), target, c.id)) return;
      const uint32_t d = ClockwiseDistance(n.id(), c.id);
      if (best_dist && d <= *best_dist) return;
      ++improving;
      if (!dead.contains(c.id)) best_dist = d;
    };
    for (int i = FingerTable::size() - 1; i >= 0; --i) {
      if (n.fingers().entry(i)) count(*n.fingers().entry(i));
    }
    for (const NodeInfo& s : n.successors()) count(s);

    int calls = 0;
    auto usable = [&](const NodeInfo& c) {
      ++calls;
      return !dead.contains(c.id);
    };
    (void)n.ClosestPrecedingNode(target, usable);
    ASSERT_LE(calls, improving) << "trial " << trial;
  }

  // A perfect finger table, every peer alive: one call per decision.
  ChordNode n(0, NetAddress{0, 0});
  for (int i = 0; i < FingerTable::size(); ++i) {
    n.mutable_fingers().set_entry(i, Info(FingerStart(0, i)));
  }
  int calls = 0;
  auto best = n.ClosestPrecedingNode(0x12345678, [&](const NodeInfo&) {
    ++calls;
    return true;
  });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 0x10000000u);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace chord
}  // namespace p2prange
