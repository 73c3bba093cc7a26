#include "store/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "store/bucket_store.h"

namespace p2prange {
namespace {

PartitionKey Key(uint32_t lo, uint32_t hi, const std::string& rel = "Numbers",
                 const std::string& attr = "key") {
  return PartitionKey{rel, attr, Range(lo, hi)};
}

PartitionDescriptor Desc(uint32_t lo, uint32_t hi, uint16_t port = 1) {
  return PartitionDescriptor{Key(lo, hi), NetAddress{1, port}};
}

std::vector<Range> Overlapping(const IntervalIndex& index, const PartitionKey& q) {
  std::vector<Range> out;
  index.ForEachOverlapping(
      q, [&](const PartitionDescriptor& d) { out.push_back(d.key.range); });
  std::sort(out.begin(), out.end(), [](const Range& a, const Range& b) {
    return a.lo() < b.lo() || (a.lo() == b.lo() && a.hi() < b.hi());
  });
  return out;
}

TEST(IntervalIndexTest, EmptyIndex) {
  IntervalIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(Overlapping(index, Key(0, 100)).empty());
  EXPECT_EQ(index.AnyOfColumn(Key(0, 100)), nullptr);
}

TEST(IntervalIndexTest, BasicOverlapEnumeration) {
  IntervalIndex index;
  index.Insert(Desc(0, 10));
  index.Insert(Desc(20, 30));
  index.Insert(Desc(5, 25));
  index.Insert(Desc(40, 50));
  const auto hits = Overlapping(index, Key(8, 22));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], Range(0, 10));
  EXPECT_EQ(hits[1], Range(5, 25));
  EXPECT_EQ(hits[2], Range(20, 30));
}

TEST(IntervalIndexTest, ColumnsAreIsolated) {
  IntervalIndex index;
  index.Insert(Desc(0, 100));
  index.Insert(PartitionDescriptor{Key(0, 100, "Other"), NetAddress{1, 2}});
  index.Insert(PartitionDescriptor{Key(0, 100, "Numbers", "payload"),
                                   NetAddress{1, 3}});
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.num_columns(), 3u);
  EXPECT_EQ(Overlapping(index, Key(50, 60)).size(), 1u);
}

TEST(IntervalIndexTest, InsertRefreshUpdatesHolder) {
  IntervalIndex index;
  index.Insert(Desc(0, 10, 1));
  index.Insert(Desc(0, 10, 9));
  EXPECT_EQ(index.size(), 1u);
  const PartitionDescriptor* any = index.AnyOfColumn(Key(0, 10));
  ASSERT_NE(any, nullptr);
  EXPECT_EQ(any->holder.port, 9u);
}

TEST(IntervalIndexTest, KeyInTwoBucketsSurvivesOneErase) {
  // A store files one key under each bucket that holds it; the entry
  // must outlive every reference but the last.
  IntervalIndex index;
  index.Insert(Desc(0, 10, 1));
  index.Insert(Desc(0, 10, 1));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Erase(Key(0, 10)));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(Overlapping(index, Key(5, 6)).size(), 1u);
  EXPECT_TRUE(index.Erase(Key(0, 10)));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(Overlapping(index, Key(5, 6)).empty());
  EXPECT_FALSE(index.Erase(Key(0, 10)));
}

TEST(IntervalIndexTest, RefreshUpdatesHolderOfSurvivingEntry) {
  IntervalIndex index;
  index.Insert(Desc(0, 10, 1));
  index.Insert(Desc(0, 10, 9));  // second reference, new holder
  EXPECT_TRUE(index.Erase(Key(0, 10)));
  const PartitionDescriptor* any = index.AnyOfColumn(Key(0, 10));
  ASSERT_NE(any, nullptr);
  EXPECT_EQ(any->holder.port, 9u);
}

TEST(IntervalIndexTest, EraseRemovesAndCleansColumns) {
  IntervalIndex index;
  index.Insert(Desc(0, 10));
  index.Insert(Desc(20, 30));
  EXPECT_TRUE(index.Erase(Key(0, 10)));
  EXPECT_FALSE(index.Erase(Key(0, 10)));
  EXPECT_FALSE(index.Erase(Key(999, 1000)));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(Overlapping(index, Key(0, 15)).empty());
  EXPECT_TRUE(index.Erase(Key(20, 30)));
  EXPECT_EQ(index.num_columns(), 0u);
}

TEST(IntervalIndexTest, MutateBetweenQueries) {
  IntervalIndex index;
  index.Insert(Desc(0, 10));
  EXPECT_EQ(Overlapping(index, Key(5, 6)).size(), 1u);
  index.Insert(Desc(4, 8));
  EXPECT_EQ(Overlapping(index, Key(5, 6)).size(), 2u);  // lazy rebuild kicks in
  index.Erase(Key(0, 10));
  EXPECT_EQ(Overlapping(index, Key(5, 6)).size(), 1u);
}

TEST(IntervalIndexTest, DifferentialAgainstBruteForce) {
  Rng rng(77);
  IntervalIndex index;
  // Shadow set is keyed by range too, with the reference count each
  // key has in the index.
  std::vector<PartitionDescriptor> shadow;
  std::vector<int> shadow_refs;
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 6 || shadow.empty()) {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1000));
      const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(200));
      const PartitionDescriptor d = Desc(lo, hi);
      index.Insert(d);
      auto it = std::find_if(shadow.begin(), shadow.end(),
                             [&](const PartitionDescriptor& s) {
                               return s.key == d.key;
                             });
      if (it == shadow.end()) {
        shadow.push_back(d);
        shadow_refs.push_back(1);
      } else {
        ++shadow_refs[static_cast<size_t>(it - shadow.begin())];
      }
    } else if (op < 8) {
      const size_t victim = rng.NextBounded(shadow.size());
      EXPECT_TRUE(index.Erase(shadow[victim].key));
      if (--shadow_refs[victim] == 0) {
        shadow.erase(shadow.begin() + static_cast<long>(victim));
        shadow_refs.erase(shadow_refs.begin() + static_cast<long>(victim));
      }
    } else {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1100));
      const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(300));
      const PartitionKey q = Key(lo, hi);
      std::multiset<uint64_t> expected;
      for (const PartitionDescriptor& s : shadow) {
        if (q.range.Overlaps(s.key.range)) {
          expected.insert((static_cast<uint64_t>(s.key.range.lo()) << 32) |
                          s.key.range.hi());
        }
      }
      std::multiset<uint64_t> got;
      index.ForEachOverlapping(q, [&](const PartitionDescriptor& d) {
        got.insert((static_cast<uint64_t>(d.key.range.lo()) << 32) |
                   d.key.range.hi());
      });
      ASSERT_EQ(got, expected) << "step " << step;
    }
    ASSERT_EQ(index.size(), shadow.size());
  }
}

TEST(BucketStoreIndexTest, BestMatchAnywhereAgreesWithLinearScan) {
  Rng rng(99);
  BucketStore store;
  std::vector<std::pair<chord::ChordId, PartitionDescriptor>> shadow;
  for (int i = 0; i < 500; ++i) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1000));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(150));
    const chord::ChordId bucket = static_cast<chord::ChordId>(rng.NextBounded(40));
    const PartitionDescriptor d = Desc(lo, hi);
    store.Insert(bucket, d);
    shadow.emplace_back(bucket, d);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(1000));
    const PartitionKey q = Key(lo, lo + static_cast<uint32_t>(rng.NextBounded(200)));
    for (MatchCriterion criterion :
         {MatchCriterion::kJaccard, MatchCriterion::kContainment}) {
      // Reference: linear scan over every stored descriptor.
      double best_score = -1.0;
      for (const auto& [bucket, d] : shadow) {
        if (!d.key.SameColumn(q)) continue;
        const double score = criterion == MatchCriterion::kJaccard
                                 ? q.range.Jaccard(d.key.range)
                                 : q.range.ContainmentIn(d.key.range);
        best_score = std::max(best_score, score);
      }
      const auto got = store.BestMatchAnywhere(q, criterion);
      if (best_score < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_DOUBLE_EQ(got->similarity, best_score);
      }
    }
  }
}

TEST(BucketStoreIndexTest, EvictionKeepsIndexConsistent) {
  BucketStore store(/*max_descriptors=*/5);
  for (uint32_t i = 0; i < 30; ++i) {
    store.Insert(i % 3, Desc(i * 10, i * 10 + 15));
  }
  EXPECT_EQ(store.num_descriptors(), 5u);
  // The surviving 5 descriptors are the most recent: i = 25..29, i.e.
  // ranges [250,265] .. [290,305]. Older ranges must be gone from the
  // peer-wide matcher.
  auto old = store.BestMatchAnywhere(Key(0, 50), MatchCriterion::kJaccard);
  ASSERT_TRUE(old.has_value()) << "zero-score fallback still reports something";
  EXPECT_DOUBLE_EQ(old->similarity, 0.0);
  auto fresh = store.BestMatchAnywhere(Key(250, 265), MatchCriterion::kJaccard);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_DOUBLE_EQ(fresh->similarity, 1.0);
}

TEST(BucketStoreIndexTest, SameKeyInTwoBucketsSurvivesOneEviction) {
  BucketStore store;
  store.Insert(1, Desc(100, 200));
  store.Insert(2, Desc(100, 200));
  // Manual eviction path is internal; emulate with a capacity-bounded
  // store instead.
  BucketStore bounded(/*max_descriptors=*/2);
  bounded.Insert(1, Desc(100, 200));
  bounded.Insert(2, Desc(100, 200));
  bounded.Insert(3, Desc(500, 600));  // evicts (1, [100,200])
  auto match = bounded.BestMatchAnywhere(Key(100, 200), MatchCriterion::kJaccard);
  ASSERT_TRUE(match.has_value());
  EXPECT_DOUBLE_EQ(match->similarity, 1.0)
      << "the key still lives in bucket 2, so the index must keep it";
}

}  // namespace
}  // namespace p2prange
