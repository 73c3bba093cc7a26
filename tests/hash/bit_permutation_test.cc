#include "hash/bit_permutation.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bit_utils.h"
#include "common/random.h"

namespace p2prange {
namespace {

TEST(BitShuffleKeysTest, SamplesOneKeyPerLevel) {
  Rng rng(1);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  // Block sizes 32, 16, 8, 4, 2 -> 5 levels.
  EXPECT_EQ(keys.num_levels(), 5);
  int block = 32;
  for (int i = 0; i < keys.num_levels(); ++i) {
    EXPECT_EQ(bits::PopCount(keys.level_keys[i]), block / 2)
        << "level " << i << " key must be balanced";
    EXPECT_EQ(keys.level_keys[i] & ~bits::LowMask(block), 0u)
        << "level " << i << " key exceeds its block width";
    block /= 2;
  }
}

TEST(BitShuffleKeysTest, EightBitMatchesPaperFigure3Shape) {
  Rng rng(2);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(8, rng);
  // 8-bit key with 4 ones, 4-bit key with 2 ones, 2-bit key with 1 one
  // — exactly the paper's construction.
  ASSERT_EQ(keys.num_levels(), 3);
  EXPECT_EQ(bits::PopCount(keys.level_keys[0]), 4);
  EXPECT_EQ(bits::PopCount(keys.level_keys[1]), 2);
  EXPECT_EQ(bits::PopCount(keys.level_keys[2]), 1);
}

TEST(BitPermutationTest, PositionMapIsAPermutation) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
    for (int rounds = 1; rounds <= keys.num_levels(); ++rounds) {
      const BitPermutation perm(keys, rounds);
      std::set<int> targets;
      for (int j = 0; j < 32; ++j) {
        const int p = perm.position_map()[j];
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 32);
        targets.insert(p);
      }
      EXPECT_EQ(targets.size(), 32u) << "position map must be bijective";
    }
  }
}

TEST(BitPermutationTest, BlockImagesMatchApply) {
  Rng rng(5);
  for (const int width : {8, 16, 32}) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(width, rng);
    for (int rounds = 1; rounds <= keys.num_levels(); ++rounds) {
      const BitPermutation perm(keys, rounds);
      for (int t = 0; t < 32; ++t) {
        EXPECT_EQ(perm.bit_image(t), perm.Apply(1u << t))
            << "width " << width << " rounds " << rounds << " t " << t;
        EXPECT_EQ(perm.low_image(t), perm.Apply((1u << t) - 1))
            << "width " << width << " rounds " << rounds << " t " << t;
        // The range-min kernel relies on each in-width input bit moving
        // exactly one output bit, disjoint from the bits below it.
        if (t < width) {
          EXPECT_EQ(perm.bit_image(t), 1u << perm.position_map()[t]);
          EXPECT_EQ(perm.low_image(t) & perm.bit_image(t), 0u);
        }
      }
    }
  }
}

TEST(BitPermutationTest, TableMatchesNaiveReference) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
    for (int rounds : {1, 3, 5}) {
      const BitPermutation perm(keys, rounds);
      Rng values(trial * 100 + rounds);
      for (int i = 0; i < 200; ++i) {
        const uint32_t x = values.Next32();
        EXPECT_EQ(perm.Apply(x), perm.ApplyNaive(x))
            << "x=" << x << " rounds=" << rounds;
      }
      EXPECT_EQ(perm.Apply(0), perm.ApplyNaive(0));
      EXPECT_EQ(perm.Apply(~0u), perm.ApplyNaive(~0u));
    }
  }
}

TEST(BitPermutationTest, ExhaustivelyBijectiveOn16BitDomain) {
  Rng rng(5);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(16, rng);
  const BitPermutation perm(keys, keys.num_levels());
  std::vector<bool> seen(1 << 16, false);
  for (uint32_t x = 0; x < (1u << 16); ++x) {
    const uint32_t y = perm.Apply(x);
    ASSERT_LT(y, 1u << 16) << "image must stay within the domain";
    ASSERT_FALSE(seen[y]) << "collision at " << x;
    seen[y] = true;
  }
}

TEST(BitPermutationTest, SingleRoundSheepAndGoatsSemantics) {
  // Hand-computed example, width 8: key 0b11001010 selects bits
  // {1,3,6,7} to the upper half (in order), rest to the lower half.
  BitShuffleKeys keys;
  keys.width = 8;
  keys.level_keys = {0b11001010};
  const BitPermutation perm(keys, 1);
  // x = 0b01000010: bit1=1 (selected, first) and bit6=1 (selected,
  // third). Upper half order: bit1->pos4, bit3->pos5, bit6->pos6,
  // bit7->pos7. So result = (1<<4) | (1<<6).
  EXPECT_EQ(perm.Apply(0b01000010), 0b01010000u);
  // x = 0b00100001: bit0 (unselected, first clear) -> pos0; bit5
  // (unselected: clear bits are 0,2,4,5 so bit5 is 4th) -> pos3.
  EXPECT_EQ(perm.Apply(0b00100001), 0b00001001u);
}

TEST(BitPermutationTest, RoundsComposeIncrementally) {
  // With the same keys, the (r+1)-round position map equals the
  // r-round map followed by one more sheep-and-goats round — i.e. each
  // additional round refines within ever smaller blocks, so positions
  // can only move within their current block.
  Rng rng(6);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  for (int r = 1; r < keys.num_levels(); ++r) {
    const BitPermutation shorter(keys, r);
    const BitPermutation longer(keys, r + 1);
    const int block = 32 >> r;  // block size of round r+1
    for (int j = 0; j < 32; ++j) {
      const int before = shorter.position_map()[j];
      const int after = longer.position_map()[j];
      EXPECT_EQ(before / block, after / block)
          << "round " << r + 1 << " moved bit " << j << " across blocks";
    }
  }
}

TEST(BitPermutationTest, ApproxDiffersFromFullAlmostEverywhere) {
  Rng rng(8);
  const BitShuffleKeys keys = BitShuffleKeys::Sample(32, rng);
  const BitPermutation one_round(keys, 1);
  const BitPermutation full(keys, keys.num_levels());
  int differing = 0;
  for (uint32_t x = 1; x < 1000; ++x) {
    if (one_round.Apply(x) != full.Apply(x)) ++differing;
  }
  EXPECT_GT(differing, 900);
}

TEST(BitPermutationTest, DistinctKeysGiveDistinctPermutations) {
  Rng rng(7);
  const BitShuffleKeys k1 = BitShuffleKeys::Sample(32, rng);
  const BitShuffleKeys k2 = BitShuffleKeys::Sample(32, rng);
  const BitPermutation p1(k1, k1.num_levels());
  const BitPermutation p2(k2, k2.num_levels());
  int differing = 0;
  for (uint32_t x = 0; x < 1000; ++x) {
    if (p1.Apply(x) != p2.Apply(x)) ++differing;
  }
  EXPECT_GT(differing, 950);
}

}  // namespace
}  // namespace p2prange
