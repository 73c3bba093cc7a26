// The recursive bit-shuffle permutation of paper §3.3.
//
// One *round* at block size B permutes each aligned B-bit block of the
// word with a "sheep and goats" move: the bits selected by a B-bit key
// (which has exactly B/2 set bits) go to the upper half of the block in
// order; the rest go to the lower half in order. The full min-wise
// permutation applies rounds at block sizes W, W/2, ..., 2 (log2(W)-?
// precisely: W down to 2, i.e. log2(W) rounds... see below); the
// *approximate* family of §5.1 applies only the first round.
//
// Every round maps bit positions to bit positions independent of the
// word's value, so the whole operation composes into a single position
// permutation. We compile that into per-byte lookup tables, and keep a
// round-by-round naive evaluator as the executable specification.
#ifndef P2PRANGE_HASH_BIT_PERMUTATION_H_
#define P2PRANGE_HASH_BIT_PERMUTATION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace p2prange {

/// \brief The per-round keys of a §3.3 permutation over a W-bit domain.
///
/// Level i (0-based) has block size W >> i and one key of that width
/// with exactly half its bits set; the same key is reused for every
/// block at that level, exactly as in the paper's Figure 3 (which is
/// why the full 8-bit key set "is representable as two 8-bit
/// integers").
struct BitShuffleKeys {
  int width = 32;
  std::vector<uint64_t> level_keys;  // level_keys[i] has (width>>i)/2 set bits

  /// Samples uniform balanced keys for all levels down to block size 2.
  static BitShuffleKeys Sample(int width, Rng& rng);

  /// Number of levels (block sizes W, W/2, ..., 2).
  int num_levels() const { return static_cast<int>(level_keys.size()); }
};

/// \brief A compiled §3.3 permutation: `rounds` shuffle levels applied
/// in sequence. rounds == 1 gives the approximate family; rounds ==
/// keys.num_levels() gives the full min-wise family.
class BitPermutation {
 public:
  /// `width` must be 8, 16, 32, or 64; `rounds` in [1, keys.num_levels()].
  BitPermutation(const BitShuffleKeys& keys, int rounds);

  int width() const { return width_; }
  int rounds() const { return rounds_; }

  /// Fast table-compiled application (4 byte lookups for width 32).
  uint32_t Apply(uint32_t x) const {
    uint32_t out = 0;
    for (int i = 0; i < num_bytes_; ++i) {
      out |= table_[i][(x >> (8 * i)) & 0xFF];
    }
    return out;
  }

  /// Round-by-round reference implementation of the paper's Figure 3;
  /// used by tests to validate the compiled form.
  uint32_t ApplyNaive(uint32_t x) const;

  /// The composed bit-position map: output bit position_map()[j] takes
  /// the value of input bit j.
  const std::array<int, 64>& position_map() const { return position_map_; }

  /// Apply(1 << t): where input bit t lands. For t < 32.
  uint32_t bit_image(int t) const { return bit_image_[t]; }

  /// Apply((1 << t) - 1): the output positions of input bits below t.
  /// For t < 32. Together with bit_image() these drive the dyadic-block
  /// range-min kernel (hash/kernels.h).
  uint32_t low_image(int t) const { return low_image_[t]; }

 private:
  int width_;
  int rounds_;
  int num_bytes_;
  BitShuffleKeys keys_;
  std::array<int, 64> position_map_;
  std::array<uint32_t, 32> bit_image_;
  std::array<uint32_t, 32> low_image_;
  // table_[i][v]: contribution of input byte i holding value v.
  std::vector<std::array<uint32_t, 256>> table_;
};

}  // namespace p2prange

#endif  // P2PRANGE_HASH_BIT_PERMUTATION_H_
