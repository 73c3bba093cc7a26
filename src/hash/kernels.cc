#include "hash/kernels.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace p2prange {

namespace {

// min over 0 <= i < n of (b + a*i) mod m, for n >= 1, m >= 1,
// 0 <= a < m, 0 <= b < m.
//
// The sequence climbs by a and drops by m at each wrap. Candidate
// minima are the start value b and the value just after each wrap;
// the value after the j-th wrap is b + a*i - m*j ∈ [0, a), which is
// congruent to b - m*j (mod a). Those post-wrap values therefore form
// another arithmetic progression — first term (b - m) mod a, step
// (-m) mod a — over the smaller modulus a, and the loop descends into
// it. The modulus pair evolves like the Euclidean algorithm
// ((m, a) -> (a, a - m mod a), which at least halves every two
// levels), so the loop runs O(log m) times.
//
// No product here overflows: a < m <= 2^32 - 5 and n <= m at every
// level (at the top level the caller guarantees n < p; below it,
// n' = wraps <= a*n/m < n), so a*(n-1) + b < 2^64.
uint64_t MinModSequence(uint64_t n, uint64_t m, uint64_t a, uint64_t b) {
  uint64_t best = b;
  for (;;) {
    if (b < best) best = b;
    if (best == 0 || a == 0) return best;
    // Wraps reached within the first n terms: the j-th wrap happens at
    // index i = ceil((m*j - b) / a), so i <= n-1 iff j <= (a*(n-1)+b)/m.
    const uint64_t wraps = (a * (n - 1) + b) / m;
    if (wraps == 0) return best;
    // Three 64-bit divisions per level dominate the kernel's cost, so
    // the (< 2a)-sized reductions below use compares, not a fourth and
    // fifth division.
    const uint64_t r = m % a;       // m mod a, in [0, a)
    const uint64_t br = b % a;      // b mod a, in [0, a)
    const uint64_t next_b = br >= r ? br - r : br + a - r;  // (b - m) mod a
    const uint64_t next_a = r == 0 ? 0 : a - r;             // (-m) mod a
    n = wraps;
    m = a;
    a = next_a;
    b = next_b;
  }
}

}  // namespace

uint32_t MinLinearOverRange(uint64_t a, uint64_t b, uint64_t p, const Range& q) {
  DCHECK_GE(a, 1u);
  DCHECK_LT(a, p);
  DCHECK_LT(b, p);
  const uint64_t n = q.size();
  // a is invertible mod prime p, so n >= p terms cover every residue.
  if (n >= p) return 0;
  // (a*x + b) mod p over x = lo + t is (c + a*t) mod p over t < n;
  // domain values >= p alias exactly as in the per-element evaluation.
  const uint64_t c = (a * q.lo() + b) % p;
  return static_cast<uint32_t>(MinModSequence(n, p, a, c));
}

uint32_t MinPermutedOverRange(const BitPermutation& perm, uint32_t out_xor,
                              const Range& q) {
  const uint32_t lo = q.lo();
  const uint32_t hi = q.hi();
  const uint32_t at_lo = perm.Apply(lo) ^ out_xor;
  const uint32_t at_hi = perm.Apply(hi) ^ out_xor;
  uint32_t best = std::min(at_lo, at_hi);
  if (lo == hi) return best;
  // Below the highest differing bit d, [lo, hi] is {lo, hi} plus one
  // aligned block per bit t < d: where lo has a 0, the block that
  // shares lo's bits above t, sets bit t and frees the bits below it;
  // where hi has a 1, the block that shares hi's bits above t, clears
  // bit t and frees the bits below it. A free input bit moves one
  // output bit, so a block's minimum is its endpoint's image with bit
  // t flipped and the free bits' images cleared. A block that does not
  // exist is masked to all-ones, which never wins the min.
  const int d = 31 - std::countl_zero(lo ^ hi);
  for (int t = 0; t < d; ++t) {
    const uint32_t flip = perm.bit_image(t);
    const uint32_t keep = ~perm.low_image(t);
    const uint32_t left = ((at_lo ^ flip) & keep) | (0u - ((lo >> t) & 1u));
    const uint32_t right = ((at_hi ^ flip) & keep) | (0u - (~hi >> t & 1u));
    best = std::min(best, std::min(left, right));
  }
  return best;
}

}  // namespace p2prange
