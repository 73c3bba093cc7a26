// Exact sublinear range min-hash kernels.
//
// Every probe evaluates h(Q) = min{π(x) : x ∈ Q} for l×k permutations;
// a naive scan costs O(|Q|) per function (the cost the paper's
// Figure 5 measures) and is unusable for wide ranges. Both permutation
// families in use admit exact shortcuts over contiguous ranges:
//
//  * Linear, π(x) = (a·x + b) mod p: the values along [lo, hi] form an
//    arithmetic progression mod p. Its minimum is found by a
//    Euclidean-style recursion on (p, a) — each level rewrites the
//    minimum over the sub-sequence of post-wrap values, which is again
//    an arithmetic progression with a smaller modulus — in O(log p).
//
//  * Bit-shuffle (§3.3, full and approximate): the compiled
//    permutation is a pure bit-position permutation P, optionally
//    composed with an XOR translation, so π(x) = P(x) ⊕ c is
//    GF(2)-linear. [lo, hi] splits into its two endpoints and at most
//    2·d aligned dyadic blocks, d being the highest bit where lo and hi
//    differ (the range-efficient decomposition of Gudmundsson & Pagh).
//    Over a block whose low t input bits are free, the minimum of
//    P(x) ⊕ c is the block's fixed-bit image with the free bits'
//    output positions cleared; BitPermutation precomputes P(1 << t)
//    and P((1 << t) − 1), so each block costs a few branch-free ALU
//    ops and the whole kernel O(d) ≤ O(W).
//
// Both kernels return bit-identical results to the naive scan (the
// differential suite in tests/hash/kernels_test.cc pins this over
// ≥ 10⁵ random ranges per family), so LSH signatures, bucket
// placement, and every reproduced figure are unchanged.
#ifndef P2PRANGE_HASH_KERNELS_H_
#define P2PRANGE_HASH_KERNELS_H_

#include <cstdint>

#include "hash/bit_permutation.h"
#include "hash/range.h"

namespace p2prange {

/// \brief Exact min of (a·x + b) mod p over x ∈ [q.lo(), q.hi()] in
/// O(log p). Requires 1 <= a < p, 0 <= b < p, p prime (primality makes
/// a invertible, so ranges spanning >= p elements cover every residue
/// and the minimum is 0).
uint32_t MinLinearOverRange(uint64_t a, uint64_t b, uint64_t p, const Range& q);

/// \brief Exact min of perm.Apply(x) ^ out_xor over x ∈
/// [q.lo(), q.hi()] in O(d) block steps, d = the highest bit at which
/// q.lo() and q.hi() differ. Covers both shuffle families: a pre-XOR
/// translation r becomes out_xor = perm.Apply(r) by GF(2)-linearity of
/// the position permutation.
uint32_t MinPermutedOverRange(const BitPermutation& perm, uint32_t out_xor,
                              const Range& q);

}  // namespace p2prange

#endif  // P2PRANGE_HASH_KERNELS_H_
