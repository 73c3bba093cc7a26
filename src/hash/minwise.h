// The three range-hash families evaluated in the paper (§3.3, §5.1).
//
// Each family defines a permutation π over the 32-bit domain; hashing a
// range set Q means h(Q) = min{π(x) : x ∈ Q} (min-wise hashing), so
// Pr[h(Q) = h(R)] estimates the Jaccard similarity of Q and R.
#ifndef P2PRANGE_HASH_MINWISE_H_
#define P2PRANGE_HASH_MINWISE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "hash/bit_permutation.h"
#include "hash/range.h"

namespace p2prange {

/// \brief Which of the paper's hash-function families to use.
enum class HashFamilyType {
  kMinwise,        ///< full recursive bit-shuffle permutations (§3.3)
  kApproxMinwise,  ///< first shuffle iteration only (§5.1)
  kLinear,         ///< π(x) = (a·x + b) mod p, a ≠ 0 (§5.1, [Broder et al.])
};

/// Human-readable family name, matching the paper's figure legends.
const char* HashFamilyName(HashFamilyType family);

/// \brief One sampled permutation π with min-wise evaluation over
/// range sets (and arbitrary element sets).
class RangeHashFunction {
 public:
  virtual ~RangeHashFunction() = default;

  /// The underlying permutation applied to a single domain element.
  virtual uint32_t Permute(uint32_t x) const = 0;

  virtual HashFamilyType family() const = 0;

  /// h(Q) = min over x in [lo, hi] of Permute(x). Families override
  /// this with exact sublinear kernels (hash/kernels.h): O(log p) for
  /// linear permutations, O(log of the span) for the bit-shuffles —
  /// bit-identical to HashRangeNaive at every width, including the
  /// full 2³²-element domain. The base implementation is the naive
  /// scan.
  virtual uint32_t HashRange(const Range& q) const { return HashRangeNaive(q); }

  /// Reference O(|Q|) element-by-element scan — precisely the cost the
  /// paper's Figure 5 measures. Kept as the differential-testing
  /// oracle and the Fig. 5 baseline; do not use on wide ranges.
  uint32_t HashRangeNaive(const Range& q) const;

  /// Min-wise hash of an explicit element set (used for the Jaccard
  /// collision-probability property tests, which need non-contiguous
  /// sets). `elements` must be non-empty (hard CHECK: an empty set has
  /// no minimum, and the UINT32_MAX a release build used to return
  /// silently poisons XOR group signatures).
  uint32_t HashSet(std::span<const uint32_t> elements) const;
};

/// \brief Full min-wise independent permutation: all log2(W) shuffle
/// rounds. Strongest locality fidelity, most expensive to evaluate.
///
/// `pre_xor` composes the shuffle with a random XOR translation
/// (π(x) = shuffle(x ^ r)) — still a permutation of the domain, but it
/// removes the construction's fixed point at 0 (any bit-position
/// permutation maps 0 to 0, so without the mask every range containing
/// 0 hashes to 0 under every function). Off by default to stay
/// faithful to the paper; the ablation bench quantifies the effect.
class MinwiseHashFunction final : public RangeHashFunction {
 public:
  explicit MinwiseHashFunction(Rng& rng, bool pre_xor = false);

  uint32_t Permute(uint32_t x) const override { return perm_.Apply(x ^ pre_); }
  HashFamilyType family() const override { return HashFamilyType::kMinwise; }
  uint32_t HashRange(const Range& q) const override;

  const BitPermutation& permutation() const { return perm_; }

 private:
  BitPermutation perm_;
  uint32_t pre_ = 0;
  // Permute(x) == perm_.Apply(x) ^ out_xor_ by GF(2)-linearity; the
  // range-min kernel consumes this form.
  uint32_t out_xor_ = 0;
};

/// \brief Approximate min-wise permutation: the first shuffle round
/// only. Representable with a single 32-bit key; ~one fifth of the
/// full family's per-element work. See MinwiseHashFunction for
/// `pre_xor`.
class ApproxMinwiseHashFunction final : public RangeHashFunction {
 public:
  explicit ApproxMinwiseHashFunction(Rng& rng, bool pre_xor = false);

  uint32_t Permute(uint32_t x) const override { return perm_.Apply(x ^ pre_); }
  HashFamilyType family() const override { return HashFamilyType::kApproxMinwise; }
  uint32_t HashRange(const Range& q) const override;

  const BitPermutation& permutation() const { return perm_; }

 private:
  BitPermutation perm_;
  uint32_t pre_ = 0;
  uint32_t out_xor_ = 0;  // see MinwiseHashFunction
};

/// \brief Linear permutation π(x) = (a·x + b) mod p, a true
/// permutation of [0, p).
///
/// Two useful choices of p exist and the bench suite exercises both:
///  * p = kPrime (largest 32-bit prime, the default): hash values span
///    the whole identifier width — the sharp, high-quality variant.
///  * p = smallest prime >= |attribute domain| (Broder's classical
///    "permutation of the universe"): hash values stay domain-sized,
///    XOR signatures collapse to ~log2(p) bits, and buckets collide
///    across dissimilar ranges — which reproduces the poor match
///    quality the paper reports for linear permutations (Figure 7).
/// Domain values >= p alias under the modulus.
///
/// `prime` must actually be prime (hard CHECK; LshScheme::Make
/// rejects composite input with a Status instead): a composite
/// modulus silently makes π non-bijective, which skews Figure 7.
class LinearHashFunction final : public RangeHashFunction {
 public:
  static constexpr uint64_t kPrime = 4294967291ULL;

  explicit LinearHashFunction(Rng& rng, uint64_t prime = kPrime);
  /// Direct construction (tests). Requires 1 <= a < p, 0 <= b < p.
  LinearHashFunction(uint64_t a, uint64_t b, uint64_t prime = kPrime);

  uint32_t Permute(uint32_t x) const override {
    return static_cast<uint32_t>((a_ * x + b_) % prime_);
  }
  HashFamilyType family() const override { return HashFamilyType::kLinear; }
  uint32_t HashRange(const Range& q) const override;

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }
  uint64_t prime() const { return prime_; }

 private:
  uint64_t a_;
  uint64_t b_;
  uint64_t prime_;
};

/// \brief Smallest prime >= n (n >= 2); used to build domain-sized
/// linear permutations.
uint64_t NextPrimeAtLeast(uint64_t n);

/// \brief True iff n is prime (n >= 0; 0 and 1 are not prime).
/// Implemented on the NextPrimeAtLeast machinery; used to validate
/// linear-family moduli.
bool IsPrime(uint64_t n);

/// \brief Samples a fresh hash function of the given family.
/// `pre_xor` applies only to the bit-shuffle families (linear
/// permutations have no fixed-point artifact to remove);
/// `linear_prime` only to the linear family.
std::unique_ptr<RangeHashFunction> MakeHashFunction(
    HashFamilyType family, Rng& rng, bool pre_xor = false,
    uint64_t linear_prime = LinearHashFunction::kPrime);

}  // namespace p2prange

#endif  // P2PRANGE_HASH_MINWISE_H_
