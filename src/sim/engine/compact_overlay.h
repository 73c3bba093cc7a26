// Memory-compact routing models for the scenario engine.
//
// The heavy overlays under src/chord, src/can, and src/tapestry carry
// per-node objects (finger tables, zone lists, routing meshes) that
// cost kilobytes per peer — fine at 10^3 peers, hopeless at 10^6. The
// engine instead routes over *compact* models: a single sorted array
// of peer identifiers plus a Fenwick tree of alive flags, ~10 bytes
// per peer (Chord adds a rank directory of at most half a byte per
// peer), with each substrate's hop count derived from the same
// structural rules its heavy twin implements (Chord finger descent,
// CAN torus walks on a d-dimensional grid, Tapestry digit
// resolution). Peer "slots" are ranks in identifier order.
#ifndef P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
#define P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "overlay/overlay.h"

namespace p2prange {
namespace sim {

/// \brief Alive-set index: per-slot flags plus a Fenwick tree of
/// counts, so "first alive slot >= r (wrapping)" and "k-th alive
/// slot in [a, b)" are O(log n). NextAliveWrapping first scans
/// kScanWindow flags, so it walks the tree only when all of them are
/// dead or past the end: after a long dead run, or to wrap.
class AliveIndex {
 public:
  explicit AliveIndex(size_t n);

  void Set(uint32_t slot, bool alive);
  bool IsAlive(uint32_t slot) const { return alive_[slot] != 0; }
  size_t num_alive() const { return num_alive_; }
  size_t size() const { return alive_.size(); }

  /// Alive slots in [0, end).
  size_t CountBefore(uint32_t end) const;
  /// Alive slots in [begin, end).
  size_t CountIn(uint32_t begin, uint32_t end) const;

  /// First alive slot >= `slot`, wrapping past the end. Requires
  /// num_alive() > 0.
  uint32_t NextAliveWrapping(uint32_t slot) const;

  /// Flags NextAliveWrapping scans before it falls back to the tree:
  /// a cache line's worth of one-byte flags.
  static constexpr size_t kScanWindow = 64;

  /// The k-th (0-based) alive slot overall. Requires k < num_alive().
  uint32_t SelectAlive(size_t k) const;

  uint64_t MemoryBytes() const {
    return alive_.capacity() * sizeof(uint8_t) +
           tree_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> tree_;  ///< Fenwick tree over alive_ (1-based)
  size_t num_alive_ = 0;
};

/// \brief Rank directory over a sorted identifier array: the first
/// rank at or past the start of each bucket of the top
/// b = max(0, floor(log2 n) - 3) id bits. Buckets then hold ~8-16 ids,
/// so a lower_bound searches one bucket, not the whole array. It has
/// 2^b + 1 <= max(n/8, 1) + 1 entries: at most half a byte per id once
/// n >= 16.
class RankDirectory {
 public:
  /// `ids` must be sorted; the directory stays valid while they do not
  /// change.
  explicit RankDirectory(const std::vector<uint32_t>& ids);

  /// First rank whose id is >= `id` in the array the directory was
  /// built from, or ids.size() when there is none.
  size_t LowerBound(const std::vector<uint32_t>& ids, uint32_t id) const {
    const size_t j = static_cast<size_t>(uint64_t{id} >> shift_);
    // Every id in a later bucket exceeds `id`, so the answer lies in
    // `id`'s bucket or is the next bucket's first rank.
    return static_cast<size_t>(
        std::lower_bound(
            ids.begin() + static_cast<ptrdiff_t>(first_rank_[j]),
            ids.begin() + static_cast<ptrdiff_t>(first_rank_[j + 1]), id) -
        ids.begin());
  }

  uint64_t MemoryBytes() const {
    return first_rank_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> first_rank_;  ///< first_rank_[2^b] == n
  int shift_ = 32;                    ///< 32 - b: id >> shift_ is the bucket
};

/// \brief Substrate-shaped routing over the compact peer table.
///
/// All slot arguments are ranks in the engine's sorted identifier
/// order. Owner/Route require at least one alive peer; the engine
/// never fails its last peer.
class CompactOverlay {
 public:
  virtual ~CompactOverlay() = default;

  CompactOverlay(const CompactOverlay&) = delete;
  CompactOverlay& operator=(const CompactOverlay&) = delete;

  virtual overlay::Kind kind() const = 0;

  /// Owner slot of identifier `id` among alive peers (the oracle).
  virtual uint32_t Owner(uint32_t id) const = 0;

  /// Routes from `origin` to `id`'s owner; adds the substrate's hop
  /// count for the path to *hops and returns the owner slot.
  virtual uint32_t Route(uint32_t origin, uint32_t id, int* hops) const = 0;

  void SetAlive(uint32_t slot, bool alive) { alive_.Set(slot, alive); }
  bool IsAlive(uint32_t slot) const { return alive_.IsAlive(slot); }
  size_t num_alive() const { return alive_.num_alive(); }
  size_t num_peers() const { return ids_.size(); }
  uint32_t id_of(uint32_t slot) const { return ids_[slot]; }

  /// Successor-style replica slot `k` steps after `owner` in alive
  /// identifier order (the engine's uniform replica placement rule).
  uint32_t ReplicaSlot(uint32_t owner, int k) const;

  /// A uniformly random alive slot.
  uint32_t RandomAliveSlot(Rng& rng) const;

  virtual uint64_t MemoryBytes() const {
    return ids_.capacity() * sizeof(uint32_t) + alive_.MemoryBytes();
  }

 protected:
  /// `ids` must be sorted strictly increasing; slot i owns ids[i].
  explicit CompactOverlay(std::vector<uint32_t> ids);

  std::vector<uint32_t> ids_;
  AliveIndex alive_;
};

/// \brief Factory: draws `num_peers` distinct identifiers from `seed`
/// and builds the `kind` model (CAN uses `can_dims` torus dimensions).
Result<std::unique_ptr<CompactOverlay>> MakeCompactOverlay(
    overlay::Kind kind, size_t num_peers, uint64_t seed, int can_dims);

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_COMPACT_OVERLAY_H_
