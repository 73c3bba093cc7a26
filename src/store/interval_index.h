// A per-column interval index over cached partition ranges.
//
// The §5.3 peer-wide matcher must find, among every descriptor a peer
// holds, the best match for a query range. A linear scan is O(n) per
// probe; this index keeps each column's ranges sorted by start with a
// prefix-maximum of ends, so the overlapping set is enumerated in
// O(log n + k) after a lazy O(n log n) rebuild following mutations.
// (This realizes the "build up an index over all the partitions that
// get stored ... at a peer" idea the paper sketches.)
#ifndef P2PRANGE_STORE_INTERVAL_INDEX_H_
#define P2PRANGE_STORE_INTERVAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/partition_key.h"

namespace p2prange {

/// \brief Index of partition descriptors addressable by column and
/// queried by range overlap.
class IntervalIndex {
 public:
  /// Adds one reference to `descriptor.key`: inserts the entry, or
  /// refreshes the holder of the one already indexed. A store that
  /// files one key under several buckets inserts it once per bucket.
  void Insert(const PartitionDescriptor& descriptor);

  /// Drops one reference to `key`; the entry leaves the index with its
  /// last reference. False if absent.
  bool Erase(const PartitionKey& key);

  /// Calls `fn` for every descriptor of `query`'s column whose range
  /// overlaps `query.range`.
  void ForEachOverlapping(
      const PartitionKey& query,
      const std::function<void(const PartitionDescriptor&)>& fn) const;

  /// Any descriptor of the query's column (the zero-similarity
  /// fallback the §4 protocol returns when nothing overlaps), or
  /// nullptr if the column is empty. Stable across calls between
  /// mutations.
  const PartitionDescriptor* AnyOfColumn(const PartitionKey& query) const;

  /// Distinct keys indexed (not references).
  size_t size() const { return size_; }
  size_t num_columns() const { return columns_.size(); }

 private:
  struct Column {
    struct Live {
      PartitionDescriptor descriptor;
      size_t refs = 0;
    };
    // Live descriptors keyed by packed (lo, hi).
    std::unordered_map<uint64_t, Live> live;
    // Lazily rebuilt query structures, sorted by range start.
    mutable std::vector<const PartitionDescriptor*> sorted;
    mutable std::vector<uint32_t> prefix_max_hi;
    mutable bool dirty = true;

    void Rebuild() const;
  };

  static uint64_t PackRange(const Range& r) {
    return (static_cast<uint64_t>(r.lo()) << 32) | r.hi();
  }
  static std::string ColumnKey(const PartitionKey& k) {
    return k.relation + "|" + k.attribute;
  }

  std::unordered_map<std::string, Column> columns_;
  size_t size_ = 0;
};

}  // namespace p2prange

#endif  // P2PRANGE_STORE_INTERVAL_INDEX_H_
