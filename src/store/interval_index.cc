#include "store/interval_index.h"

#include <algorithm>

namespace p2prange {

void IntervalIndex::Column::Rebuild() const {
  sorted.clear();
  sorted.reserve(live.size());
  for (const auto& [packed, entry] : live) sorted.push_back(&entry.descriptor);
  std::sort(sorted.begin(), sorted.end(),
            [](const PartitionDescriptor* a, const PartitionDescriptor* b) {
              if (a->key.range.lo() != b->key.range.lo()) {
                return a->key.range.lo() < b->key.range.lo();
              }
              return a->key.range.hi() < b->key.range.hi();
            });
  prefix_max_hi.resize(sorted.size());
  uint32_t running = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    running = std::max(running, sorted[i]->key.range.hi());
    prefix_max_hi[i] = running;
  }
  dirty = false;
}

void IntervalIndex::Insert(const PartitionDescriptor& descriptor) {
  Column& col = columns_[ColumnKey(descriptor.key)];
  auto [it, inserted] = col.live.try_emplace(PackRange(descriptor.key.range),
                                             Column::Live{descriptor});
  ++it->second.refs;
  if (!inserted) {
    // Refresh: adopt the new holder, structure unchanged.
    it->second.descriptor.holder = descriptor.holder;
    return;
  }
  col.dirty = true;
  ++size_;
}

bool IntervalIndex::Erase(const PartitionKey& key) {
  auto cit = columns_.find(ColumnKey(key));
  if (cit == columns_.end()) return false;
  auto it = cit->second.live.find(PackRange(key.range));
  if (it == cit->second.live.end()) return false;
  if (--it->second.refs > 0) return true;
  cit->second.live.erase(it);
  --size_;
  if (cit->second.live.empty()) {
    columns_.erase(cit);
  } else {
    cit->second.dirty = true;
  }
  return true;
}

void IntervalIndex::ForEachOverlapping(
    const PartitionKey& query,
    const std::function<void(const PartitionDescriptor&)>& fn) const {
  auto cit = columns_.find(ColumnKey(query));
  if (cit == columns_.end()) return;
  const Column& col = cit->second;
  if (col.dirty) col.Rebuild();
  if (col.sorted.empty()) return;
  // Entries with lo <= query.hi form a prefix of the sorted order.
  const Range& q = query.range;
  auto past = std::upper_bound(
      col.sorted.begin(), col.sorted.end(), q.hi(),
      [](uint32_t hi, const PartitionDescriptor* d) {
        return hi < d->key.range.lo();
      });
  // Walk that prefix backwards; once the prefix-maximum of ends drops
  // below query.lo no earlier entry can overlap.
  for (auto i = static_cast<int64_t>(past - col.sorted.begin()) - 1; i >= 0; --i) {
    if (col.prefix_max_hi[static_cast<size_t>(i)] < q.lo()) break;
    const PartitionDescriptor* d = col.sorted[static_cast<size_t>(i)];
    if (d->key.range.hi() >= q.lo()) fn(*d);
  }
}

const PartitionDescriptor* IntervalIndex::AnyOfColumn(
    const PartitionKey& query) const {
  auto cit = columns_.find(ColumnKey(query));
  if (cit == columns_.end() || cit->second.live.empty()) return nullptr;
  if (cit->second.dirty) cit->second.Rebuild();
  return cit->second.sorted.front();
}

}  // namespace p2prange
