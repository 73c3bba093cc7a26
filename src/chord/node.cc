#include "chord/node.h"

namespace p2prange {
namespace chord {

std::optional<NodeInfo> ChordNode::ClosestPrecedingNode(
    ChordId target, const std::function<bool(const NodeInfo&)>& usable) const {
  std::optional<NodeInfo> best;
  auto consider = [&](const NodeInfo& cand) {
    if (cand.id == info_.id) return;
    if (!InOpenOpen(info_.id, target, cand.id)) return;
    // "Closest preceding" = largest clockwise distance from self while
    // still strictly before the target. Distances are compared before
    // `usable` runs (the caller's liveness lookup): a descending finger
    // scan then asks it about once per hop.
    if (best &&
        ClockwiseDistance(info_.id, cand.id) <= ClockwiseDistance(info_.id, best->id)) {
      return;
    }
    if (usable && !usable(cand)) return;
    best = cand;
  };
  for (int i = FingerTable::size() - 1; i >= 0; --i) {
    if (fingers_.entry(i)) consider(*fingers_.entry(i));
  }
  for (const NodeInfo& s : successors_) consider(s);
  return best;
}

}  // namespace chord
}  // namespace p2prange
