#ifndef DKF_SERVE_INTERVAL_INDEX_H_
#define DKF_SERVE_INTERVAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dkf {

/// An index over the band/range intervals registered against one
/// source, answering the only question the serving hot path asks: when
/// the estimate moved from v0 to v1, which subscriptions' membership
/// changed?
///
/// An interval [lo, hi] changes membership across the move exactly when
/// one endpoint falls inside the swept range — with a = min(v0, v1),
/// b = max(v0, v1):
///   lost  the value: hi in [a, b) and lo <= a
///   gained the value: lo in (a, b] and hi >= b
/// Both are endpoint range scans, so two endpoint-sorted arrays answer
/// the query in O(log n + endpoints inside the sweep): a correction
/// touches only subscriptions near the moved value, never the full
/// registration set. (Intervals strictly inside the sweep are scanned
/// and filtered out — the value passed clean through them; membership
/// is sampled at tick boundaries, not along the path.)
///
/// Every entry carries the subscription's id, which breaks endpoint ties
/// (so the scan order depends only on the registered set, never on the
/// history that built it), and its slot in the owning engine's dense
/// subscription table, which is what a query returns. Inserts append to
/// both arrays and mark them dirty; they are re-sorted lazily on the next
/// query or erase, so a bulk registration phase costs one sort. An erase
/// binary-searches both sorted arrays for its (endpoint, id) key.
class IntervalIndex {
 public:
  /// Registers interval [lo, hi] for subscription `id` living in `slot`.
  /// Ids are unique (enforced by the engine).
  void Insert(int64_t id, uint32_t slot, double lo, double hi);

  /// Removes the interval registered for `id` with bounds [lo, hi];
  /// no-op if absent.
  void Erase(int64_t id, double lo, double hi);

  bool empty() const { return by_lo_.empty(); }
  size_t size() const { return by_lo_.size(); }

  /// Appends to `out` the slots whose membership of v1 differs from
  /// their membership of v0 (exactly — the endpoint filters above are
  /// tight), in scan order: the lost scan by (hi, id), then the gained
  /// scan by (lo, id). Returns the number of entries *scanned*, i.e. the
  /// fan-out work actually done, which callers report as "touched".
  size_t Changed(double v0, double v1, std::vector<uint32_t>* out);

 private:
  struct Entry {
    double lo = 0.0;
    double hi = 0.0;
    int64_t id = 0;
    uint32_t slot = 0;
  };

  void Sort();

  std::vector<Entry> by_lo_;  // sorted by (lo, id) unless dirty_
  std::vector<Entry> by_hi_;  // sorted by (hi, id) unless dirty_
  bool dirty_ = false;
};

}  // namespace dkf

#endif  // DKF_SERVE_INTERVAL_INDEX_H_
