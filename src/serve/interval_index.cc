#include "serve/interval_index.h"

#include <algorithm>

namespace dkf {

namespace {

/// The (endpoint, id) order both sorted arrays keep.
bool KeyLess(double bound_a, int64_t id_a, double bound_b, int64_t id_b) {
  if (bound_a != bound_b) return bound_a < bound_b;
  return id_a < id_b;
}

}  // namespace

void IntervalIndex::Insert(int64_t id, uint32_t slot, double lo, double hi) {
  by_lo_.push_back({lo, hi, id, slot});
  by_hi_.push_back({lo, hi, id, slot});
  dirty_ = true;
}

void IntervalIndex::Erase(int64_t id, double lo, double hi) {
  if (dirty_) Sort();
  auto lo_it = std::partition_point(
      by_lo_.begin(), by_lo_.end(),
      [&](const Entry& e) { return KeyLess(e.lo, e.id, lo, id); });
  if (lo_it == by_lo_.end() || lo_it->id != id) return;
  by_lo_.erase(lo_it);
  auto hi_it = std::partition_point(
      by_hi_.begin(), by_hi_.end(),
      [&](const Entry& e) { return KeyLess(e.hi, e.id, hi, id); });
  if (hi_it != by_hi_.end() && hi_it->id == id) by_hi_.erase(hi_it);
}

void IntervalIndex::Sort() {
  // Inserts come in bursts (setup, churn); drop the growth slack once the
  // burst is folded in.
  by_lo_.shrink_to_fit();
  by_hi_.shrink_to_fit();
  std::sort(by_lo_.begin(), by_lo_.end(), [](const Entry& a, const Entry& b) {
    return KeyLess(a.lo, a.id, b.lo, b.id);
  });
  std::sort(by_hi_.begin(), by_hi_.end(), [](const Entry& a, const Entry& b) {
    return KeyLess(a.hi, a.id, b.hi, b.id);
  });
  dirty_ = false;
}

size_t IntervalIndex::Changed(double v0, double v1,
                              std::vector<uint32_t>* out) {
  if (by_lo_.empty() || v0 == v1) return 0;
  if (dirty_) Sort();
  const double a = std::min(v0, v1);
  const double b = std::max(v0, v1);
  size_t scanned = 0;

  // Intervals that contained a but not b: hi in [a, b), lo <= a.
  auto hi_begin = std::lower_bound(
      by_hi_.begin(), by_hi_.end(), a,
      [](const Entry& e, double v) { return e.hi < v; });
  for (auto it = hi_begin; it != by_hi_.end() && it->hi < b; ++it) {
    ++scanned;
    if (it->lo <= a) out->push_back(it->slot);
  }

  // Intervals that contain b but not a: lo in (a, b], hi >= b.
  auto lo_begin = std::upper_bound(
      by_lo_.begin(), by_lo_.end(), a,
      [](double v, const Entry& e) { return v < e.lo; });
  for (auto it = lo_begin; it != by_lo_.end() && it->lo <= b; ++it) {
    ++scanned;
    if (it->hi >= b) out->push_back(it->slot);
  }
  return scanned;
}

}  // namespace dkf
