#ifndef STREACH_NETWORK_UNION_FIND_H_
#define STREACH_NETWORK_UNION_FIND_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace streach {

/// \brief Disjoint-set forest with union by size and path halving.
///
/// Used to compute the per-snapshot connected components of the contact
/// network (the reduction step of §5.1.2.1) and the infection closure of
/// the brute-force evaluator.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  /// Representative of x's set.
  uint32_t Find(uint32_t x) {
    STREACH_CHECK_LT(x, parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // Path halving.
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return true;
  }

  bool Connected(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  /// Size of the set containing x.
  uint32_t SizeOf(uint32_t x) { return size_[Find(x)]; }

  size_t num_elements() const { return parent_.size(); }

  /// Resets every element to its own singleton set.
  void Reset() {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::fill(size_.begin(), size_.end(), 1u);
  }

  /// Makes x a singleton again without touching any other element. Only
  /// sound once every element of x's set is being reset the same way
  /// (e.g. undoing one batch of unions element by element).
  void ResetOne(uint32_t x) {
    STREACH_CHECK_LT(x, parent_.size());
    parent_[x] = x;
    size_[x] = 1;
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace streach

#endif  // STREACH_NETWORK_UNION_FIND_H_
