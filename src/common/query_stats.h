#ifndef STREACH_COMMON_QUERY_STATS_H_
#define STREACH_COMMON_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace streach {

/// \brief Per-query cost metrics reported by every index (§6).
///
/// `io_cost` is the paper's headline metric: page accesses normalized to
/// random-access units (sequential accesses count 1/20). `cpu_seconds`
/// is processing time excluding the simulated disk transfers (Figure 15,
/// Table 5a).
struct QueryStats {
  double io_cost = 0.0;
  uint64_t pages_fetched = 0;  ///< Buffer-pool misses (device reads).
  uint64_t pool_hits = 0;      ///< Buffer-pool hits (no device access).
  /// Records served from the pool's decoded-record cache (non-raw page
  /// codecs): no page fetch and no decode, so such a read leaves
  /// `pages_fetched` and `pool_hits` untouched and shows up only here.
  uint64_t decoded_hits = 0;
  double cpu_seconds = 0.0;
  uint64_t items_visited = 0;  ///< Vertices (ReachGraph) / cells (ReachGrid).
  /// True when the answer was computed with part of the index unreadable
  /// (quarantined segments skipped under degraded serving): correct over
  /// the data that was readable, possibly missing contacts from the rest.
  /// Never set on a fully served answer.
  bool degraded = false;

  std::string ToString() const {
    return "io=" + std::to_string(io_cost) +
           " pages=" + std::to_string(pages_fetched) +
           " hits=" + std::to_string(pool_hits) +
           " decoded_hits=" + std::to_string(decoded_hits) +
           " cpu_us=" + std::to_string(cpu_seconds * 1e6) +
           " visited=" + std::to_string(items_visited) +
           (degraded ? " DEGRADED" : "");
  }
};

}  // namespace streach

#endif  // STREACH_COMMON_QUERY_STATS_H_
