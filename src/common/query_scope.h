#ifndef STREACH_COMMON_QUERY_SCOPE_H_
#define STREACH_COMMON_QUERY_SCOPE_H_

#include <cstdint>

#include "common/query_stats.h"
#include "common/stopwatch.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace streach {

/// \brief Scoped per-query accounting shared by every reachability
/// evaluator.
///
/// Construct at the top of a query; it snapshots the buffer pool's
/// hit/miss counters and IO stats and starts a stopwatch. `Finish()` (or
/// destruction) writes the deltas — normalized IO cost, pages fetched,
/// pool hits, decoded-record hits, CPU seconds, items visited — into the
/// caller-provided `QueryStats`. This replaces the BeginQuery/EndQuery
/// bookkeeping that used to be copy-pasted across ReachGrid, ReachGraph,
/// SPJ and GRAIL.
///
/// Pass `pool == nullptr` for memory-resident evaluators (brute force,
/// GRAIL-in-memory): IO fields stay zero and only CPU time and visit
/// counts are recorded.
class QueryScope {
 public:
  QueryScope(BufferPool* pool, QueryStats* out) : pool_(pool), out_(out) {
    *out_ = QueryStats{};
    if (pool_ != nullptr) {
      io_before_ = pool_->io_stats();
      hits_before_ = pool_->hits();
      misses_before_ = pool_->misses();
      decoded_hits_before_ = pool_->decoded_hits();
    }
  }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  ~QueryScope() { Finish(); }

  /// Traversal progress: cells fetched (ReachGrid) or vertices expanded
  /// (ReachGraph, GRAIL).
  void AddItemsVisited(uint64_t n) { items_visited_ += n; }

  /// Finalizes the stats into the output struct. Idempotent; called by
  /// the destructor if not invoked explicitly.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    out_->cpu_seconds = watch_.ElapsedSeconds();
    out_->items_visited = items_visited_;
    if (pool_ != nullptr) {
      const IoStats delta = pool_->io_stats() - io_before_;
      out_->io_cost = delta.NormalizedReadCost();
      out_->pages_fetched = pool_->misses() - misses_before_;
      out_->pool_hits = pool_->hits() - hits_before_;
      out_->decoded_hits = pool_->decoded_hits() - decoded_hits_before_;
    }
  }

 private:
  BufferPool* pool_;
  QueryStats* out_;
  Stopwatch watch_;
  IoStats io_before_;
  uint64_t hits_before_ = 0;
  uint64_t misses_before_ = 0;
  uint64_t decoded_hits_before_ = 0;
  uint64_t items_visited_ = 0;
  bool finished_ = false;
};

}  // namespace streach

#endif  // STREACH_COMMON_QUERY_SCOPE_H_
