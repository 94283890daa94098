#include "stream/segmented_index.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/query_stats.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "network/hop_profile.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace streach {
namespace {

/// Seal ids of sealed segments that failed verification (checksum
/// mismatch while loading), shared by every session minted from one
/// `MakeStreamingBackend` call. Quarantine is sticky and cumulative: a
/// segment that once returned `Corruption` is never read again by any
/// session — under degraded serving its contacts are silently absent
/// from answers (flagged via `QueryStats::degraded`), otherwise every
/// query touching it keeps failing with `Corruption`. Seal ids are never
/// reused, so entries never alias a later segment.
struct QuarantineRegistry {
  std::mutex mu;
  std::set<uint64_t> seal_ids;

  bool Contains(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return seal_ids.count(id) != 0;
  }
  void Add(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    seal_ids.insert(id);
  }
};

/// The loaded contacts as compressed sparse rows, object -> incident
/// contact with its validity already clamped to the query window (never
/// empty: every loaded contact overlaps the window): the edges of object
/// o are `edges[offsets[o], offsets[o + 1])`.
struct ContactAdjacency {
  struct Edge {
    ObjectId other;
    Timestamp start;
    Timestamp end;
  };
  std::vector<uint32_t> offsets;
  std::vector<Edge> edges;

  ContactAdjacency(size_t num_objects, const std::vector<Contact>& contacts,
                   TimeInterval w)
      : offsets(num_objects + 1, 0), edges(2 * contacts.size()) {
    for (const Contact& c : contacts) {
      ++offsets[c.a + 1];
      ++offsets[c.b + 1];
    }
    for (size_t o = 0; o < num_objects; ++o) offsets[o + 1] += offsets[o];
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (const Contact& c : contacts) {
      const Timestamp start = std::max(c.validity.start, w.start);
      const Timestamp end = std::min(c.validity.end, w.end);
      edges[fill[c.a]++] = {c.b, start, end};
      edges[fill[c.b]++] = {c.a, start, end};
    }
  }
};

/// One temporal-Dijkstra pass from `source` over every loaded contact.
/// `times` (all kInvalidTime = uninfected) receives each object's earliest
/// infection time. Equal arrival times chain within the pass, so a whole
/// same-tick contact component infects together — the brute-force
/// oracle's per-tick union-find semantics (§3.2). `heap` is scratch.
void EarliestArrivals(const ContactAdjacency& adjacency, ObjectId source,
                      Timestamp start,
                      std::vector<std::pair<Timestamp, ObjectId>>* heap,
                      std::vector<Timestamp>* times) {
  using Item = std::pair<Timestamp, ObjectId>;
  const auto later = std::greater<Item>();
  (*times)[source] = start;
  heap->assign(1, {start, source});
  while (!heap->empty()) {
    std::pop_heap(heap->begin(), heap->end(), later);
    const auto [t, object] = heap->back();
    heap->pop_back();
    if (t != (*times)[object]) continue;  // Superseded by a better time.
    for (uint32_t e = adjacency.offsets[object];
         e < adjacency.offsets[object + 1]; ++e) {
      const ContactAdjacency::Edge& edge = adjacency.edges[e];
      if (t > edge.end) continue;
      const Timestamp arrival = std::max(t, edge.start);
      Timestamp& partner = (*times)[edge.other];
      if (partner == kInvalidTime || arrival < partner) {
        partner = arrival;
        heap->push_back({arrival, edge.other});
        std::push_heap(heap->begin(), heap->end(), later);
      }
    }
  }
}

/// \brief The `ReachabilityIndex` session over a live ingestor (see
/// segmented_index.h for the query model).
class SegmentedIndex final : public ReachabilityIndex {
 public:
  SegmentedIndex(std::shared_ptr<const StreamingIngestor> ingestor,
                 std::shared_ptr<QuarantineRegistry> quarantine)
      : ingestor_(std::move(ingestor)),
        quarantine_(std::move(quarantine)),
        shard_totals_(
            static_cast<size_t>(ingestor_->options().num_shards)) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    // Mirrors the brute-force oracle case for case: a self-query is
    // reachable iff the clamped window is non-empty, with no object
    // range check; otherwise the answer is the closure's entry.
    ReachAnswer answer;
    if (query.source == query.destination) {
      const TimeInterval w = query.interval.Intersect(ingestor_->span());
      stats_ = QueryStats{};
      answer.reachable = !w.empty();
      answer.arrival_time = w.empty() ? kInvalidTime : w.start;
      return answer;
    }
    std::vector<Timestamp> infected;
    STREACH_ASSIGN_OR_RETURN(infected,
                             ReachableSet(query.source, query.interval));
    if (query.destination < infected.size()) {
      const Timestamp t = infected[query.destination];
      answer.reachable = t != kInvalidTime;
      answer.arrival_time = t;
    }
    return answer;
  }

  Result<std::vector<Timestamp>> ReachableSet(ObjectId source,
                                              TimeInterval interval) override {
    std::vector<std::vector<Timestamp>> sets;
    STREACH_ASSIGN_OR_RETURN(sets, ReachableSets({source}, interval));
    return std::move(sets[0]);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    Stopwatch watch;
    BeginQuery();
    const size_t num_objects = ingestor_->num_objects();
    const TimeInterval w = interval.Intersect(ingestor_->span());
    std::vector<std::vector<Timestamp>> sets(
        sources.size(), std::vector<Timestamp>(num_objects, kInvalidTime));
    uint64_t visited = 0;
    bool degraded = false;
    Status status;
    if (!w.empty()) {
      std::vector<Contact> contacts;
      status = LoadUnits(w, &contacts, &degraded);
      if (status.ok()) {
        visited = contacts.size();
        // Every run is wholly owned by one unit, so one pass over the
        // union of all units is exact: no per-unit rounds are needed to
        // carry infection across seal boundaries, in either direction.
        const ContactAdjacency adjacency(num_objects, contacts, w);
        std::vector<std::pair<Timestamp, ObjectId>> heap;
        for (size_t i = 0; i < sources.size(); ++i) {
          if (sources[i] >= num_objects) continue;
          EarliestArrivals(adjacency, sources[i], w.start, &heap, &sets[i]);
        }
      }
    }
    FinishQuery(watch, visited, degraded);
    if (!status.ok()) return status;
    return sets;
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    Stopwatch watch;
    BeginQuery();
    const size_t num_objects = ingestor_->num_objects();
    const TimeInterval w = interval.Intersect(ingestor_->span());
    std::vector<ReachProfileEntry> profile(num_objects);
    uint64_t visited = 0;
    bool degraded = false;
    Status status;
    if (!w.empty() && source < num_objects) {
      std::vector<Contact> contacts;
      status = LoadUnits(w, &contacts, &degraded);
      if (status.ok()) {
        visited = contacts.size();
        // The transfer-level recursion needs the per-tick snapshot
        // components of the WHOLE stream — a same-tick chain may cross
        // units (conduit in one segment, carrier in another). Materialize
        // every unit's contacts into one per-tick pair table, then run the
        // shared kernel; the table is independent of the seal schedule,
        // which is what keeps streaming answers byte-identical to a
        // one-shot batch build.
        std::vector<std::vector<std::pair<ObjectId, ObjectId>>> tick_pairs(
            static_cast<size_t>(w.length()));
        for (const Contact& c : contacts) {
          const TimeInterval v = c.validity.Intersect(w);
          for (Timestamp t = v.start; t <= v.end; ++t) {
            tick_pairs[static_cast<size_t>(t - w.start)].emplace_back(c.a,
                                                                      c.b);
          }
        }
        profile = ComputeHopProfile(
            num_objects, source, w, hops,
            [&](Timestamp t)
                -> const std::vector<std::pair<ObjectId, ObjectId>>& {
              return tick_pairs[static_cast<size_t>(t - w.start)];
            });
      }
    }
    FinishQuery(watch, visited, degraded);
    if (!status.ok()) return status;
    return profile;
  }

  const QueryStats& last_query_stats() const override { return stats_; }

  void ClearCache() override {
    for (auto& [id, slot] : pools_) slot.pool->Clear();
  }

  void SetIoQueueDepth(int depth) override {
    io_queue_depth_ = std::max(depth, 1);
    for (auto& [id, slot] : pools_) {
      slot.pool->set_io_queue_depth(io_queue_depth_);
    }
  }

  void SetMaxReadRetries(int retries) override {
    max_read_retries_ = std::max(retries, 0);
    for (auto& [id, slot] : pools_) {
      slot.pool->set_max_read_retries(max_read_retries_);
    }
  }

  void SetDegradedServing(bool on) override { degraded_serving_ = on; }

  // No identity on purpose: the index is live (appends land between
  // queries), so the engine's result cache must never memoize it.
  std::shared_ptr<const void> IndexIdentity() const override {
    return nullptr;
  }

  int num_shards() const override { return ingestor_->options().num_shards; }

  std::optional<PageCodecKind> page_codec() const override {
    return ingestor_->options().build.page_codec;
  }

  /// The running total of every query's per-shard deltas: IO happens
  /// only inside queries, so this equals what all pools ever read, without
  /// walking them.
  std::vector<IoStats> shard_io_stats() const override {
    return shard_totals_;
  }

  std::string DescribeIndex() const override {
    return "SegmentedIndex(streaming)";
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<SegmentedIndex>(ingestor_, quarantine_);
    session->io_queue_depth_ = io_queue_depth_;
    session->max_read_retries_ = max_read_retries_;
    session->degraded_serving_ = degraded_serving_;
    return session;
  }

 private:
  /// Snapshots the ingestor and appends every overlapping unit's
  /// contacts to `*contacts`: each sealed segment's overlapping runs, then
  /// the head's. Segments that fail verification (`Corruption` from the
  /// read path — a blob or page checksum mismatch) are quarantined for
  /// every session sharing this backend; already-quarantined segments are
  /// never read. Under degraded serving an unreadable segment is skipped
  /// (nothing it partially decoded is kept) and `*degraded` is set;
  /// otherwise the query fails with the Corruption. Non-Corruption errors
  /// (e.g. an unmasked transient fault) propagate without quarantining —
  /// the segment's media may be fine.
  Status LoadUnits(TimeInterval w, std::vector<Contact>* contacts,
                   bool* degraded) {
    StreamingIngestor::Snapshot snapshot = ingestor_->SnapshotFor(w);
    for (const auto& segment : snapshot.segments) {
      if (quarantine_->Contains(segment->id())) {
        if (!degraded_serving_) {
          return Status::Corruption(
              "sealed segment " + std::to_string(segment->id()) +
              " is quarantined (failed verification)");
        }
        *degraded = true;
        continue;
      }
      const size_t loaded = contacts->size();
      const Status status =
          segment->LoadOverlapping(w, PoolFor(*segment), contacts);
      if (!status.ok()) {
        contacts->resize(loaded);
        if (!status.IsCorruption()) return status;
        quarantine_->Add(segment->id());
        if (!degraded_serving_) return status;
        *degraded = true;
        continue;
      }
    }
    contacts->insert(contacts->end(), snapshot.head.begin(),
                     snapshot.head.end());
    return Status::OK();
  }

  /// A session pool over one sealed segment, with the counters it had
  /// when the current query first touched it.
  struct SegmentPool {
    std::unique_ptr<BufferPool> pool;
    uint64_t query = 0;  // The last query that touched the pool.
    std::vector<IoStats> shards_before;
    uint64_t hits_before = 0;
    uint64_t misses_before = 0;
    uint64_t decoded_hits_before = 0;
  };

  /// This session's pool over one sealed segment, created on first
  /// touch; the first touch within a query snapshots its counters. Seal
  /// ids are unique and never reused, so the key is stable.
  BufferPool* PoolFor(const SealedSegment& segment) {
    auto [it, created] = pools_.try_emplace(segment.id());
    SegmentPool& slot = it->second;
    if (created) {
      slot.pool = segment.NewPool(ingestor_->options().buffer_pool_pages,
                                  io_queue_depth_);
      slot.pool->set_max_read_retries(max_read_retries_);
    }
    if (slot.query != query_) {
      slot.query = query_;
      slot.shards_before = slot.pool->PerShardIoStats();
      slot.hits_before = slot.pool->hits();
      slot.misses_before = slot.pool->misses();
      slot.decoded_hits_before = slot.pool->decoded_hits();
      touched_.push_back(&slot);
    }
    return slot.pool.get();
  }

  /// Opens a query's accounting window: only pools touched from here on
  /// (`PoolFor`) are read back by `FinishQuery`.
  void BeginQuery() {
    stats_ = QueryStats{};
    touched_.clear();
    ++query_;
  }

  /// Writes the query's counters into `stats_` — the deltas of exactly the
  /// pools it touched — and adds its per-shard IO to the session totals.
  /// Runs on error paths too, so partially accounted IO stays visible.
  void FinishQuery(const Stopwatch& watch, uint64_t visited, bool degraded) {
    IoStats io;
    for (const SegmentPool* slot : touched_) {
      const BufferPool& pool = *slot->pool;
      const std::vector<IoStats> shards = pool.PerShardIoStats();
      for (size_t s = 0; s < shards.size(); ++s) {
        const IoStats delta = shards[s] - slot->shards_before[s];
        io += delta;
        if (s < shard_totals_.size()) shard_totals_[s] += delta;
      }
      stats_.pages_fetched += pool.misses() - slot->misses_before;
      stats_.pool_hits += pool.hits() - slot->hits_before;
      stats_.decoded_hits += pool.decoded_hits() - slot->decoded_hits_before;
    }
    touched_.clear();
    stats_.io_cost = io.NormalizedReadCost();
    stats_.items_visited = visited;
    stats_.cpu_seconds = watch.ElapsedSeconds();
    stats_.degraded = degraded;
  }

  std::shared_ptr<const StreamingIngestor> ingestor_;
  std::shared_ptr<QuarantineRegistry> quarantine_;
  // Node-based: `touched_` points into it across inserts.
  std::unordered_map<uint64_t, SegmentPool> pools_;
  std::vector<SegmentPool*> touched_;  // Pools the current query touched.
  uint64_t query_ = 0;                 // Ordinal of the current query.
  std::vector<IoStats> shard_totals_;  // Per shard, over all queries.
  QueryStats stats_;
  int io_queue_depth_ = 1;
  int max_read_retries_ = 0;
  bool degraded_serving_ = false;
};

}  // namespace

std::unique_ptr<ReachabilityIndex> MakeStreamingBackend(
    std::shared_ptr<const StreamingIngestor> ingestor) {
  STREACH_CHECK(ingestor != nullptr);
  return std::make_unique<SegmentedIndex>(
      std::move(ingestor), std::make_shared<QuarantineRegistry>());
}

}  // namespace streach
