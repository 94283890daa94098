#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace streach {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One worker thread's view of a run: its private session plus the
/// result-cache handle the item evaluators consult.
struct Worker {
  ReachabilityIndex* session = nullptr;
  /// The engine's result cache, or nullptr when this run does not cache
  /// (cache disabled, `cold_cache` set, or a backend without an index
  /// identity).
  ResultCache* cache = nullptr;
  std::shared_ptr<const void> identity;
  /// Cleared once the session reports NotSupported for ReachableSet, so
  /// the set-cache path is not re-probed on every query of a
  /// point-query-only backend.
  bool set_cacheable = false;
  /// Set by an item served wholly from the result cache: it did no
  /// backend work, so it reports zeroed stats.
  bool cache_hit = false;
};

/// Evaluates work item `i` on the worker's session, writes its answer into
/// the caller's report, and returns the item's status.
using EvaluateItem = std::function<Status(size_t i, Worker* worker)>;

/// What the runner produces for every kind of work item: per-item stats
/// and statuses, and the summary minus the runner-specific
/// `num_reachable` / `family_counts`.
struct ItemRun {
  std::vector<QueryStats> stats;
  std::vector<Status> statuses;
  WorkloadSummary summary;
};

/// The boolean answer `source ~interval~> destination` through the result
/// cache: a hit answers from the memoized reachable set with no backend
/// work; a miss materializes the full set with `ReachableSet` and
/// memoizes it. nullopt when the caller's uncached path must answer
/// instead: caching is off, or the backend answers point queries only.
std::optional<Result<ReachAnswer>> CachedPointAnswer(Worker* w,
                                                     ObjectId source,
                                                     ObjectId destination,
                                                     TimeInterval interval) {
  if (!w->set_cacheable) return std::nullopt;
  if (ResultCache::SetPtr set = w->cache->Lookup(w->identity, source,
                                                 interval)) {
    w->cache_hit = true;
    return Result<ReachAnswer>(AnswerFromSet(*set, destination));
  }
  auto set = w->session->ReachableSet(source, interval);
  if (!set.ok()) {
    if (!set.status().IsNotSupported()) {
      return Result<ReachAnswer>(set.status());
    }
    w->set_cacheable = false;  // Point-query-only backend.
    return std::nullopt;
  }
  auto shared =
      std::make_shared<const std::vector<Timestamp>>(std::move(*set));
  w->cache->Insert(w->identity, source, interval, shared);
  return Result<ReachAnswer>(AnswerFromSet(*shared, destination));
}

/// The one work-item loop behind `Run`, `RunClosures` and `RunFamilies`.
/// `num_queries` queries are grouped into consecutive work items of
/// `queries_per_item` (1 except for closure batches); `evaluate` answers
/// one item. The runner owns everything else: the codec guard, session
/// minting and options, the thread pool, the per-item cold-cache clear,
/// latency, status and stats, and the summary with its per-shard IO.
Result<ItemRun> RunWorkItems(const QueryEngineOptions& options,
                             ResultCache* result_cache,
                             ReachabilityIndex* backend, size_t num_queries,
                             size_t queries_per_item,
                             const EvaluateItem& evaluate) {
  STREACH_CHECK(backend != nullptr);
  // A disk backend decodes with the codec its index was built with; a
  // run configured for a different codec is a deployment error, not
  // something to silently paper over.
  const std::optional<PageCodecKind> backend_codec = backend->page_codec();
  if (backend_codec.has_value() && *backend_codec != options.page_codec) {
    return Status::InvalidArgument(
        std::string("page_codec mismatch: engine configured for ") +
        ToString(options.page_codec) + ", backend stores " +
        ToString(*backend_codec));
  }
  const size_t n = (num_queries + queries_per_item - 1) / queries_per_item;
  ItemRun run;
  run.stats.resize(n);
  run.statuses.resize(n);
  std::vector<double> latencies(n, 0.0);

  const int num_threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(options.num_threads),
                       std::max<size_t>(n, 1)));

  // One session per worker. Worker 0 reuses the caller's session, so a
  // single-threaded run behaves exactly like a hand-written query loop.
  std::vector<std::unique_ptr<ReachabilityIndex>> extra_sessions;
  std::vector<ReachabilityIndex*> sessions;
  sessions.push_back(backend);
  for (int i = 1; i < num_threads; ++i) {
    extra_sessions.push_back(backend->NewSession());
    sessions.push_back(extra_sessions.back().get());
  }
  for (ReachabilityIndex* session : sessions) {
    session->SetIoQueueDepth(options.io_queue_depth);
    session->SetTraversalThreads(options.traversal_threads);
    session->SetMaxReadRetries(options.max_read_retries);
    session->SetDegradedServing(options.degraded_serving);
  }

  // Per-shard IO is reported as the delta of each session's cumulative
  // cursors around the run, so prior traffic on a reused session never
  // leaks into this workload's breakdown.
  std::vector<std::vector<IoStats>> shard_io_before;
  shard_io_before.reserve(sessions.size());
  for (ReachabilityIndex* session : sessions) {
    shard_io_before.push_back(session->shard_io_stats());
  }
  const uint64_t cache_hits_before =
      result_cache != nullptr ? result_cache->hits() : 0;
  // cold_cache wins over the result cache: the paper's protocol is
  // "measure every query cold", and a memoized answer would defeat it.
  ResultCache* cache = options.cold_cache ? nullptr : result_cache;

  std::atomic<size_t> next{0};
  auto work = [&](ReachabilityIndex* session) {
    Worker w;
    w.session = session;
    if (cache != nullptr) w.identity = session->IndexIdentity();
    // Backends without an index identity opt out of caching entirely.
    if (w.identity != nullptr) w.cache = cache;
    w.set_cacheable = w.cache != nullptr;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (options.cold_cache) session->ClearCache();
      w.cache_hit = false;
      Stopwatch latency;
      // A failed item keeps its error here; the rest of the workload
      // keeps going.
      run.statuses[i] = evaluate(i, &w);
      run.stats[i] = w.cache_hit ? QueryStats{} : session->last_query_stats();
      latencies[i] = latency.ElapsedSeconds();
    }
  };

  Stopwatch wall;
  if (num_threads == 1) {
    work(sessions[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      threads.emplace_back(work, sessions[static_cast<size_t>(i)]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_seconds = wall.ElapsedSeconds();

  WorkloadSummary& s = run.summary;
  s.backend = backend->DescribeIndex();
  s.num_queries = num_queries;
  s.io_queue_depth = options.io_queue_depth;
  s.traversal_threads = std::max(options.traversal_threads, 1);
  s.batch_sources = static_cast<int>(queries_per_item);
  s.page_codec = ToString(backend_codec.value_or(options.page_codec));
  s.wall_seconds = wall_seconds;
  s.queries_per_second =
      wall_seconds > 0 ? static_cast<double>(num_queries) / wall_seconds
                       : 0.0;
  // Cost totals sum one entry per item (a closure batch is one backend
  // sweep) and the latency distribution is per item; a failed or
  // degraded item counts every query it covers.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t covered =
        std::min(queries_per_item, num_queries - i * queries_per_item);
    const QueryStats& q = run.stats[i];
    if (!run.statuses[i].ok()) s.failed_queries += covered;
    if (q.degraded) s.degraded_queries += covered;
    s.total_io_cost += q.io_cost;
    s.total_pages_fetched += q.pages_fetched;
    s.total_pool_hits += q.pool_hits;
    s.total_decoded_hits += q.decoded_hits;
    s.total_items_visited += q.items_visited;
    s.total_cpu_seconds += q.cpu_seconds;
    s.mean_latency += latencies[i];
    s.max_latency = std::max(s.max_latency, latencies[i]);
  }
  if (n > 0) s.mean_latency /= static_cast<double>(n);
  std::sort(latencies.begin(), latencies.end());
  s.p50_latency = Percentile(latencies, 0.50);
  s.p95_latency = Percentile(latencies, 0.95);
  s.p99_latency = Percentile(latencies, 0.99);
  if (result_cache != nullptr) {
    s.result_cache_hits = result_cache->hits() - cache_hits_before;
  }
  // Per-shard breakdown: delta of every session's cumulative cursors over
  // the run, summed shard-wise across sessions.
  for (size_t k = 0; k < sessions.size(); ++k) {
    const std::vector<IoStats> after = sessions[k]->shard_io_stats();
    if (after.size() > s.per_shard_io.size()) {
      s.per_shard_io.resize(after.size());
    }
    for (size_t shard = 0; shard < after.size(); ++shard) {
      IoStats delta = after[shard];
      if (shard < shard_io_before[k].size()) {
        delta = delta - shard_io_before[k][shard];
      }
      s.per_shard_io[shard] += delta;
    }
  }
  return run;
}

}  // namespace

std::string WorkloadSummary::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%s: %llu queries (%llu reachable) in %.3fs | %.0f q/s | "
      "io/query=%.2f pages=%llu hits=%llu decoded_hits=%llu "
      "pool_hit_rate=%.1f%% | "
      "latency mean=%.0fus p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus | "
      "cache_hits=%llu shards=%zu qd=%d tthreads=%d batch=%d "
      "inflight=%.2f codec=%s ratio=%.2f",
      backend.c_str(), static_cast<unsigned long long>(num_queries),
      static_cast<unsigned long long>(num_reachable), wall_seconds,
      queries_per_second, mean_io_cost(),
      static_cast<unsigned long long>(total_pages_fetched),
      static_cast<unsigned long long>(total_pool_hits),
      static_cast<unsigned long long>(total_decoded_hits),
      100.0 * pool_hit_rate(), mean_latency * 1e6, p50_latency * 1e6,
      p95_latency * 1e6, p99_latency * 1e6, max_latency * 1e6,
      static_cast<unsigned long long>(result_cache_hits),
      per_shard_io.empty() ? static_cast<size_t>(1) : per_shard_io.size(),
      io_queue_depth, traversal_threads, batch_sources,
      mean_inflight_requests(), page_codec.c_str(), compression_ratio());
  std::string out = buf;
  // Family breakdown only when something beyond boolean ran: Run and
  // RunClosures workloads keep the historical one-line shape.
  bool beyond_boolean = false;
  for (size_t f = 1; f < family_counts.size(); ++f) {
    beyond_boolean = beyond_boolean || family_counts[f] > 0;
  }
  if (beyond_boolean) {
    out += " | families";
    for (size_t f = 0; f < family_counts.size(); ++f) {
      if (family_counts[f] == 0) continue;
      std::snprintf(buf, sizeof(buf), " %s=%llu",
                    FamilyName(static_cast<QueryFamily>(f)),
                    static_cast<unsigned long long>(family_counts[f]));
      out += buf;
    }
  }
  // Fault surface only when something actually went wrong: healthy runs
  // keep the historical line.
  if (failed_queries > 0 || degraded_queries > 0) {
    std::snprintf(buf, sizeof(buf), " | failed=%llu degraded=%llu",
                  static_cast<unsigned long long>(failed_queries),
                  static_cast<unsigned long long>(degraded_queries));
    out += buf;
  }
  return out;
}

QueryEngine::QueryEngine(QueryEngineOptions options)
    : options_(std::move(options)) {
  STREACH_CHECK_GT(options_.num_threads, 0);
  STREACH_CHECK_GT(options_.io_queue_depth, 0);
  if (options_.result_cache_capacity > 0) {
    result_cache_ =
        std::make_shared<ResultCache>(options_.result_cache_capacity);
  }
}

Result<WorkloadReport> QueryEngine::Run(
    ReachabilityIndex* backend, const std::vector<ReachQuery>& queries) const {
  WorkloadReport report;
  report.answers.resize(queries.size());
  auto run = RunWorkItems(
      options_, result_cache_.get(), backend, queries.size(), 1,
      [&](size_t i, Worker* w) -> Status {
        const ReachQuery& query = queries[i];
        // Uncached, the point Query stops as soon as the destination is
        // reached.
        std::optional<Result<ReachAnswer>> cached = CachedPointAnswer(
            w, query.source, query.destination, query.interval);
        Result<ReachAnswer> answer =
            cached.has_value() ? std::move(*cached) : w->session->Query(query);
        if (!answer.ok()) return answer.status();
        report.answers[i] = *answer;
        return Status::OK();
      });
  if (!run.ok()) return run.status();
  report.per_query = std::move(run->stats);
  report.statuses = std::move(run->statuses);
  report.summary = std::move(run->summary);
  WorkloadSummary& s = report.summary;
  s.family_counts[static_cast<size_t>(QueryFamily::kBoolean)] = queries.size();
  for (const ReachAnswer& answer : report.answers) {
    if (answer.reachable) ++s.num_reachable;
  }
  return report;
}

Result<ClosureWorkloadReport> QueryEngine::RunClosures(
    ReachabilityIndex* backend, const std::vector<ObjectId>& sources,
    TimeInterval interval) const {
  const size_t n = sources.size();
  const size_t batch =
      static_cast<size_t>(std::max(options_.batch_sources, 1));
  ClosureWorkloadReport report;
  report.sets.resize(n);
  auto run = RunWorkItems(
      options_, result_cache_.get(), backend, n, batch,
      [&](size_t b, Worker* w) -> Status {
        const size_t begin = b * batch;
        const size_t end = std::min(begin + batch, n);
        const std::vector<ObjectId> group(
            sources.begin() + static_cast<ptrdiff_t>(begin),
            sources.begin() + static_cast<ptrdiff_t>(end));
        auto sets = w->session->ReachableSets(group, interval);
        if (!sets.ok()) return sets.status();
        for (size_t i = begin; i < end; ++i) {
          report.sets[i] = std::move((*sets)[i - begin]);
        }
        return Status::OK();
      });
  if (!run.ok()) return run.status();
  report.per_batch = std::move(run->stats);
  report.statuses = std::move(run->statuses);
  report.summary = std::move(run->summary);
  WorkloadSummary& s = report.summary;
  // One closure per source, however it was batched; a failed batch's
  // sets stay empty and reach nothing.
  s.family_counts[static_cast<size_t>(QueryFamily::kBoolean)] = n;
  for (const std::vector<Timestamp>& set : report.sets) {
    for (Timestamp t : set) {
      if (t != kInvalidTime) ++s.num_reachable;
    }
  }
  return report;
}

Result<FamilyWorkloadReport> QueryEngine::RunFamilies(
    ReachabilityIndex* backend, const std::vector<QuerySpec>& specs) const {
  FamilyWorkloadReport report;
  report.answers.resize(specs.size());
  auto run = RunWorkItems(
      options_, result_cache_.get(), backend, specs.size(), 1,
      [&](size_t i, Worker* w) -> Status {
        const QuerySpec& spec = specs[i];
        FamilyAnswer& answer = report.answers[i];
        if (spec.family == QueryFamily::kBoolean) {
          // The uncached fallback below still answers through
          // ReachableSet (EvaluateFamily), never the early-exit Query.
          if (auto cached = CachedPointAnswer(w, spec.source,
                                              spec.destination,
                                              spec.interval)) {
            if (!cached->ok()) return cached->status();
            answer.family = spec.family;
            answer.point = **cached;
            return Status::OK();
          }
        } else if (w->cache != nullptr &&
                   (spec.family == QueryFamily::kDecayReach ||
                    spec.family == QueryFamily::kKHopReach ||
                    spec.family == QueryFamily::kThresholdReach)) {
          // The resolved HopConstraints join the cache key.
          auto hops = ResolveHops(spec);
          if (!hops.ok()) return hops.status();
          if (ResultCache::ProfilePtr profile = w->cache->LookupProfile(
                  w->identity, spec.source, spec.interval, *hops)) {
            w->cache_hit = true;
            answer = AnswerFromProfile(spec, *profile);
            return Status::OK();
          }
          auto profile =
              w->session->ConstrainedProfile(spec.source, spec.interval, *hops);
          if (!profile.ok()) return profile.status();
          auto shared = std::make_shared<const std::vector<ReachProfileEntry>>(
              std::move(*profile));
          w->cache->InsertProfile(w->identity, spec.source, spec.interval,
                                  *hops, shared);
          answer = AnswerFromProfile(spec, *shared);
          return Status::OK();
        }
        auto evaluated = EvaluateFamily(w->session, spec);
        if (!evaluated.ok()) return evaluated.status();
        answer = std::move(*evaluated);
        return Status::OK();
      });
  if (!run.ok()) return run.status();
  report.per_query = std::move(run->stats);
  report.statuses = std::move(run->statuses);
  report.summary = std::move(run->summary);
  WorkloadSummary& s = report.summary;
  for (size_t i = 0; i < specs.size(); ++i) {
    // Failed specs count under the family that was ASKED (their answer
    // slot is default-constructed) and contribute no reach counts.
    ++s.family_counts[static_cast<size_t>(specs[i].family)];
    if (!report.statuses[i].ok()) continue;
    const FamilyAnswer& answer = report.answers[i];
    switch (answer.family) {
      case QueryFamily::kBoolean:
      case QueryFamily::kThresholdReach:
        if (answer.point.reachable) ++s.num_reachable;
        break;
      case QueryFamily::kDecayReach:
      case QueryFamily::kKHopReach:
        for (const ReachProfileEntry& entry : answer.profile) {
          if (entry.transfers >= 0) ++s.num_reachable;
        }
        break;
      case QueryFamily::kTopKSources:
        for (const TopKEntry& entry : answer.ranked) {
          s.num_reachable += entry.reach_count;
        }
        break;
    }
  }
  return report;
}

}  // namespace streach
