// Pipeline benchmark: trajectories -> contacts -> index -> QueryEngine, end
// to end, with every answer checked against the brute-force oracle.
//
//   pipeline_bench --workload <name> --seed <n> [--dataset-seed <n>]
//                  [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//
// `--seed` drives the query generators, `--dataset-seed` the trajectory
// generator; the library only ever sees the generated inputs. With
// `--trace 0` the run times the named workload with tracing off and prints
// its end-to-end metrics. With `--trace 1` it runs a traced census of all
// three pipelines — each per-layer metric is taken on the workload that
// exercises its layer — and measures the tracing overhead on the named
// workload. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every answer matched the oracle.
//
// See README.md beside this file for the workloads and the layer -> metric
// -> workload table.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/query_spec.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "trace.h"

namespace streach {
namespace perfbench {
namespace {

// ------------------------------------------------------------ workload sizes
//
// Each workload runs one fixed, seeded query set per pass: one untimed
// warm-up pass, then timed passes until `--seconds` elapse (at least a
// per-workload minimum). Every timed figure is a median over passes or over
// repeated set-ups, and each pass is sized to seconds of work.

constexpr int kMaxTimedPasses = 50;
constexpr int kJoinSamplesPerSlot = 5;

// grid-cold-families: RWP-S, ReachGrid over 4 shards with delta-varint
// pages, pool cleared before every query, one client, equal family mix.
constexpr DatasetScale kGridScale = DatasetScale::kSmall;
constexpr Timestamp kGridTicks = 3000;
constexpr int kGridQueriesPerFamily = 160;
constexpr int kGridMinInterval = 30;
constexpr int kGridMaxInterval = 60;
// Boolean specs get longer windows so that about a fifth of them reach
// their destination; over 30-60 ticks nearly all would be negatives.
constexpr int kGridBooleanMinInterval = 60;
constexpr int kGridBooleanMaxInterval = 120;
constexpr int kGridShards = 4;
constexpr int kGridSetupsPerSlot = 5;
constexpr int kGridMinPasses = 2;

// graph-hot-boolean: RWP-M, ReachGraph BM-BFS, pool holding the whole
// index, two engine threads, paper-shaped boolean point queries.
constexpr DatasetScale kGraphScale = DatasetScale::kMedium;
constexpr Timestamp kGraphTicks = 1000;
constexpr int kGraphQueries = 500;
constexpr int kGraphThreads = 2;
constexpr size_t kGraphPoolPages = size_t{1} << 16;
constexpr int kGraphSetups = 3;
constexpr int kGraphMinPasses = 3;

// stream-ingest-query: RWP-M streamed through one single-threaded join
// into a StreamingIngestor; a burst of boolean and k-hop queries runs at
// every slice of stream ticks once the setup prefix is in.
constexpr DatasetScale kStreamScale = DatasetScale::kMedium;
constexpr Timestamp kStreamTicks = 4000;
constexpr int kStreamSealTicks = 32;
constexpr Timestamp kStreamPrefixTicks = kStreamTicks / 3;
constexpr Timestamp kStreamSliceTicks = 60;
constexpr int kStreamBurstQueries = 6;
constexpr int kStreamMinWindow = 40;
constexpr int kStreamMaxWindow = 160;
constexpr int kStreamMinPasses = 3;

// Traced census: query-set prefixes the per-layer probes run.
constexpr size_t kCensusGridSpecs = 100;
constexpr size_t kCensusGraphQueries = 150;

const char* const kWorkloads[] = {"grid-cold-families", "graph-hot-boolean",
                                  "stream-ingest-query"};

// ------------------------------------------------------------------ helpers

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t dataset_seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Tracer g_tracer;
const Clock::time_point g_start = Clock::now();

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "pipeline_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueUnsafe();
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Nearest-rank percentile of `values` (q in [0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Ordered metric list, printed as the `metrics` object of the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Query accounting across the whole run: every query the benchmark sends
/// (verification, warm-up and timed passes) is attempted; one that errors
/// or disagrees with the oracle is failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reported_mismatches = 0;

  void Count(bool ok, const std::string& context) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reported_mismatches++ < 10) {
      std::fprintf(stderr, "MISMATCH %s\n", context.c_str());
    }
  }
};

// ------------------------------------------------------------ answer hashing

/// Canonical FNV-1a hash over the fields of a sequence of answers.
class AnswerHash {
 public:
  template <typename T>
  void Put(T value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    buf_.append(bytes, sizeof(T));
  }
  void Add(const ReachAnswer& a) {
    Put<uint8_t>(a.reachable ? 1 : 0);
    Put<int32_t>(a.arrival_time);
  }
  void Add(const FamilyAnswer& a) {
    Put<uint8_t>(static_cast<uint8_t>(a.family));
    Add(a.point);
    Put<double>(a.best_probability);
    Put<uint64_t>(a.profile.size());
    for (const ReachProfileEntry& e : a.profile) {
      Put<int32_t>(e.infected_at);
      Put<int32_t>(e.transfers);
    }
    Put<uint64_t>(a.ranked.size());
    for (const TopKEntry& e : a.ranked) {
      Put<uint32_t>(e.source);
      Put<uint32_t>(e.reach_count);
    }
  }
  uint32_t value() const { return Fnv1a32(buf_); }

 private:
  std::string buf_;
};

bool SameAnswer(const ReachAnswer& a, const ReachAnswer& b) {
  return a.reachable == b.reachable && a.arrival_time == b.arrival_time;
}

/// ReachGraph's bidirectional point query answers the boolean only; it
/// does not promise the earliest arrival tick, so only `reachable` counts.
bool SameReachability(const ReachAnswer& a, const ReachAnswer& b) {
  return a.reachable == b.reachable;
}

void PrintAnswerHash(const char* workload, uint32_t hash) {
  std::printf("answer_hash %s %08" PRIx32 "\n", workload, hash);
}

// --------------------------------------------------------- shared pipeline

Dataset MakeDataset(DatasetScale scale, Timestamp ticks, uint64_t seed) {
  return Must(MakeRwpDataset(scale, ticks, seed), "dataset");
}

/// trajectories -> contacts -> contact network (the oracle's input and the
/// ReachGraph build's input).
std::shared_ptr<const ContactNetwork> BuildNetwork(const Dataset& dataset) {
  JoinOptions join;
  join.threads = 1;
  std::vector<Contact> contacts;
  {
    ScopedSpan span(&g_tracer, "join.extract");
    contacts = ExtractContacts(dataset.store, dataset.contact_range, join);
  }
  ScopedSpan span(&g_tracer, "network.build");
  return std::make_shared<const ContactNetwork>(
      dataset.num_objects(), dataset.span(), std::move(contacts));
}

/// Batch ingest samples: contacts per second of a single-threaded
/// `ExtractContacts` over the whole dataset (the batch pipeline's front end),
/// appended to `rates`. The graph workload samples before and after every
/// timed pass, so the median spans the run instead of one moment of it.
void SampleJoinRate(const Dataset& dataset, std::vector<double>* rates) {
  JoinOptions join;
  join.threads = 1;
  for (int i = 0; i < kJoinSamplesPerSlot; ++i) {
    const auto start = Clock::now();
    const size_t contacts =
        ExtractContacts(dataset.store, dataset.contact_range, join).size();
    rates->push_back(static_cast<double>(contacts) / Since(start));
  }
}

/// Evaluates `specs` against the brute-force oracle over `network`.
std::vector<FamilyAnswer> OracleAnswers(
    const std::shared_ptr<const ContactNetwork>& network,
    const std::vector<QuerySpec>& specs) {
  ScopedSpan span(&g_tracer, "oracle.families");
  BruteForceReachability oracle(network);
  std::vector<FamilyAnswer> answers;
  answers.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    answers.push_back(Must(EvaluateFamily(&oracle, spec), "oracle"));
  }
  return answers;
}

/// Checks a family report against the oracle answers, field by field.
void CheckFamilyReport(const FamilyWorkloadReport& report,
                       const std::vector<QuerySpec>& specs,
                       const std::vector<FamilyAnswer>& expected,
                       const char* context, Tally* tally) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const bool ok = i < report.statuses.size() && report.statuses[i].ok() &&
                    report.answers[i] == expected[i];
    tally->Count(ok, std::string(context) + " " + specs[i].ToString());
  }
}

/// Replays every page of `topology` through a fresh pool, cold then hot,
/// and hashes each page with the storage checksum. Per-page microseconds.
struct PageReplay {
  double miss_us = 0.0;
  double hit_us = 0.0;
  double checksum_us = 0.0;
};

PageReplay ReplayPages(const StorageTopology& topology, const char* label) {
  ScopedSpan span(&g_tracer, std::string("storage.replay.") + label);
  std::vector<PageId> ids;
  for (int s = 0; s < topology.num_shards(); ++s) {
    for (PageId p = 0; p < topology.shard(s).num_pages(); ++p) {
      ids.push_back(MakePageAddress(static_cast<uint32_t>(s), p));
    }
  }
  PageReplay out;
  if (ids.empty()) return out;
  BufferPool pool(&topology, ids.size());
  std::vector<PageRef> refs;
  refs.reserve(ids.size());
  auto start = Clock::now();
  for (PageId id : ids) refs.push_back(Must(pool.Fetch(id), "replay miss"));
  out.miss_us = Since(start) * 1e6 / static_cast<double>(ids.size());
  start = Clock::now();
  for (PageId id : ids) Must(pool.Fetch(id), "replay hit");
  out.hit_us = Since(start) * 1e6 / static_cast<double>(ids.size());
  uint32_t fold = 0;
  start = Clock::now();
  for (const PageRef& ref : refs) fold ^= Fnv1a32(ref.view());
  out.checksum_us = Since(start) * 1e6 / static_cast<double>(ids.size());
  std::printf("# replay %s: %zu pages, miss %.3f us, hit %.3f us, checksum "
              "%.3f us, fold %08" PRIx32 "\n",
              label, ids.size(), out.miss_us, out.hit_us, out.checksum_us,
              fold);
  return out;
}

/// Times passes of `pass` until `seconds` elapse, within
/// [min_passes, kMaxTimedPasses]. The caller runs the warm-up pass first.
void RunTimedPasses(double seconds, int min_passes,
                    const std::function<void()>& pass) {
  const auto start = Clock::now();
  for (int i = 0; i < kMaxTimedPasses; ++i) {
    if (i >= min_passes && Since(start) >= seconds) break;
    pass();
  }
}

// -------------------------------------------------------- grid-cold-families

/// Equal, interleaved mix of the five families (spec i is family i % 5).
std::vector<QuerySpec> GridSpecs(const Dataset& dataset, uint64_t seed) {
  std::vector<std::vector<QuerySpec>> per_family;
  for (int f = 0; f < 5; ++f) {
    FamilyWorkloadParams params;
    params.base.num_queries = kGridQueriesPerFamily;
    params.base.num_objects = dataset.num_objects();
    params.base.span = dataset.span();
    params.family = static_cast<QueryFamily>(f);
    const bool boolean = params.family == QueryFamily::kBoolean;
    params.base.min_interval_len =
        boolean ? kGridBooleanMinInterval : kGridMinInterval;
    params.base.max_interval_len =
        boolean ? kGridBooleanMaxInterval : kGridMaxInterval;
    params.base.seed = seed * 1000003ull + static_cast<uint64_t>(f);
    // Transfer caps of 1-4 levels: enough to exercise the hop-level
    // sweeps without letting one 50-level query set the run's tail.
    params.min_decay = 0.3;
    params.max_decay = 0.5;
    params.min_contact_probability = 0.5;
    params.max_contact_probability = 0.7;
    params.min_path_floor = 0.2;
    params.max_path_floor = 0.4;
    params.max_candidates = 5;
    per_family.push_back(GenerateFamilyWorkload(params));
  }
  std::vector<QuerySpec> specs;
  for (int i = 0; i < kGridQueriesPerFamily; ++i) {
    for (int f = 0; f < 5; ++f) specs.push_back(per_family[f][i]);
  }
  return specs;
}

std::shared_ptr<const ReachGridIndex> BuildGrid(const Dataset& dataset) {
  ScopedSpan span(&g_tracer, "reachgrid.build");
  ReachGridOptions options;
  options.contact_range = dataset.contact_range;
  options.num_shards = kGridShards;
  options.build.page_codec = PageCodecKind::kDeltaVarint;
  return Must(ReachGridIndex::Build(dataset.store, options), "grid build");
}

QueryEngineOptions GridEngineOptions() {
  QueryEngineOptions options;
  options.cold_cache = true;
  options.page_codec = PageCodecKind::kDeltaVarint;
  return options;
}

struct GridFixture {
  Dataset dataset;
  std::vector<QuerySpec> specs;
  std::shared_ptr<const ContactNetwork> network;
  std::vector<FamilyAnswer> expected;
};

GridFixture MakeGridFixture(const Args& args, size_t max_specs) {
  GridFixture fx{MakeDataset(kGridScale, kGridTicks, args.dataset_seed), {},
                 nullptr, {}};
  fx.specs = GridSpecs(fx.dataset, args.seed);
  if (fx.specs.size() > max_specs) fx.specs.resize(max_specs);
  fx.network = BuildNetwork(fx.dataset);
  fx.expected = OracleAnswers(fx.network, fx.specs);
  AnswerHash hash;
  for (const FamilyAnswer& a : fx.expected) hash.Add(a);
  PrintAnswerHash("grid-cold-families", hash.value());
  return fx;
}

void RunGrid(const Args& args, Metrics* metrics, Tally* tally) {
  const GridFixture fx = MakeGridFixture(args, SIZE_MAX);
  const std::shared_ptr<const ReachGridIndex> index = BuildGrid(fx.dataset);
  const auto backend = MakeReachGridBackend(index);
  const QueryEngine engine(GridEngineOptions());

  // Warm-up pass. Every query runs on an empty pool, so its IO count is
  // the same in every pass and repeats exactly.
  const auto warm = Must(engine.RunFamilies(backend.get(), fx.specs),
                         "grid warm-up");
  CheckFamilyReport(warm, fx.specs, fx.expected, "grid", tally);
  const double io_per_query = warm.summary.mean_io_cost();

  // A build takes ~0.3 s and single builds swing by ±15% on a shared host,
  // so set-up is sampled in groups after the warm-up and after every timed
  // pass, and the median spans the run.
  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int i = 0; i < kGridSetupsPerSlot; ++i) {
      const auto start = Clock::now();
      const auto built = MakeReachGridBackend(BuildGrid(fx.dataset));
      setups.push_back(Since(start));
    }
  };
  time_setups();

  std::vector<double> qps, p50, p95;
  RunTimedPasses(args.seconds, kGridMinPasses, [&] {
    const auto report = Must(engine.RunFamilies(backend.get(), fx.specs),
                             "grid run");
    time_setups();
    CheckFamilyReport(report, fx.specs, fx.expected, "grid", tally);
    qps.push_back(report.summary.queries_per_second);
    p50.push_back(report.summary.p50_latency * 1e3);
    p95.push_back(report.summary.p95_latency * 1e3);
    std::printf("# pass qps=%.2f p50=%.3f p95=%.3f peak_rss=%.1f\n",
                qps.back(), p50.back(), p95.back(), PeakRssMb());
  });

  const double contacts = static_cast<double>(fx.network->contacts().size());
  const double setup_s = Median(setups);
  size_t reachable = 0;
  for (const FamilyAnswer& a : fx.expected) {
    reachable += a.family == QueryFamily::kBoolean && a.point.reachable;
  }
  std::printf("# grid: %zu objects, %.0f contacts, %zu specs/pass (%zu "
              "boolean reachable), %zu timed passes, %zu latency "
              "samples/pass, setups %zu\n",
              fx.dataset.num_objects(), contacts, fx.specs.size(), reachable,
              qps.size(), fx.specs.size(), setups.size());
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("query_qps", Median(qps), "1/s");
  metrics->Add("query_p50_ms", Median(p50), "ms");
  metrics->Add("query_p95_ms", Median(p95), "ms");
  metrics->Add("io_per_query", io_per_query, "count");
  metrics->Add("bytes_per_contact",
               static_cast<double>(index->build_stats().index_bytes) / contacts,
               "bytes");
  // The grid is built from trajectories, not contacts: its batch ingest is
  // the dataset's contacts made queryable per second of set-up.
  metrics->Add("ingest_contacts_per_s", contacts / setup_s, "1/s");
}

// --------------------------------------------------------- graph-hot-boolean

struct GraphFixture {
  Dataset dataset;
  std::vector<ReachQuery> queries;
};

GraphFixture MakeGraphFixture(const Args& args, size_t max_queries) {
  GraphFixture fx{MakeDataset(kGraphScale, kGraphTicks, args.dataset_seed),
                  {}};
  WorkloadParams params;
  params.num_queries = kGraphQueries;
  params.num_objects = fx.dataset.num_objects();
  params.span = fx.dataset.span();
  params.seed = args.seed;
  fx.queries = GenerateWorkload(params);
  if (fx.queries.size() > max_queries) fx.queries.resize(max_queries);
  return fx;
}

struct GraphStack {
  std::shared_ptr<const ContactNetwork> network;
  std::shared_ptr<const ReachGraphIndex> index;
};

/// trajectories -> contacts -> network -> ReachGraph (the timed set-up).
GraphStack BuildGraphStack(const Dataset& dataset) {
  ScopedSpan span(&g_tracer, "setup.graph");
  GraphStack stack;
  stack.network = BuildNetwork(dataset);
  ScopedSpan build(&g_tracer, "reachgraph.build");
  ReachGraphOptions options;
  options.buffer_pool_pages = kGraphPoolPages;
  stack.index = Must(ReachGraphIndex::Build(*stack.network, options),
                     "graph build");
  if (stack.index->build_stats().index_pages > kGraphPoolPages) {
    Fail("graph index outgrew the hot pool");
  }
  return stack;
}

std::vector<ReachAnswer> OracleReach(const ContactNetwork& network,
                                     const std::vector<ReachQuery>& queries) {
  ScopedSpan span(&g_tracer, "oracle.reach");
  std::vector<ReachAnswer> answers;
  answers.reserve(queries.size());
  for (const ReachQuery& q : queries) {
    answers.push_back(
        BruteForceReach(network, q.source, q.destination, q.interval));
  }
  return answers;
}

void CheckReachReport(const WorkloadReport& report,
                      const std::vector<ReachQuery>& queries,
                      const std::vector<ReachAnswer>& expected,
                      const char* context, Tally* tally) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool ok = report.statuses[i].ok() &&
                    SameReachability(report.answers[i], expected[i]);
    tally->Count(ok, std::string(context) + " " + queries[i].ToString());
  }
}

QueryEngineOptions GraphEngineOptions(bool cold) {
  QueryEngineOptions options;
  options.num_threads = kGraphThreads;
  options.cold_cache = cold;
  return options;
}

uint32_t HashReachability(const std::vector<ReachAnswer>& answers) {
  AnswerHash hash;
  for (const ReachAnswer& a : answers) hash.Put<uint8_t>(a.reachable ? 1 : 0);
  return hash.value();
}

void RunGraph(const Args& args, Metrics* metrics, Tally* tally) {
  const GraphFixture fx = MakeGraphFixture(args, SIZE_MAX);
  std::vector<double> setups;
  GraphStack stack;
  std::unique_ptr<ReachabilityIndex> backend;
  for (int i = 0; i < kGraphSetups; ++i) {
    backend.reset();
    stack = GraphStack{};
    const auto start = Clock::now();
    stack = BuildGraphStack(fx.dataset);
    backend = MakeReachGraphBackend(stack.index, ReachGraphTraversal::kBmBfs);
    setups.push_back(Since(start));
  }
  const std::vector<ReachAnswer> expected =
      OracleReach(*stack.network, fx.queries);
  PrintAnswerHash("graph-hot-boolean", HashReachability(expected));

  // Warm-up pass: the same queries on the same two engine threads, with the
  // pool cleared before each query. That makes it the paper's cold per-query
  // IO measurement too, and the count does not depend on which worker ran
  // which query.
  const auto cold = Must(
      QueryEngine(GraphEngineOptions(true)).Run(backend.get(), fx.queries),
      "graph warm-up");
  CheckReachReport(cold, fx.queries, expected, "graph", tally);

  const QueryEngine engine(GraphEngineOptions(false));
  std::vector<double> qps, p50, p95, ingest;
  SampleJoinRate(fx.dataset, &ingest);
  RunTimedPasses(args.seconds, kGraphMinPasses, [&] {
    const auto report = Must(engine.Run(backend.get(), fx.queries), "graph run");
    SampleJoinRate(fx.dataset, &ingest);
    CheckReachReport(report, fx.queries, expected, "graph", tally);
    qps.push_back(report.summary.queries_per_second);
    p50.push_back(report.summary.p50_latency * 1e3);
    p95.push_back(report.summary.p95_latency * 1e3);
    std::printf("# pass qps=%.2f p50=%.3f p95=%.3f peak_rss=%.1f\n",
                qps.back(), p50.back(), p95.back(), PeakRssMb());
  });

  const double contacts = static_cast<double>(stack.network->contacts().size());
  const double setup_s = Median(setups);
  std::printf("# graph: %zu objects, %.0f contacts, %zu queries/pass, %zu "
              "timed passes, %zu latency samples/pass, %d threads\n",
              fx.dataset.num_objects(), contacts, fx.queries.size(),
              qps.size(), fx.queries.size(), kGraphThreads);
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("query_qps", Median(qps), "1/s");
  metrics->Add("query_p50_ms", Median(p50), "ms");
  metrics->Add("query_p95_ms", Median(p95), "ms");
  metrics->Add("io_per_query", cold.summary.mean_io_cost(), "count");
  metrics->Add("bytes_per_contact",
               static_cast<double>(stack.index->build_stats().index_bytes) /
                   contacts,
               "bytes");
  metrics->Add("ingest_contacts_per_s", Median(ingest), "1/s");
}

// ------------------------------------------------------- stream-ingest-query

struct Burst {
  Timestamp watermark;
  std::vector<QuerySpec> specs;
};

/// One burst per slice after the set-up prefix; windows end at the burst's
/// watermark. Half the specs are boolean, half k-hop.
std::vector<Burst> StreamBursts(const Dataset& dataset, uint64_t seed) {
  const TimeInterval span = dataset.span();
  std::vector<Burst> bursts;
  for (Timestamp b = span.start + kStreamPrefixTicks; b <= span.end;
       b += kStreamSliceTicks) {
    bursts.push_back(Burst{b - 1, {}});
  }
  const int per_family = static_cast<int>(bursts.size()) * kStreamBurstQueries / 2;
  std::vector<std::vector<QuerySpec>> drawn;
  for (QueryFamily family : {QueryFamily::kBoolean, QueryFamily::kKHopReach}) {
    FamilyWorkloadParams params;
    params.base.num_queries = per_family;
    params.base.num_objects = dataset.num_objects();
    params.base.span = span;
    params.base.min_interval_len = kStreamMinWindow;
    params.base.max_interval_len = kStreamMaxWindow;
    params.base.seed = seed * 7919ull + static_cast<uint64_t>(family);
    params.family = family;
    drawn.push_back(GenerateFamilyWorkload(params));
  }
  size_t next = 0;
  for (Burst& burst : bursts) {
    for (int i = 0; i < kStreamBurstQueries; ++i, ++next) {
      QuerySpec spec = drawn[next % 2][next / 2];
      const Timestamp len = static_cast<Timestamp>(spec.interval.length());
      spec.interval = TimeInterval(
          std::max(span.start, burst.watermark - len + 1), burst.watermark);
      burst.specs.push_back(std::move(spec));
    }
  }
  return bursts;
}

StreamingOptions StreamOptions(const Dataset& dataset) {
  StreamingOptions options;
  options.num_objects = dataset.num_objects();
  options.span = dataset.span();
  options.seal_interval_ticks = kStreamSealTicks;
  options.build.page_codec = PageCodecKind::kDeltaVarint;
  return options;
}

/// What one stream pass measured.
struct StreamPass {
  double total_s = 0.0;
  double setup_s = 0.0;   ///< Create + ingest of the prefix.
  double query_s = 0.0;   ///< Inside the bursts.
  std::vector<double> latencies_s;
  std::vector<FamilyAnswer> answers;
  std::vector<bool> ok;
  std::vector<size_t> acked_before_burst;
  std::vector<Contact> acked;  ///< Kept only when verifying.
  uint64_t contacts = 0;
  uint64_t segments = 0;
  uint64_t stored_bytes = 0;
  uint64_t wal_bytes = 0;
  double io_total = 0.0;
  // Per-layer detail (traced passes only).
  double append_s = 0.0;
  uint64_t sealing_appends = 0;
  double sealing_append_s = 0.0;
  uint64_t snapshot_segments = 0;
  uint64_t snapshot_head = 0;
};

/// The ContactSink the join drives: forwards each contact to the ingestor
/// and, when the stream crosses a burst watermark, runs that burst inline.
class BurstingSink : public ContactSink {
 public:
  BurstingSink(StreamingIngestor* ingestor, ReachabilityIndex* backend,
               const std::vector<Burst>* bursts, Clock::time_point start,
               bool keep_contacts, StreamPass* out)
      : ingestor_(ingestor),
        backend_(backend),
        bursts_(bursts),
        start_(start),
        keep_contacts_(keep_contacts),
        out_(out) {
    QueryEngineOptions options;
    options.page_codec = PageCodecKind::kDeltaVarint;
    engine_ = std::make_unique<QueryEngine>(options);
  }

  void OnContact(const Contact& contact) override {
    RunDueBursts(contact.validity.end);
    if (g_tracer.enabled()) {
      const uint64_t sealed_before = ingestor_->sealed_segments();
      const auto t0 = Clock::now();
      const Status status = ingestor_->Append(contact);
      const auto t1 = Clock::now();
      Acknowledge(contact, status);
      const double s = std::chrono::duration<double>(t1 - t0).count();
      out_->append_s += s;
      if (ingestor_->sealed_segments() != sealed_before) {
        ++out_->sealing_appends;
        out_->sealing_append_s += s;
        g_tracer.Record("stream.seal", t0, t1);
      }
    } else {
      Acknowledge(contact, ingestor_->Append(contact));
    }
  }

  /// Runs the bursts whose watermark the stream has passed: all contacts
  /// closing at or before the watermark have been delivered.
  void RunDueBursts(Timestamp close_tick) {
    while (next_burst_ < bursts_->size() &&
           close_tick > (*bursts_)[next_burst_].watermark) {
      if (next_burst_ == 0) out_->setup_s = Since(start_);
      RunBurst((*bursts_)[next_burst_++]);
    }
  }

 private:
  void Acknowledge(const Contact& contact, const Status& status) {
    if (!status.ok()) Fail("append: " + status.ToString());
    ++out_->contacts;
    if (keep_contacts_) out_->acked.push_back(contact);
  }

  void RunBurst(const Burst& burst) {
    ScopedSpan span(&g_tracer, "stream.burst");
    out_->acked_before_burst.push_back(out_->contacts);
    for (const QuerySpec& spec : burst.specs) {
      if (g_tracer.enabled()) {
        const StreamingIngestor::Snapshot snap =
            ingestor_->SnapshotFor(spec.interval);
        out_->snapshot_segments += snap.segments.size();
        out_->snapshot_head += snap.head.size();
      }
      // One client, closed loop: each query waits for the previous one.
      const auto t0 = Clock::now();
      auto report = engine_->RunFamilies(backend_, {spec});
      const auto t1 = Clock::now();
      g_tracer.Record("stream.query", t0, t1);
      const double s = std::chrono::duration<double>(t1 - t0).count();
      out_->query_s += s;
      out_->latencies_s.push_back(s);
      const bool ok = report.ok() && report->statuses[0].ok();
      out_->ok.push_back(ok);
      out_->answers.push_back(ok ? report->answers[0] : FamilyAnswer{});
      if (report.ok()) out_->io_total += report->summary.total_io_cost;
    }
  }

  StreamingIngestor* ingestor_;
  ReachabilityIndex* backend_;
  const std::vector<Burst>* bursts_;
  Clock::time_point start_;
  bool keep_contacts_;
  StreamPass* out_;
  std::unique_ptr<QueryEngine> engine_;
  size_t next_burst_ = 0;
};

StreamPass RunStreamPass(const Dataset& dataset,
                         const std::vector<Burst>& bursts, bool keep_contacts) {
  ScopedSpan span(&g_tracer, "stream.pass");
  StreamPass out;
  const auto start = Clock::now();
  auto ingestor = Must(StreamingIngestor::Create(StreamOptions(dataset)),
                       "ingestor");
  auto backend = MakeStreamingBackend(ingestor);
  BurstingSink sink(ingestor.get(), backend.get(), &bursts, start,
                    keep_contacts, &out);
  JoinOptions join;
  join.threads = 1;
  {
    ScopedSpan extract(&g_tracer, "join.extract_to");
    ExtractContactsTo(dataset.store, dataset.contact_range, dataset.span(),
                      join, &sink);
  }
  sink.RunDueBursts(dataset.span().end + 1);
  {
    ScopedSpan seal(&g_tracer, "stream.seal_remaining");
    const Status sealed = ingestor->SealRemaining();
    if (!sealed.ok()) Fail("seal: " + sealed.ToString());
  }
  out.total_s = Since(start);
  out.segments = ingestor->sealed_segments();
  out.stored_bytes = ingestor->stored_bytes();
  out.wal_bytes = ingestor->WalBytes().size();
  return out;
}

/// Oracle check of a verification pass: each burst against the brute-force
/// evaluator over exactly the contacts acknowledged before it.
std::vector<FamilyAnswer> VerifyStreamPass(const Dataset& dataset,
                                           const std::vector<Burst>& bursts,
                                           const StreamPass& pass,
                                           Tally* tally) {
  ScopedSpan span(&g_tracer, "oracle.stream");
  std::vector<FamilyAnswer> expected;
  size_t q = 0;
  for (size_t b = 0; b < bursts.size(); ++b) {
    const size_t acked = pass.acked_before_burst[b];
    auto network = std::make_shared<const ContactNetwork>(
        dataset.num_objects(), dataset.span(),
        std::vector<Contact>(pass.acked.begin(), pass.acked.begin() + acked));
    const std::vector<FamilyAnswer> answers =
        OracleAnswers(network, bursts[b].specs);
    for (size_t i = 0; i < answers.size(); ++i, ++q) {
      tally->Count(pass.ok[q] && pass.answers[q] == answers[i],
                   "stream " + bursts[b].specs[i].ToString());
      expected.push_back(answers[i]);
    }
  }
  return expected;
}

void CheckStreamPass(const StreamPass& pass,
                     const std::vector<FamilyAnswer>& expected, Tally* tally) {
  for (size_t q = 0; q < expected.size(); ++q) {
    tally->Count(q < pass.answers.size() && pass.ok[q] &&
                     pass.answers[q] == expected[q],
                 "stream repeat #" + std::to_string(q));
  }
}

uint32_t HashFamilies(const std::vector<FamilyAnswer>& answers) {
  AnswerHash hash;
  for (const FamilyAnswer& a : answers) hash.Add(a);
  return hash.value();
}

void RunStream(const Args& args, Metrics* metrics, Tally* tally) {
  const Dataset dataset =
      MakeDataset(kStreamScale, kStreamTicks, args.dataset_seed);
  const std::vector<Burst> bursts = StreamBursts(dataset, args.seed);

  // The warm-up pass keeps its acknowledged contacts for the oracle.
  StreamPass warm = RunStreamPass(dataset, bursts, /*keep_contacts=*/true);
  const std::vector<FamilyAnswer> expected =
      VerifyStreamPass(dataset, bursts, warm, tally);
  PrintAnswerHash("stream-ingest-query", HashFamilies(expected));

  std::vector<double> setup, ingest, qps, p50, p95;
  RunTimedPasses(args.seconds, kStreamMinPasses, [&] {
    const StreamPass pass = RunStreamPass(dataset, bursts, false);
    CheckStreamPass(pass, expected, tally);
    setup.push_back(pass.setup_s);
    ingest.push_back(static_cast<double>(pass.contacts) /
                     (pass.total_s - pass.query_s));
    qps.push_back(static_cast<double>(pass.latencies_s.size()) / pass.query_s);
    p50.push_back(Percentile(pass.latencies_s, 0.50) * 1e3);
    p95.push_back(Percentile(pass.latencies_s, 0.95) * 1e3);
    std::printf("# pass setup=%.4f ingest=%.0f qps=%.2f p50=%.3f p95=%.3f\n",
                setup.back(), ingest.back(), qps.back(), p50.back(),
                p95.back());
  });
  std::printf("# stream: %zu objects, %" PRIu64 " contacts, %" PRIu64
              " segments, %zu bursts x %d queries, %zu timed passes, %zu "
              "latency samples/pass\n",
              dataset.num_objects(), warm.contacts, warm.segments,
              bursts.size(), kStreamBurstQueries, setup.size(),
              warm.latencies_s.size());
  metrics->Add("setup_s", Median(setup), "s");
  metrics->Add("query_qps", Median(qps), "1/s");
  metrics->Add("query_p50_ms", Median(p50), "ms");
  metrics->Add("query_p95_ms", Median(p95), "ms");
  metrics->Add("io_per_query",
               warm.io_total / static_cast<double>(warm.latencies_s.size()),
               "count");
  metrics->Add("bytes_per_contact",
               static_cast<double>(warm.stored_bytes) /
                   static_cast<double>(warm.contacts),
               "bytes");
  metrics->Add("ingest_contacts_per_s", Median(ingest), "1/s");
}

// ------------------------------------------------------------ traced census
//
// One traced pass of each pipeline, over a prefix of its query set. Each
// per-layer metric is taken on the workload whose layer it describes. The
// named workload's measured pass also runs untraced, alternating with the
// traced one, for trace.overhead_pct.

constexpr int kOverheadRounds = 2;

/// Runs `pass` once untraced (warm-up), then — for the named workload —
/// kOverheadRounds of (untraced, traced), else one traced pass. Returns the
/// traced-over-untraced time in percent (0 when not named). The tracer is
/// left enabled and the last pass run is a traced one.
double TracedPasses(bool named, const std::function<void()>& pass) {
  g_tracer.set_enabled(false);
  pass();
  double untraced = 0.0, traced = 0.0;
  for (int round = 0; round < (named ? kOverheadRounds : 1); ++round) {
    if (named) {
      const auto start = Clock::now();
      pass();
      untraced += Since(start);
    }
    g_tracer.set_enabled(true);
    const auto start = Clock::now();
    pass();
    traced += Since(start);
    g_tracer.set_enabled(false);
  }
  g_tracer.set_enabled(true);
  return named ? 100.0 * (traced - untraced) / untraced : 0.0;
}

void GridCensus(const Args& args, bool named, Metrics* metrics, Tally* tally,
                double* overhead_pct) {
  const GridFixture fx = MakeGridFixture(args, kCensusGridSpecs);
  const auto index = BuildGrid(fx.dataset);
  auto backend = MakeReachGridBackend(index);
  const QueryEngine engine(GridEngineOptions());
  FamilyWorkloadReport report;
  *overhead_pct = TracedPasses(named, [&] {
    ScopedSpan span(&g_tracer, "engine.run_families");
    report = Must(engine.RunFamilies(backend.get(), fx.specs), "grid run");
    CheckFamilyReport(report, fx.specs, fx.expected, "grid", tally);
  });

  // Direct session calls per primitive, cold like the workload.
  std::vector<double> boolean_ms, profile_ms, sets_ms;
  double cells = 0.0;
  for (size_t i = 0; i < fx.specs.size(); ++i) {
    const QuerySpec& spec = fx.specs[i];
    backend->ClearCache();
    const auto t0 = Clock::now();
    bool ok = false;
    const char* name = "reachgrid.profile";
    std::vector<double>* bucket = &profile_ms;
    if (spec.family == QueryFamily::kBoolean) {
      // The engine's boolean path: the closure, read at the destination.
      name = "reachgrid.boolean";
      bucket = &boolean_ms;
      auto set = backend->ReachableSet(spec.source, spec.interval);
      ok = set.ok() && SameAnswer(AnswerFromSet(*set, spec.destination),
                                  fx.expected[i].point);
    } else if (spec.family == QueryFamily::kTopKSources) {
      name = "reachgrid.sets";
      bucket = &sets_ms;
      auto sets = backend->ReachableSets(spec.candidates, spec.interval);
      ok = sets.ok() && RankTopK(spec, *sets) == fx.expected[i];
    } else {
      const HopConstraints hops = Must(ResolveHops(spec), "hops");
      auto profile =
          backend->ConstrainedProfile(spec.source, spec.interval, hops);
      ok = profile.ok() &&
           AnswerFromProfile(spec, std::move(*profile)) == fx.expected[i];
    }
    const auto t1 = Clock::now();
    g_tracer.Record(name, t0, t1);
    tally->Count(ok, "grid direct " + spec.ToString());
    bucket->push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    cells += static_cast<double>(backend->last_query_stats().items_visited);
  }
  const PageReplay replay = ReplayPages(index->topology(), "grid");

  const double n = static_cast<double>(fx.specs.size());
  uint64_t retries = 0;
  for (const IoStats& shard : report.summary.per_shard_io) {
    retries += shard.read_retries;
  }
  const auto totals = g_tracer.Summarize();
  metrics->Add("reachgrid.build_s", totals.at("reachgrid.build").total_s, "s");
  metrics->Add("reachgrid.boolean_ms", Mean(boolean_ms), "ms");
  metrics->Add("reachgrid.profile_ms", Mean(profile_ms), "ms");
  metrics->Add("reachgrid.sets_ms", Mean(sets_ms), "ms");
  metrics->Add("reachgrid.cells_per_query", cells / n, "count");
  metrics->Add("storage.pages_per_query",
               static_cast<double>(report.summary.total_pages_fetched) / n,
               "count");
  metrics->Add("storage.fetch_miss_us", replay.miss_us, "us");
  metrics->Add("storage.checksum_us_per_page", replay.checksum_us, "us");
  metrics->Add("storage.decoded_bytes_per_query",
               static_cast<double>(report.summary.total_decoded_bytes()) / n,
               "bytes");
  metrics->Add("storage.read_retries", static_cast<double>(retries), "count");
}

/// What a direct session loop over the graph queries measured.
struct DirectLoop {
  double wall_s = 0.0;
  std::vector<double> query_ms;
  double vertices = 0.0;
};

/// The engine's striping without the engine: kGraphThreads workers claim
/// queries off one counter, worker 0 on the caller's session and the rest
/// on fresh ones, exactly as `QueryEngine::Run` assigns them.
DirectLoop RunDirectLoop(ReachabilityIndex* backend,
                         const std::vector<ReachQuery>& queries,
                         const std::vector<ReachAnswer>& expected,
                         Tally* tally) {
  const size_t n = queries.size();
  std::vector<Clock::time_point> t0(n), t1(n);
  std::vector<uint64_t> visited(n, 0);
  std::vector<int> lane(n, 0);
  std::vector<char> ok(n, 0);
  std::atomic<size_t> next{0};
  std::vector<std::unique_ptr<ReachabilityIndex>> extra;
  std::vector<ReachabilityIndex*> sessions{backend};
  for (int i = 1; i < kGraphThreads; ++i) {
    extra.push_back(backend->NewSession());
    sessions.push_back(extra.back().get());
  }
  DirectLoop out;
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kGraphThreads; ++w) {
      threads.emplace_back([&, w] {
        ReachabilityIndex* session = sessions[static_cast<size_t>(w)];
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          t0[i] = Clock::now();
          auto answer = session->Query(queries[i]);
          t1[i] = Clock::now();
          ok[i] = answer.ok() && SameReachability(*answer, expected[i]);
          visited[i] = session->last_query_stats().items_visited;
          lane[i] = w + 1;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.wall_s = Since(start);
  for (size_t i = 0; i < n; ++i) {
    g_tracer.Record("reachgraph.query", t0[i], t1[i], lane[i]);
    tally->Count(ok[i] != 0, "graph direct " + queries[i].ToString());
    out.query_ms.push_back(
        std::chrono::duration<double, std::milli>(t1[i] - t0[i]).count());
    out.vertices += static_cast<double>(visited[i]);
  }
  return out;
}

void GraphCensus(const Args& args, bool named, Metrics* metrics, Tally* tally,
                 double* overhead_pct) {
  const GraphFixture fx = MakeGraphFixture(args, kCensusGraphQueries);
  const GraphStack stack = BuildGraphStack(fx.dataset);
  const std::vector<ReachAnswer> expected =
      OracleReach(*stack.network, fx.queries);
  PrintAnswerHash("graph-hot-boolean", HashReachability(expected));
  auto backend = MakeReachGraphBackend(stack.index, ReachGraphTraversal::kBmBfs);
  const QueryEngine engine(GraphEngineOptions(false));
  WorkloadReport report;
  std::vector<double> engine_s;
  const auto engine_pass = [&] {
    ScopedSpan span(&g_tracer, "engine.run");
    const auto start = Clock::now();
    report = Must(engine.Run(backend.get(), fx.queries), "graph run");
    engine_s.push_back(Since(start));
    CheckReachReport(report, fx.queries, expected, "graph", tally);
  };
  *overhead_pct = TracedPasses(named, engine_pass);

  // Engine overhead: traced engine runs alternating with direct loops.
  const double last_engine_s = engine_s.back();
  const double busy_s = report.summary.mean_latency *
                        static_cast<double>(fx.queries.size());
  const DirectLoop first = RunDirectLoop(backend.get(), fx.queries, expected,
                                         tally);
  engine_pass();
  const DirectLoop second = RunDirectLoop(backend.get(), fx.queries, expected,
                                          tally);
  const double engine_wall = last_engine_s + engine_s.back();
  const double direct_wall = first.wall_s + second.wall_s;
  std::vector<double> query_ms = first.query_ms;
  query_ms.insert(query_ms.end(), second.query_ms.begin(),
                  second.query_ms.end());
  const PageReplay replay = ReplayPages(stack.index->topology(), "graph");

  const ReachGraphBuildStats& build = stack.index->build_stats();
  const auto totals = g_tracer.Summarize();
  const double nq = static_cast<double>(fx.queries.size());
  metrics->Add("join.extract_s", totals.at("join.extract").self_s, "s");
  metrics->Add("join.contacts",
               static_cast<double>(stack.network->contacts().size()), "count");
  metrics->Add("network.build_s", totals.at("network.build").self_s, "s");
  metrics->Add("reachgraph.build_s", totals.at("reachgraph.build").total_s, "s");
  metrics->Add("reachgraph.reduction_s", build.reduction_seconds, "s");
  metrics->Add("reachgraph.augmentation_s", build.augmentation_seconds, "s");
  metrics->Add("reachgraph.placement_s", build.placement_seconds, "s");
  metrics->Add("reachgraph.query_ms", Mean(query_ms), "ms");
  metrics->Add("reachgraph.vertices_per_query",
               (first.vertices + second.vertices) / (2 * nq), "count");
  metrics->Add("storage.pool_hit_rate", report.summary.pool_hit_rate(), "ratio");
  metrics->Add("storage.fetch_hit_us", replay.hit_us, "us");
  metrics->Add("engine.overhead_us_per_query",
               (engine_wall - direct_wall) * kGraphThreads * 1e6 / (2 * nq),
               "us");
  metrics->Add("engine.worker_busy_fraction",
               busy_s / (last_engine_s * kGraphThreads), "ratio");
}

void StreamCensus(const Args& args, bool named, Metrics* metrics,
                  Tally* tally, double* overhead_pct) {
  const Dataset dataset =
      MakeDataset(kStreamScale, kStreamTicks, args.dataset_seed);
  const std::vector<Burst> bursts = StreamBursts(dataset, args.seed);
  StreamPass verified = RunStreamPass(dataset, bursts, true);
  const std::vector<FamilyAnswer> expected =
      VerifyStreamPass(dataset, bursts, verified, tally);
  PrintAnswerHash("stream-ingest-query", HashFamilies(expected));
  StreamPass pass;
  *overhead_pct = TracedPasses(named, [&] {
    pass = RunStreamPass(dataset, bursts, false);
    CheckStreamPass(pass, expected, tally);
  });
  const double queries = static_cast<double>(pass.latencies_s.size());
  const double contacts = static_cast<double>(pass.contacts);
  if (pass.sealing_appends == 0) Fail("stream pass sealed no segment");
  metrics->Add("stream.append_us", pass.append_s * 1e6 / contacts, "us");
  metrics->Add("stream.seal_ms",
               pass.sealing_append_s * 1e3 /
                   static_cast<double>(pass.sealing_appends),
               "ms");
  metrics->Add("stream.wal_bytes_per_contact",
               static_cast<double>(pass.wal_bytes) / contacts, "bytes");
  metrics->Add("stream.segments", static_cast<double>(pass.segments), "count");
  metrics->Add("stream.snapshot_segments_per_query",
               static_cast<double>(pass.snapshot_segments) / queries, "count");
  metrics->Add("stream.snapshot_head_contacts_per_query",
               static_cast<double>(pass.snapshot_head) / queries, "count");
  metrics->Add("stream.query_ms", pass.query_s * 1e3 / queries, "ms");
}

void RunCensus(const Args& args, Metrics* metrics, Tally* tally) {
  g_tracer.set_enabled(true);
  double grid_overhead = 0.0, graph_overhead = 0.0, stream_overhead = 0.0;
  GraphCensus(args, args.workload == kWorkloads[1], metrics, tally,
              &graph_overhead);
  GridCensus(args, args.workload == kWorkloads[0], metrics, tally,
             &grid_overhead);
  StreamCensus(args, args.workload == kWorkloads[2], metrics, tally,
               &stream_overhead);
  const double overhead = args.workload == kWorkloads[0]   ? grid_overhead
                          : args.workload == kWorkloads[1] ? graph_overhead
                                                           : stream_overhead;
  metrics->Add("trace.overhead_pct", overhead, "%");

  std::printf("# spans: count, total and self seconds\n");
  std::map<std::string, double> by_layer;
  for (const auto& [name, t] : g_tracer.Summarize()) {
    by_layer[name.substr(0, name.find('.'))] += t.self_s;
    std::printf("#   %-34s n=%-6" PRIu64 " total=%.4f self=%.4f\n",
                name.c_str(), t.count, t.total_s, t.self_s);
  }
  for (const auto& [layer, self_s] : by_layer) {
    std::printf("# layer %-12s self=%.4f s\n", layer.c_str(), self_s);
  }
  if (!args.trace_out.empty() && !g_tracer.WriteChromeJson(args.trace_out)) {
    Fail("cannot write " + args.trace_out);
  }
}

// --------------------------------------------------------------------- main

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dataset-seed") {
      args.dataset_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    Fail("unknown workload '" + args.workload + "'");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::printf("# workload=%s seed=%" PRIu64 " dataset_seed=%" PRIu64
              " seconds=%.1f trace=%d\n",
              args.workload.c_str(), args.seed, args.dataset_seed,
              args.seconds, args.trace ? 1 : 0);
  Metrics metrics;
  Tally tally;
  if (args.trace) {
    RunCensus(args, &metrics, &tally);
  } else {
    if (args.workload == kWorkloads[0]) RunGrid(args, &metrics, &tally);
    if (args.workload == kWorkloads[1]) RunGraph(args, &metrics, &tally);
    if (args.workload == kWorkloads[2]) RunStream(args, &metrics, &tally);
    metrics.Add("success_rate",
                static_cast<double>(tally.attempted - tally.failed) /
                    static_cast<double>(tally.attempted),
                "ratio");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("# wall %.2f s\n", Since(g_start));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace streach

int main(int argc, char** argv) {
  return streach::perfbench::Main(argc, argv);
}
