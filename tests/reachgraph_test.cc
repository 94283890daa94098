// Correctness tests for the ReachGraph index (§5): DN reduction
// invariants, long-edge augmentation, disk partitioning, and agreement of
// all four traversal algorithms with the brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "generators/datasets.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/augmenter.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/dn_graph.h"
#include "reachgraph/reach_graph_index.h"
#include "storage/checksum.h"

namespace streach {
namespace {

ContactNetwork Figure1Network() {
  std::vector<Contact> contacts = {
      Contact(0, 1, TimeInterval(0, 0)),
      Contact(1, 3, TimeInterval(1, 1)),
      Contact(2, 3, TimeInterval(1, 2)),
      Contact(0, 1, TimeInterval(2, 3)),
  };
  return ContactNetwork(4, TimeInterval(0, 3), std::move(contacts));
}

ContactNetwork RandomRwpNetwork(uint64_t seed, int objects = 40,
                                Timestamp ticks = 160, double dt = 30.0) {
  RandomWaypointParams params;
  params.num_objects = objects;
  params.area = Rect(0, 0, 400, 400);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = ticks;
  params.seed = seed;
  auto store = GenerateRandomWaypoint(params);
  EXPECT_TRUE(store.ok());
  return ContactNetwork(store->num_objects(), store->span(),
                        ExtractContacts(*store, dt));
}

// ------------------------------------------------------------- DnBuilder

TEST(DnBuilderTest, Figure1Reduction) {
  auto dn = BuildDnGraph(Figure1Network());
  ASSERT_TRUE(dn.ok());
  // Every (object, tick) maps to exactly one vertex whose members contain
  // the object.
  for (ObjectId o = 0; o < 4; ++o) {
    for (Timestamp t = 0; t <= 3; ++t) {
      const VertexId v = dn->VertexOf(o, t);
      ASSERT_NE(v, kInvalidVertex);
      const DnVertex& vx = dn->vertex(v);
      EXPECT_TRUE(vx.span.Contains(t));
      EXPECT_TRUE(std::binary_search(vx.members.begin(), vx.members.end(), o));
    }
  }
  // At t=0 the components are {o0,o1}, {o2}, {o3}.
  const VertexId c01 = dn->VertexOf(0, 0);
  EXPECT_EQ(c01, dn->VertexOf(1, 0));
  EXPECT_NE(c01, dn->VertexOf(2, 0));
  EXPECT_NE(dn->VertexOf(2, 0), dn->VertexOf(3, 0));
  // At t=1: {o1,o2,o3} together (contacts o1-o3 and o2-o3), {o0} alone.
  const VertexId c123 = dn->VertexOf(1, 1);
  EXPECT_EQ(c123, dn->VertexOf(2, 1));
  EXPECT_EQ(c123, dn->VertexOf(3, 1));
  EXPECT_NE(c123, dn->VertexOf(0, 1));
}

TEST(DnBuilderTest, MergingCollapsesStableComponents) {
  // Two objects in permanent contact, one isolated: with merging the DAG
  // needs just 2 vertices; unmerged it needs 2 per tick.
  std::vector<Contact> contacts = {Contact(0, 1, TimeInterval(0, 9))};
  const ContactNetwork net(3, TimeInterval(0, 9), std::move(contacts));
  auto merged = BuildDnGraph(net);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_vertices(), 2u);
  EXPECT_EQ(merged->stats().num_edges, 0u);
  EXPECT_EQ(merged->stats().unmerged_vertices, 20u);

  DnBuilderOptions no_merge;
  no_merge.merge_identical_components = false;
  auto unmerged = BuildDnGraph(net, no_merge);
  ASSERT_TRUE(unmerged.ok());
  EXPECT_EQ(unmerged->num_vertices(), 20u);
}

TEST(DnBuilderTest, VertexIdsAreTopological) {
  const ContactNetwork net = RandomRwpNetwork(71, 30, 80);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  for (VertexId v = 0; v < dn->num_vertices(); ++v) {
    for (VertexId w : dn->vertex(v).out) {
      EXPECT_GT(w, v);
      // DN_1 edge arrives exactly one tick after the source span ends.
      EXPECT_EQ(dn->vertex(w).span.start, dn->vertex(v).span.end + 1);
    }
    for (VertexId u : dn->vertex(v).in) {
      EXPECT_LT(u, v);
    }
  }
}

TEST(DnBuilderTest, MembersPartitionObjectsPerTick) {
  const ContactNetwork net = RandomRwpNetwork(73, 25, 60);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  for (Timestamp t = 0; t < 60; ++t) {
    std::set<ObjectId> seen;
    std::set<VertexId> vertices;
    for (ObjectId o = 0; o < 25; ++o) {
      vertices.insert(dn->VertexOf(o, t));
    }
    for (VertexId v : vertices) {
      for (ObjectId o : dn->vertex(v).members) {
        EXPECT_TRUE(seen.insert(o).second)
            << "object in two components at t=" << t;
      }
    }
    EXPECT_EQ(seen.size(), 25u);
  }
}

TEST(DnBuilderTest, ReductionCountsMatchPaperDirection) {
  // DN must be significantly smaller than the unmerged component DAG,
  // which in turn is smaller than the TEN (§6.2.1.1).
  const ContactNetwork net = RandomRwpNetwork(79, 50, 200);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  const TenStats ten = net.ComputeTenStats();
  EXPECT_LT(dn->stats().num_vertices, dn->stats().unmerged_vertices);
  EXPECT_LT(dn->stats().unmerged_vertices, ten.num_vertices);
  EXPECT_LT(dn->stats().num_edges, ten.num_edges);
}

TEST(DnBuilderTest, DnPreservesReachabilityUnderMergeToggle) {
  // Vertex-level reachability in DN must be identical with and without
  // the merging step (the merge is lossless).
  const ContactNetwork net = RandomRwpNetwork(83, 25, 80);
  auto merged = BuildDnGraph(net);
  DnBuilderOptions no_merge_opts;
  no_merge_opts.merge_identical_components = false;
  auto plain = BuildDnGraph(net, no_merge_opts);
  ASSERT_TRUE(merged.ok() && plain.ok());
  // Compare through full queries on indexes built from each graph.
  ReachGraphOptions options;
  options.num_resolutions = 1;
  auto index_merged = ReachGraphIndex::BuildFromDn(std::move(*merged), options);
  auto index_plain = ReachGraphIndex::BuildFromDn(std::move(*plain), options);
  ASSERT_TRUE(index_merged.ok() && index_plain.ok());
  WorkloadParams wl;
  wl.num_queries = 80;
  wl.num_objects = 25;
  wl.span = TimeInterval(0, 79);
  wl.min_interval_len = 5;
  wl.max_interval_len = 60;
  wl.seed = 17;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    auto a = (*index_merged)->QueryBmBfs(q);
    auto b = (*index_plain)->QueryBmBfs(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->reachable, b->reachable) << q.ToString();
  }
}

// -------------------------------------------------------------- Augmenter

TEST(AugmenterTest, LongEdgesAreSoundAndAnchored) {
  const ContactNetwork net = RandomRwpNetwork(89, 30, 96);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 5;  // L up to 16.
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  EXPECT_GT(dn->stats().num_long_edges, 0u);
  for (VertexId v = 0; v < dn->num_vertices(); ++v) {
    const DnVertex& vx = dn->vertex(v);
    for (const LongEdge& e : vx.long_out) {
      // Anchor alignment and source/target liveness.
      EXPECT_EQ((e.anchor - net.span().start) % e.length, 0);
      EXPECT_TRUE(vx.span.Contains(e.anchor));
      EXPECT_TRUE(dn->vertex(e.target).span.Contains(
          static_cast<Timestamp>(e.anchor + e.length)));
      EXPECT_NE(e.target, v);
      // Soundness: some member of the target is brute-force reachable
      // from some member of the source over [anchor, anchor+L].
      const ObjectId src = vx.members.front();
      const auto closure = BruteForceClosure(
          net, src, TimeInterval(e.anchor, e.anchor + e.length));
      bool any = false;
      for (ObjectId o : dn->vertex(e.target).members) {
        any |= closure[o] != kInvalidTime;
      }
      EXPECT_TRUE(any) << "unsound long edge";
    }
  }
}

TEST(AugmenterTest, CompletenessAtResolutionBoundaries) {
  // For every pair of vertices u alive at ta, v alive at ta+L with v's
  // component brute-force reachable from u's, a long edge (or identity)
  // must exist. Checked on a small network for L = 4.
  const ContactNetwork net = RandomRwpNetwork(97, 15, 24);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 3;  // L = 2, 4.
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  const Timestamp L = 4;
  for (Timestamp ta = 0; ta + L <= net.span().end; ta += L) {
    for (ObjectId o = 0; o < 15; ++o) {
      const VertexId u = dn->VertexOf(o, ta);
      const auto closure = BruteForceClosure(net, o, TimeInterval(ta, ta + L));
      for (ObjectId p = 0; p < 15; ++p) {
        if (closure[p] == kInvalidTime) continue;
        const VertexId v = dn->VertexOf(p, ta + L);
        if (v == u) continue;  // Identity: staying put, no edge needed.
        bool found = false;
        for (const LongEdge& e : dn->vertex(u).long_out) {
          if (e.target == v && e.anchor == ta && e.length == L) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "missing long edge o" << o << "@" << ta
                           << " -> o" << p << "@" << ta + L;
      }
    }
  }
}

TEST(AugmenterTest, DegreeGrowsWithResolution) {
  // Table 4's qualitative shape: average degree increases with L.
  const ContactNetwork net = RandomRwpNetwork(101, 60, 256, 40.0);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 6;
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  double prev = 0;
  int increases = 0;
  for (int32_t len : {2, 4, 8, 16, 32}) {
    const double deg = dn->AverageDegreeAtResolution(len);
    if (deg > prev) ++increases;
    prev = deg;
  }
  EXPECT_GE(increases, 4);
}

// --------------------------------------------------------- ReachGraphIndex

struct TraversalCase {
  const char* name;
  int num_resolutions;
};

class ReachGraphQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachGraphQueryTest, AllTraversalsMatchBruteForce) {
  const ContactNetwork net = RandomRwpNetwork(103, 40, 160);
  ReachGraphOptions options;
  options.num_resolutions = GetParam();
  options.partition_depth = 8;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  WorkloadParams wl;
  wl.num_queries = 150;
  wl.num_objects = 40;
  wl.span = net.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 150;
  wl.seed = 11;
  int reachable = 0;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(net, q.source, q.destination, q.interval).reachable;
    reachable += expected;
    auto bm = (*index)->QueryBmBfs(q);
    auto bb = (*index)->QueryBBfs(q);
    auto eb = (*index)->QueryEBfs(q);
    auto ed = (*index)->QueryEDfs(q);
    ASSERT_TRUE(bm.ok() && bb.ok() && eb.ok() && ed.ok());
    EXPECT_EQ(bm->reachable, expected) << "BM-BFS " << q.ToString();
    EXPECT_EQ(bb->reachable, expected) << "B-BFS " << q.ToString();
    EXPECT_EQ(eb->reachable, expected) << "E-BFS " << q.ToString();
    EXPECT_EQ(ed->reachable, expected) << "E-DFS " << q.ToString();
  }
  EXPECT_GT(reachable, 10);
  EXPECT_LT(reachable, 140);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ReachGraphQueryTest,
                         ::testing::Values(1, 2, 4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "R" + std::to_string(info.param);
                         });

TEST(ReachGraphTest, Figure1Queries) {
  ReachGraphOptions options;
  options.num_resolutions = 2;
  auto index = ReachGraphIndex::Build(Figure1Network(), options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->QueryBmBfs({0, 3, TimeInterval(0, 1)})->reachable);
  EXPECT_FALSE((*index)->QueryBmBfs({3, 0, TimeInterval(0, 1)})->reachable);
  EXPECT_TRUE((*index)->QueryBmBfs({0, 1, TimeInterval(2, 3)})->reachable);
  EXPECT_FALSE((*index)->QueryBmBfs({0, 3, TimeInterval(1, 3)})->reachable);
  EXPECT_TRUE((*index)->QueryBmBfs({2, 0, TimeInterval(1, 3)})->reachable);
}

TEST(ReachGraphTest, VnDatasetAgreement) {
  auto dataset = MakeVnDataset(DatasetScale::kSmall, 128);
  ASSERT_TRUE(dataset.ok());
  const ContactNetwork net(
      dataset->num_objects(), dataset->span(),
      ExtractContacts(dataset->store, dataset->contact_range));
  ReachGraphOptions options;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  WorkloadParams wl;
  wl.num_queries = 80;
  wl.num_objects = dataset->num_objects();
  wl.span = net.span();
  wl.min_interval_len = 10;
  wl.max_interval_len = 100;
  wl.seed = 13;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(net, q.source, q.destination, q.interval).reachable;
    auto bm = (*index)->QueryBmBfs(q);
    ASSERT_TRUE(bm.ok());
    EXPECT_EQ(bm->reachable, expected) << q.ToString();
  }
}

TEST(ReachGraphTest, PartitionDepthSweepIsExact) {
  const ContactNetwork net = RandomRwpNetwork(107, 30, 100);
  WorkloadParams wl;
  wl.num_queries = 50;
  wl.num_objects = 30;
  wl.span = net.span();
  wl.min_interval_len = 10;
  wl.max_interval_len = 90;
  wl.seed = 19;
  const auto queries = GenerateWorkload(wl);
  for (int dp : {0, 1, 4, 32, 64}) {
    ReachGraphOptions options;
    options.partition_depth = dp;
    auto index = ReachGraphIndex::Build(net, options);
    ASSERT_TRUE(index.ok());
    for (const ReachQuery& q : queries) {
      const bool expected =
          BruteForceReach(net, q.source, q.destination, q.interval).reachable;
      EXPECT_EQ((*index)->QueryBmBfs(q)->reachable, expected)
          << "dp=" << dp << " " << q.ToString();
    }
  }
}

TEST(ReachGraphTest, SelfAndDegenerateQueries) {
  const ContactNetwork net = Figure1Network();
  auto index = ReachGraphIndex::Build(net, ReachGraphOptions{});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->QueryBmBfs({2, 2, TimeInterval(0, 3)})->reachable);
  EXPECT_FALSE((*index)->QueryBmBfs({0, 1, TimeInterval(9, 5)})->reachable);
  EXPECT_FALSE((*index)->QueryBmBfs({0, 1, TimeInterval(50, 60)})->reachable);
  // Clamping.
  EXPECT_TRUE((*index)->QueryBmBfs({0, 3, TimeInterval(-5, 1)})->reachable);
}

TEST(ReachGraphTest, BuildStatsAndPartitions) {
  const ContactNetwork net = RandomRwpNetwork(109, 30, 120);
  ReachGraphOptions options;
  options.partition_depth = 16;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  const auto& stats = (*index)->build_stats();
  EXPECT_GT(stats.dn.num_vertices, 0u);
  EXPECT_GT(stats.dn.num_edges, 0u);
  EXPECT_GT(stats.dn.num_long_edges, 0u);
  EXPECT_GT(stats.num_partitions, 0u);
  EXPECT_LE(stats.num_partitions, stats.dn.num_vertices);
  EXPECT_GT(stats.index_pages, 0u);
  EXPECT_EQ((*index)->num_vertices(), stats.dn.num_vertices);
}

TEST(ReachGraphTest, PartitionDepthTradeoffShape) {
  // Figure 12's qualitative shape: query IO falls from depth 0 to an
  // interior optimum, then rises sharply when partitions get so large
  // that fetching one drags in mostly redundant vertices. (The paper's
  // optimum is 32 at its scale; at this test's scale it sits near 16.)
  RandomWaypointParams params;
  params.num_objects = 200;
  params.area = Rect(0, 0, 1000, 1000);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = 600;
  params.seed = 113;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const ContactNetwork net(store->num_objects(), store->span(),
                           ExtractContacts(*store, 30.0));
  WorkloadParams wl;
  wl.num_queries = 30;
  wl.num_objects = 200;
  wl.span = net.span();
  wl.min_interval_len = 150;
  wl.max_interval_len = 350;
  wl.seed = 23;
  const auto queries = GenerateWorkload(wl);
  auto measure = [&](int dp) {
    ReachGraphOptions options;
    options.partition_depth = dp;
    auto index = ReachGraphIndex::Build(net, options);
    EXPECT_TRUE(index.ok());
    double io = 0;
    for (const ReachQuery& q : queries) {
      (*index)->ClearCache();
      EXPECT_TRUE((*index)->QueryBmBfs(q).ok());
      io += (*index)->last_query_stats().io_cost;
    }
    return io / queries.size();
  };
  const double at_0 = measure(0);
  const double at_16 = measure(16);
  const double at_64 = measure(64);
  EXPECT_LT(at_16, at_0);   // Buffering future vertices pays off...
  EXPECT_LT(at_16, at_64);  // ...until partitions turn mostly redundant.
}

TEST(ReachGraphTest, QueryStatsTrackIo) {
  const ContactNetwork net = RandomRwpNetwork(127, 40, 160);
  auto index = ReachGraphIndex::Build(net, ReachGraphOptions{});
  ASSERT_TRUE(index.ok());
  (*index)->ClearCache();
  ASSERT_TRUE((*index)->QueryBmBfs({0, 20, TimeInterval(0, 150)}).ok());
  const QueryStats& stats = (*index)->last_query_stats();
  EXPECT_GT(stats.io_cost, 0.0);
  EXPECT_GT(stats.pages_fetched, 0u);
}


// ------------------------------------------------- Pinned read sequence

/// Folds a run of queries into one comparable record: the answer bytes
/// and per-query `QueryStats` (io_cost, pages, pool hits, vertices) of
/// every query in order, hashed, plus their totals for a readable diff.
/// Two runs with equal records gave the same answers and walked the
/// buffer pool through the same hits and misses, query by query.
struct PinnedRun {
  std::string name;
  double io_cost;
  uint64_t pages;
  uint64_t hits;
  uint64_t items;
  uint32_t digest;
};

class RunRecorder {
 public:
  explicit RunRecorder(std::string name) { run_.name = std::move(name); }

  void Add(const std::string& answer, const QueryStats& s) {
    uint64_t io_bits;
    std::memcpy(&io_bits, &s.io_cost, sizeof(io_bits));
    bytes_ += answer;
    for (uint64_t field : {io_bits, s.pages_fetched, s.pool_hits,
                           s.items_visited}) {
      bytes_.append(reinterpret_cast<const char*>(&field), sizeof(field));
    }
    run_.io_cost += s.io_cost;
    run_.pages += s.pages_fetched;
    run_.hits += s.pool_hits;
    run_.items += s.items_visited;
  }

  PinnedRun Finish() {
    run_.digest = Fnv1a32(bytes_);
    return run_;
  }

 private:
  PinnedRun run_{};
  std::string bytes_;
};

template <typename T>
void AppendPod(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string AnswerBytes(const ReachAnswer& a) {
  std::string out(1, a.reachable ? '1' : '0');
  AppendPod(a.arrival_time, &out);
  return out;
}

std::string AnswerBytes(const std::vector<Timestamp>& set) {
  std::string out;
  for (Timestamp t : set) AppendPod(t, &out);
  return out;
}

std::string AnswerBytes(const std::vector<ReachProfileEntry>& profile) {
  std::string out;
  for (const ReachProfileEntry& e : profile) {
    AppendPod(e.infected_at, &out);
    AppendPod(e.transfers, &out);
  }
  return out;
}

// Captured from the whole-partition parsing read path that in-place
// vertex decoding replaced: every traversal, cold (pool cleared before
// each query, the default 64-page session pool) and hot (a pool holding
// the whole index, measured after one warm pass), at io_queue_depth 1
// and 4, under both codecs. A read path that decodes vertices differently must still
// request exactly these pages in this order and return these answers.
const std::vector<PinnedRun>& PinnedRuns() {
  static const std::vector<PinnedRun> runs = {
      {"raw/d1/cold/bm-bfs", 246.24999999999997, 4070, 0, 108, 0xd52ff4ca},
      {"raw/d1/cold/b-bfs", 247.69999999999999, 4080, 1, 124, 0x92223091},
      {"raw/d1/cold/e-bfs", 302.64999999999998, 4343, 113, 8288, 0x3bda7503},
      {"raw/d1/cold/e-dfs", 297.59999999999997, 4299, 38, 1379, 0x068692ff},
      {"raw/d1/cold/set", 1012.2000000000002, 6507, 571, 9344, 0x39d233fb},
      {"raw/d1/cold/sets", 1009.35, 6545, 562, 27563, 0x7a123225},
      {"raw/d1/cold/profile", 652, 5839, 359, 12429, 0x3c12d212},
      {"raw/d1/hot/bm-bfs", 0, 0, 4070, 108, 0x5d9a36d1},
      {"raw/d1/hot/b-bfs", 0, 0, 4081, 124, 0x51c0518a},
      {"raw/d1/hot/e-bfs", 0, 0, 4456, 8288, 0x18c355fc},
      {"raw/d1/hot/e-dfs", 0, 0, 4337, 1379, 0x5a49c520},
      {"raw/d1/hot/set", 0, 0, 7078, 9344, 0x90298cf0},
      {"raw/d1/hot/sets", 0, 0, 7107, 27563, 0xf014f56e},
      {"raw/d1/hot/profile", 0, 0, 6198, 12429, 0x1570d43c},
      {"raw/d4/cold/bm-bfs", 303.64999999999998, 4097, 3, 108, 0x2e209ec1},
      {"raw/d4/cold/b-bfs", 297.55000000000001, 4089, 3, 124, 0x721993f4},
      {"raw/d4/cold/e-bfs", 371.85000000000002, 4340, 138, 8288, 0x9d461b3a},
      {"raw/d4/cold/e-dfs", 379, 4312, 39, 1379, 0x3972afc9},
      {"raw/d4/cold/set", 1691.1000000000004, 6614, 464, 9344, 0xa5ae57fa},
      {"raw/d4/cold/sets", 1685.0000000000002, 6625, 482, 27563, 0x85c0c92d},
      {"raw/d4/cold/profile", 769.69999999999993, 5799, 399, 12429, 0x0c8a4b2c},
      {"raw/d4/hot/bm-bfs", 0, 0, 4100, 108, 0xd69084ff},
      {"raw/d4/hot/b-bfs", 0, 0, 4092, 124, 0xf0c65cdf},
      {"raw/d4/hot/e-bfs", 0, 0, 4478, 8288, 0xe871593e},
      {"raw/d4/hot/e-dfs", 0, 0, 4351, 1379, 0xaac40b7a},
      {"raw/d4/hot/set", 0, 0, 7078, 9344, 0x90298cf0},
      {"raw/d4/hot/sets", 0, 0, 7107, 27563, 0xf014f56e},
      {"raw/d4/hot/profile", 0, 0, 6198, 12429, 0x1570d43c},
      {"delta-varint/d1/cold/bm-bfs", 241.05000000000004, 3985, 0, 108, 0x87a0010e},
      {"delta-varint/d1/cold/b-bfs", 242.40000000000003, 3993, 1, 124, 0xbfe043ad},
      {"delta-varint/d1/cold/e-bfs", 298.95000000000005, 4250, 114, 8288, 0xa5500bbe},
      {"delta-varint/d1/cold/e-dfs", 288.19999999999999, 4206, 40, 1379, 0xb8028c48},
      {"delta-varint/d1/cold/set", 595.60000000000002, 4863, 867, 9344, 0x3b4feef4},
      {"delta-varint/d1/cold/sets", 623.14999999999998, 4920, 834, 27563, 0x0ae23098},
      {"delta-varint/d1/cold/profile", 411.60000000000002, 4660, 472, 12429, 0x6337ae9f},
      {"delta-varint/d1/hot/bm-bfs", 0, 0, 0, 108, 0xbe9597c1},
      {"delta-varint/d1/hot/b-bfs", 0, 0, 0, 124, 0xba09c17b},
      {"delta-varint/d1/hot/e-bfs", 0, 0, 0, 8288, 0x19bf3638},
      {"delta-varint/d1/hot/e-dfs", 0, 0, 0, 1379, 0xa481c341},
      {"delta-varint/d1/hot/set", 0, 0, 0, 9344, 0x337d01f1},
      {"delta-varint/d1/hot/sets", 0, 0, 0, 27563, 0x1728d27e},
      {"delta-varint/d1/hot/profile", 0, 0, 0, 12429, 0xfd1873b1},
      {"delta-varint/d4/cold/bm-bfs", 296.45000000000005, 4010, 3, 108, 0xc2b308ae},
      {"delta-varint/d4/cold/b-bfs", 291.40000000000003, 4004, 3, 124, 0x6cce3cde},
      {"delta-varint/d4/cold/e-bfs", 365.44999999999999, 4250, 138, 8288, 0x213e3a76},
      {"delta-varint/d4/cold/e-dfs", 371.49999999999994, 4219, 42, 1379, 0x089a4601},
      {"delta-varint/d4/cold/set", 865.64999999999998, 4944, 786, 9344, 0x20c6b8fe},
      {"delta-varint/d4/cold/sets", 892.20000000000016, 4981, 773, 27563, 0xa3e70ca8},
      {"delta-varint/d4/cold/profile", 505.39999999999998, 4655, 477, 12429, 0x137a8659},
      {"delta-varint/d4/hot/bm-bfs", 0, 0, 0, 108, 0xbe9597c1},
      {"delta-varint/d4/hot/b-bfs", 0, 0, 0, 124, 0xba09c17b},
      {"delta-varint/d4/hot/e-bfs", 0, 0, 0, 8288, 0x19bf3638},
      {"delta-varint/d4/hot/e-dfs", 0, 0, 0, 1379, 0xa481c341},
      {"delta-varint/d4/hot/set", 0, 0, 0, 9344, 0x337d01f1},
      {"delta-varint/d4/hot/sets", 0, 0, 0, 27563, 0x1728d27e},
      {"delta-varint/d4/hot/profile", 0, 0, 0, 12429, 0xfd1873b1},
  };
  return runs;
}

TEST(ReachGraphTest, ReadSequenceIsPinned) {
  const ContactNetwork net = RandomRwpNetwork(131, 60, 200);
  WorkloadParams wl;
  wl.num_queries = 12;
  wl.num_objects = 60;
  wl.span = net.span();
  wl.min_interval_len = 20;
  wl.max_interval_len = 150;
  wl.seed = 29;
  const std::vector<ReachQuery> queries = GenerateWorkload(wl);

  using Procedure =
      std::function<Result<std::string>(ReachGraphIndex*, size_t, BufferPool*,
                                        QueryStats*)>;
  auto point = [&](auto method) -> Procedure {
    return [&queries, method](ReachGraphIndex* index, size_t i,
                              BufferPool* pool,
                              QueryStats* stats) -> Result<std::string> {
      auto a = (index->*method)(queries[i], pool, stats);
      if (!a.ok()) return a.status();
      return AnswerBytes(*a);
    };
  };
  using PointQuery = Result<ReachAnswer> (ReachGraphIndex::*)(
      const ReachQuery&, BufferPool*, QueryStats*) const;
  const std::vector<std::pair<std::string, Procedure>> procedures = {
      {"bm-bfs", point(static_cast<PointQuery>(&ReachGraphIndex::QueryBmBfs))},
      {"b-bfs", point(static_cast<PointQuery>(&ReachGraphIndex::QueryBBfs))},
      {"e-bfs", point(static_cast<PointQuery>(&ReachGraphIndex::QueryEBfs))},
      {"e-dfs", point(static_cast<PointQuery>(&ReachGraphIndex::QueryEDfs))},
      {"set",
       [&](ReachGraphIndex* index, size_t i, BufferPool* pool,
           QueryStats* stats) -> Result<std::string> {
         auto set = index->ReachableSet(queries[i].source, queries[i].interval,
                                        pool, stats);
         if (!set.ok()) return set.status();
         return AnswerBytes(*set);
       }},
      {"sets",
       [&](ReachGraphIndex* index, size_t i, BufferPool* pool,
           QueryStats* stats) -> Result<std::string> {
         // Batches of three consecutive sources over the first's window.
         std::vector<ObjectId> sources;
         for (size_t k = 0; k < 3; ++k) {
           sources.push_back(queries[(i + k) % queries.size()].source);
         }
         auto sets = index->ReachableSets(sources, queries[i].interval, pool,
                                          stats);
         if (!sets.ok()) return sets.status();
         std::string out;
         for (const auto& set : *sets) out += AnswerBytes(set);
         return out;
       }},
      {"profile",
       [&](ReachGraphIndex* index, size_t i, BufferPool* pool,
           QueryStats* stats) -> Result<std::string> {
         HopConstraints hops;
         if (i % 2 == 0) {
           hops.max_transfers = 2;
           hops.per_hop_ticks = 40;
         }
         auto profile = index->ConstrainedProfile(
             queries[i].source, queries[i].interval, hops, pool, stats);
         if (!profile.ok()) return profile.status();
         return AnswerBytes(*profile);
       }},
  };

  std::vector<PinnedRun> observed;
  for (PageCodecKind codec :
       {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
    ReachGraphOptions options;
    options.page_size = 512;
    options.num_shards = 2;
    options.build.page_codec = codec;
    auto built = ReachGraphIndex::Build(net, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ReachGraphIndex* index = built->get();
    for (int depth : {1, 4}) {
      for (bool hot : {false, true}) {
        for (const auto& [proc_name, run] : procedures) {
          std::unique_ptr<BufferPool> pool;
          if (hot) {
            pool = std::make_unique<BufferPool>(&index->topology(), 1 << 14);
            pool->set_page_codec(GetPageCodec(codec));
          } else {
            pool = index->NewSessionPool();
          }
          pool->set_io_queue_depth(depth);
          RunRecorder recorder(std::string(ToString(codec)) + "/d" +
                               std::to_string(depth) +
                               (hot ? "/hot/" : "/cold/") + proc_name);
          for (int pass = hot ? 0 : 1; pass < 2; ++pass) {
            for (size_t i = 0; i < queries.size(); ++i) {
              if (!hot) pool->Clear();
              QueryStats stats;
              auto answer = run(index, i, pool.get(), &stats);
              ASSERT_TRUE(answer.ok()) << answer.status().ToString();
              if (pass == 1) recorder.Add(*answer, stats);
            }
          }
          observed.push_back(recorder.Finish());
        }
      }
    }
  }

  const std::vector<PinnedRun>& pinned = PinnedRuns();
  for (const PinnedRun& got : observed) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"%s\", %.17g, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", 0x%08" PRIx32 "},",
                  got.name.c_str(), got.io_cost, got.pages, got.hits,
                  got.items, got.digest);
    auto it = std::find_if(
        pinned.begin(), pinned.end(),
        [&](const PinnedRun& p) { return p.name == got.name; });
    if (it == pinned.end()) {
      ADD_FAILURE() << "no pinned run: " << line;
      continue;
    }
    EXPECT_EQ(got.io_cost, it->io_cost) << line;
    EXPECT_EQ(got.pages, it->pages) << line;
    EXPECT_EQ(got.hits, it->hits) << line;
    EXPECT_EQ(got.items, it->items) << line;
    EXPECT_EQ(got.digest, it->digest) << line;
  }
  EXPECT_EQ(observed.size(), pinned.size());
}

TEST(ReachGraphTest, DecodedRecordHitsAreCountedPerQuery) {
  // A query served from the pool's decoded-record cache fetches no page
  // and decodes nothing; only `decoded_hits` tells it from a query that
  // read nothing at all.
  const ContactNetwork net = RandomRwpNetwork(131, 60, 200);
  const ReachQuery query{3, 41, net.span()};
  for (PageCodecKind codec :
       {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
    ReachGraphOptions options;
    options.page_size = 512;
    options.build.page_codec = codec;
    auto built = ReachGraphIndex::Build(net, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ReachGraphIndex& index = **built;
    // A pool (and decoded-record cache) holding the whole index.
    auto pool = std::make_unique<BufferPool>(&index.topology(), 1 << 14);
    pool->set_page_codec(GetPageCodec(codec));
    QueryStats cold;
    ASSERT_TRUE(index.QueryBmBfs(query, pool.get(), &cold).ok());
    EXPECT_GT(cold.pages_fetched, 0u) << ToString(codec);
    EXPECT_GT(cold.items_visited, 0u) << ToString(codec);
    QueryStats hot;
    ASSERT_TRUE(index.QueryBmBfs(query, pool.get(), &hot).ok());
    EXPECT_EQ(hot.items_visited, cold.items_visited) << ToString(codec);
    if (codec == PageCodecKind::kRaw) {
      // The raw codec never consults the decoded-record cache.
      EXPECT_EQ(cold.decoded_hits, 0u);
      EXPECT_EQ(hot.decoded_hits, 0u);
      EXPECT_GT(hot.pool_hits, 0u);
    } else {
      EXPECT_EQ(hot.pages_fetched, 0u);
      EXPECT_EQ(hot.pool_hits, 0u);
      EXPECT_GT(hot.decoded_hits, 0u);
      EXPECT_NE(hot.ToString().find(" decoded_hits=" +
                                    std::to_string(hot.decoded_hits)),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace streach
