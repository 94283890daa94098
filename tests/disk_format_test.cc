// Disk-format stress tests: both indexes must stay exact under unusual
// page sizes (blobs straddling many tiny pages), and deserialization must
// fail cleanly (Status::Corruption) on damaged bytes — never crash or
// fabricate answers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/rng.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgraph/stored_vertex.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace {

struct PageCase {
  size_t page_size;
  size_t pool_pages;
};

class PageSizeSweepTest : public ::testing::TestWithParam<PageCase> {
 protected:
  static TrajectoryStore MakeStore() {
    RandomWaypointParams params;
    params.num_objects = 30;
    params.area = Rect(0, 0, 300, 300);
    params.min_speed = 5;
    params.max_speed = 15;
    params.duration = 120;
    params.seed = 777;
    auto store = GenerateRandomWaypoint(params);
    EXPECT_TRUE(store.ok());
    return std::move(store).ValueUnsafe();
  }
};

TEST_P(PageSizeSweepTest, ReachGridExactAtAnyPageSize) {
  const TrajectoryStore store = MakeStore();
  const double dt = 30.0;
  ReachGridOptions options;
  options.temporal_resolution = 10;
  options.spatial_cell_size = 100;
  options.contact_range = dt;
  options.page_size = GetParam().page_size;
  options.buffer_pool_pages = GetParam().pool_pages;
  auto index = ReachGridIndex::Build(store, options);
  ASSERT_TRUE(index.ok());
  const ContactNetwork network(store.num_objects(), store.span(),
                               ExtractContacts(store, dt));
  WorkloadParams wl;
  wl.num_queries = 60;
  wl.num_objects = store.num_objects();
  wl.span = store.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 100;
  wl.seed = 9;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(network, q.source, q.destination, q.interval)
            .reachable;
    auto got = (*index)->Query(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->reachable, expected)
        << q.ToString() << " page_size=" << GetParam().page_size;
  }
}

TEST_P(PageSizeSweepTest, ReachGraphExactAtAnyPageSize) {
  const TrajectoryStore store = MakeStore();
  const double dt = 30.0;
  const ContactNetwork network(store.num_objects(), store.span(),
                               ExtractContacts(store, dt));
  ReachGraphOptions options;
  options.page_size = GetParam().page_size;
  options.buffer_pool_pages = GetParam().pool_pages;
  auto index = ReachGraphIndex::Build(network, options);
  ASSERT_TRUE(index.ok());
  WorkloadParams wl;
  wl.num_queries = 60;
  wl.num_objects = store.num_objects();
  wl.span = store.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 100;
  wl.seed = 10;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(network, q.source, q.destination, q.interval)
            .reachable;
    auto got = (*index)->QueryBmBfs(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->reachable, expected)
        << q.ToString() << " page_size=" << GetParam().page_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, PageSizeSweepTest,
    ::testing::Values(PageCase{64, 512}, PageCase{256, 128},
                      PageCase{1024, 32}, PageCase{4096, 8},
                      PageCase{16384, 4}),
    [](const ::testing::TestParamInfo<PageCase>& info) {
      return "Page" + std::to_string(info.param.page_size) + "Pool" +
             std::to_string(info.param.pool_pages);
    });

// ------------------------------------------------------ corruption paths

TEST(CorruptionTest, DecoderRejectsGarbageGracefully) {
  // Decoding random bytes as structured records must never crash and must
  // surface Corruption for truncations.
  Rng rng(12345);
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Decoder dec(garbage);
    // Attempt a plausible record parse; all outcomes must be clean.
    auto count = dec.GetVarint();
    if (!count.ok()) continue;
    for (uint64_t i = 0; i < *count && i < 100; ++i) {
      auto a = dec.GetU32();
      if (!a.ok()) break;
      auto b = dec.GetI32();
      if (!b.ok()) break;
      auto c = dec.GetDouble();
      if (!c.ok()) break;
    }
  }
  SUCCEED();
}

TEST(CorruptionTest, StringLengthBeyondBufferDetected) {
  Encoder enc;
  enc.PutVarint(1000000);  // Claims a million bytes follow.
  enc.PutU8('x');
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetString().status().IsCorruption());
}

TEST(CorruptionTest, DecoderPositionTracksConsumption) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutVarint(300);
  enc.PutString("ab");
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.position(), 0u);
  ASSERT_TRUE(dec.GetU32().ok());
  EXPECT_EQ(dec.position(), 4u);
  ASSERT_TRUE(dec.GetVarint().ok());
  EXPECT_EQ(dec.position(), 6u);  // 300 takes 2 varint bytes.
  ASSERT_TRUE(dec.GetString().ok());
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(CorruptionTest, ExtentPageSpanArithmetic) {
  Extent e;
  e.first_page = 10;
  e.offset_in_page = 4090;
  e.length = 10;  // Crosses one page boundary: spans 2 pages.
  EXPECT_EQ(e.PageSpan(4096), 2u);
  e.offset_in_page = 0;
  e.length = 4096;
  EXPECT_EQ(e.PageSpan(4096), 1u);
  e.length = 4097;
  EXPECT_EQ(e.PageSpan(4096), 2u);
  e.length = 0;
  EXPECT_EQ(e.PageSpan(4096), 0u);
}

TEST(CorruptionTest, InvalidQueriesReturnCleanStatuses) {
  RandomWaypointParams params;
  params.num_objects = 5;
  params.duration = 20;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const ContactNetwork network(5, store->span(),
                               ExtractContacts(*store, 20.0));
  auto graph = ReachGraphIndex::Build(network, ReachGraphOptions{});
  ASSERT_TRUE(graph.ok());
  // Unknown object ids surface as statuses, not crashes.
  auto bad = (*graph)->QueryBmBfs({999, 1, TimeInterval(0, 10)});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());

  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 5;
  grid_options.spatial_cell_size = 50;
  grid_options.contact_range = 20.0;
  auto grid = ReachGridIndex::Build(*store, grid_options);
  ASSERT_TRUE(grid.ok());
  auto answer = (*grid)->Query({999, 1, TimeInterval(0, 10)});
  ASSERT_TRUE(answer.ok());  // Out-of-population source: not reachable.
  EXPECT_FALSE(answer->reachable);
}


// ------------------------------------------- stored-vertex decoder totality
//
// DecodeStoredVertex reads ReachGraph vertices in place out of partition
// blobs. These cases call it directly, so no checksum footer stands
// between the damage and the decoder: every input must decode to runs
// that lie inside the blob, or to Corruption.

/// A partition blob as PlaceOnDisk writes it, with every section in use:
/// members, DN_1 out/in edges and long edges whose lengths take one to
/// three varint bytes.
struct VertexBlob {
  std::string bytes;
  std::vector<DnVertex> vertices;
  std::vector<VertexId> ids;
  std::vector<size_t> offsets;
  std::vector<size_t> ends;  ///< One past each record's last byte.
};

VertexBlob MakeVertexBlob(uint64_t seed) {
  Rng rng(seed);
  VertexBlob blob;
  Encoder enc;
  RecordShape shape;
  const int n = 6;
  enc.PutVarint(n);
  for (int i = 0; i < n; ++i) {
    DnVertex v;
    const auto start = static_cast<Timestamp>(10 * i);
    v.span = TimeInterval(start,
                          start + static_cast<Timestamp>(rng.Uniform(9)));
    for (uint64_t k = rng.Uniform(6); k > 0; --k) {
      v.members.push_back(static_cast<ObjectId>(rng.Uniform(1u << 20)));
    }
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      v.out.push_back(static_cast<VertexId>(rng.Uniform(1000)));
    }
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      v.in.push_back(static_cast<VertexId>(rng.Uniform(1000)));
    }
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      v.long_out.push_back(LongEdge{
          static_cast<VertexId>(rng.Uniform(1000)),
          static_cast<Timestamp>(rng.Uniform(500)),
          static_cast<int32_t>(1u << rng.Uniform(20))});
    }
    blob.ids.push_back(static_cast<VertexId>(100 + 7 * i));
    blob.offsets.push_back(enc.size());
    EncodeVertex(blob.ids.back(), v, &enc, &shape);
    blob.ends.push_back(enc.size());
    blob.vertices.push_back(std::move(v));
  }
  blob.bytes = enc.buffer();
  return blob;
}

bool Inside(const char* p, size_t n, std::string_view blob) {
  const auto lo = reinterpret_cast<uintptr_t>(blob.data());
  const auto at = reinterpret_cast<uintptr_t>(p);
  return at >= lo && n <= blob.size() && at - lo <= blob.size() - n;
}

/// Decodes from an exactly sized heap copy of `bytes` (so a read past the
/// end is an AddressSanitizer report, not a read of string slack) and
/// checks the contract; returns whether the decode succeeded.
bool ExpectTotal(const std::string& bytes, size_t offset, VertexId id) {
  std::unique_ptr<char[]> copy(new char[bytes.size()]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  const std::string_view blob(copy.get(), bytes.size());
  auto view = DecodeStoredVertex(blob, offset, id);
  if (!view.ok()) {
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
    return false;
  }
  for (const U32Run* run : {&view->members, &view->out, &view->in}) {
    EXPECT_TRUE(run->empty() || Inside(run->data(), 4 * run->size(), blob));
    uint64_t sum = 0;
    for (uint32_t x : *run) sum += x;  // Touches every byte of the run.
    (void)sum;
  }
  const std::string_view longs = view->long_out.bytes();
  EXPECT_TRUE(longs.empty() || Inside(longs.data(), longs.size(), blob));
  size_t edges = 0;
  for (const LongEdge& e : view->long_out) {
    (void)e;
    ++edges;
  }
  EXPECT_EQ(edges, view->long_out.size());
  return true;
}

TEST(StoredVertexTest, RoundTripsEveryField) {
  const VertexBlob blob = MakeVertexBlob(7);
  for (size_t i = 0; i < blob.ids.size(); ++i) {
    auto view = DecodeStoredVertex(blob.bytes, blob.offsets[i], blob.ids[i]);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    const DnVertex& v = blob.vertices[i];
    auto ids = [](const U32Run& run) {
      return std::vector<uint32_t>(run.begin(), run.end());
    };
    EXPECT_EQ(view->span, v.span);
    EXPECT_EQ(ids(view->members), v.members);
    EXPECT_EQ(ids(view->out), v.out);
    EXPECT_EQ(ids(view->in), v.in);
    std::vector<LongEdge> long_out;
    for (const LongEdge& e : view->long_out) long_out.push_back(e);
    EXPECT_EQ(long_out, v.long_out);
  }
}

TEST(StoredVertexTest, TruncationAtEveryByte) {
  const VertexBlob blob = MakeVertexBlob(11);
  for (size_t len = 0; len < blob.bytes.size(); ++len) {
    const std::string cut = blob.bytes.substr(0, len);
    for (size_t i = 0; i < blob.ids.size(); ++i) {
      const bool ok = ExpectTotal(cut, blob.offsets[i], blob.ids[i]);
      // A record cut short can never decode.
      if (blob.ends[i] > len) EXPECT_FALSE(ok) << "len=" << len << " v=" << i;
    }
  }
}

TEST(StoredVertexTest, SeededBitFlips) {
  Rng rng(2024);
  for (int round = 0; round < 3000; ++round) {
    VertexBlob blob = MakeVertexBlob(round % 8);
    for (uint64_t flips = 1 + rng.Uniform(3); flips > 0; --flips) {
      const size_t bit = rng.Uniform(8 * blob.bytes.size());
      char& byte = blob.bytes[bit / 8];
      byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    }
    for (size_t i = 0; i < blob.ids.size(); ++i) {
      ExpectTotal(blob.bytes, blob.offsets[i], blob.ids[i]);
    }
  }
}

TEST(StoredVertexTest, InflatedCountsAreCorruption) {
  const VertexBlob blob = MakeVertexBlob(3);
  const VertexId id = blob.ids.back();
  const DnVertex& v = blob.vertices.back();
  // Re-encodes the last record with count field `section` (0 members,
  // 1 out, 2 in, 3 long edges) replaced by `count`, payloads unchanged.
  auto inflate = [&](int section, uint64_t count) {
    Encoder enc;
    enc.PutBytes(blob.bytes.data(), blob.offsets.back());
    enc.PutU32(id);
    enc.PutI32(v.span.start);
    enc.PutI32(v.span.end);
    const std::vector<uint32_t>* runs[] = {&v.members, &v.out, &v.in};
    for (int s = 0; s < 3; ++s) {
      enc.PutVarint(s == section ? count : runs[s]->size());
      for (uint32_t x : *runs[s]) enc.PutU32(x);
    }
    enc.PutVarint(section == 3 ? count : v.long_out.size());
    for (const LongEdge& e : v.long_out) {
      enc.PutI32(e.anchor);
      enc.PutVarint(static_cast<uint64_t>(e.length));
      enc.PutU32(e.target);
    }
    return enc.Release();
  };
  for (int section = 0; section < 4; ++section) {
    const uint64_t actual =
        section < 3 ? std::vector<size_t>{v.members.size(), v.out.size(),
                                          v.in.size()}[section]
                    : v.long_out.size();
    // One extra element may happen to reparse the following bytes into
    // a shorter but well-formed record; it only has to stay in bounds.
    ExpectTotal(inflate(section, actual + 1), blob.offsets.back(), id);
    // Counts the bytes left cannot hold are always Corruption.
    for (uint64_t count :
         {actual + 1000, uint64_t{1} << 32, uint64_t{1} << 62,
          std::numeric_limits<uint64_t>::max()}) {
      EXPECT_FALSE(
          ExpectTotal(inflate(section, count), blob.offsets.back(), id))
          << "section=" << section << " count=" << count;
    }
  }
}

TEST(StoredVertexTest, OffsetsAtAndPastTheEnd) {
  const VertexBlob blob = MakeVertexBlob(5);
  const size_t size = blob.bytes.size();
  for (size_t offset : {size, size + 1, size + 4096,
                        std::numeric_limits<size_t>::max()}) {
    EXPECT_FALSE(ExpectTotal(blob.bytes, offset, blob.ids[0]));
  }
  // Every offset inside the blob that is not a record start: OK only if
  // the bytes there happen to spell the expected id.
  for (size_t offset = 0; offset < size; ++offset) {
    ExpectTotal(blob.bytes, offset, blob.ids[0]);
  }
}

TEST(StoredVertexTest, WrongIdIsCorruption) {
  const VertexBlob blob = MakeVertexBlob(9);
  for (size_t i = 0; i < blob.ids.size(); ++i) {
    auto view =
        DecodeStoredVertex(blob.bytes, blob.offsets[i], blob.ids[i] + 1);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption());
  }
}

}  // namespace
}  // namespace streach
