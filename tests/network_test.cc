// Unit and property tests for src/network: ContactNetwork, TEN stats,
// union-find, the brute-force reachability oracle (including the
// paper's Figure 1 worked example and Properties 5.1/5.2), and the
// hop-profile kernel against a naive per-level E-table.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "join/contact.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "network/hop_profile.h"
#include "network/union_find.h"

namespace streach {
namespace {

/// The contact network of the paper's Figure 1, 0-indexed:
/// c1={o0,o1}@[0,0], c2={o1,o3}@[1,1], c3={o2,o3}@[1,2], c4={o0,o1}@[2,3].
ContactNetwork Figure1Network() {
  std::vector<Contact> contacts = {
      Contact(0, 1, TimeInterval(0, 0)),
      Contact(1, 3, TimeInterval(1, 1)),
      Contact(2, 3, TimeInterval(1, 2)),
      Contact(0, 1, TimeInterval(2, 3)),
  };
  return ContactNetwork(4, TimeInterval(0, 3), std::move(contacts));
}

/// Random contact network over `n` objects and `ticks` ticks.
ContactNetwork RandomNetwork(Rng* rng, size_t n, Timestamp ticks,
                             double contact_rate) {
  std::vector<Contact> contacts;
  for (ObjectId a = 0; a < n; ++a) {
    for (ObjectId b = a + 1; b < n; ++b) {
      Timestamp t = 0;
      while (t < ticks) {
        if (rng->Bernoulli(contact_rate)) {
          const Timestamp len =
              static_cast<Timestamp>(1 + rng->Uniform(3));
          const Timestamp end = std::min<Timestamp>(t + len - 1, ticks - 1);
          contacts.emplace_back(a, b, TimeInterval(t, end));
          t = end + 2;  // Gap keeps validity intervals maximal.
        } else {
          ++t;
        }
      }
    }
  }
  return ContactNetwork(n, TimeInterval(0, ticks - 1), std::move(contacts));
}

// -------------------------------------------------------------- UnionFind

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(0, 1));  // Already merged.
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_EQ(uf.SizeOf(0), 3u);
  EXPECT_EQ(uf.SizeOf(4), 1u);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(4);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Reset();
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_EQ(uf.SizeOf(2), 1u);
}

TEST(UnionFindTest, ResetOneUndoesABatchOfUnions) {
  UnionFind uf(6);
  uf.Union(4, 5);
  // Undo the {0,1,2} set element by element; {4,5} is untouched.
  uf.Union(0, 1);
  uf.Union(2, 1);
  for (uint32_t x : {0u, 1u, 2u}) uf.ResetOne(x);
  for (uint32_t x : {0u, 1u, 2u}) EXPECT_EQ(uf.SizeOf(x), 1u);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(1, 2));
  EXPECT_TRUE(uf.Connected(4, 5));
  EXPECT_EQ(uf.SizeOf(5), 2u);
  EXPECT_TRUE(uf.Union(0, 2));
  EXPECT_EQ(uf.SizeOf(2), 2u);
}

TEST(UnionFindTest, TransitiveClosureProperty) {
  Rng rng(53);
  UnionFind uf(50);
  std::vector<std::vector<bool>> adj(50, std::vector<bool>(50, false));
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<uint32_t>(rng.Uniform(50));
    const auto b = static_cast<uint32_t>(rng.Uniform(50));
    uf.Union(a, b);
    adj[a][b] = adj[b][a] = true;
  }
  // Reference closure via Floyd-Warshall-style propagation.
  for (int k = 0; k < 50; ++k) {
    for (int i = 0; i < 50; ++i) {
      if (!adj[i][k]) continue;
      for (int j = 0; j < 50; ++j) {
        if (adj[k][j]) adj[i][j] = true;
      }
    }
  }
  for (uint32_t i = 0; i < 50; ++i) {
    for (uint32_t j = 0; j < 50; ++j) {
      if (i == j) continue;
      EXPECT_EQ(uf.Connected(i, j), adj[i][j]);
    }
  }
}

// ---------------------------------------------------------- ContactNetwork

TEST(ContactNetworkTest, PairsAtTick) {
  const ContactNetwork net = Figure1Network();
  EXPECT_EQ(net.PairsAt(0).size(), 1u);
  EXPECT_EQ(net.PairsAt(1).size(), 2u);
  EXPECT_EQ(net.PairsAt(2).size(), 2u);
  EXPECT_EQ(net.PairsAt(3).size(), 1u);
  EXPECT_TRUE(net.PairsAt(99).empty());
  EXPECT_TRUE(net.PairsAt(-1).empty());
  EXPECT_EQ(net.TotalContactTicks(), 6u);
}

TEST(ContactNetworkTest, TenStats) {
  const ContactNetwork net = Figure1Network();
  const TenStats stats = net.ComputeTenStats();
  EXPECT_EQ(stats.num_vertices, 4u * 4u);
  // Holding edges 4 * 3 = 12, plus one contact edge per contact-tick (6).
  EXPECT_EQ(stats.num_edges, 12u + 6u);
}

// ------------------------------------------------------------- BruteForce

TEST(BruteForceTest, PaperFigure1Examples) {
  const ContactNetwork net = Figure1Network();
  // "o4 is reachable from o1 during [0,1]" (o0 -> o3 in 0-indexing).
  EXPECT_TRUE(BruteForceReach(net, 0, 3, TimeInterval(0, 1)).reachable);
  // "o1 is not reachable from o4 during [0,1]".
  EXPECT_FALSE(BruteForceReach(net, 3, 0, TimeInterval(0, 1)).reachable);
  // Arrival time: o3 infected via o1 at t=1.
  EXPECT_EQ(BruteForceReach(net, 0, 3, TimeInterval(0, 1)).arrival_time, 1);
  // o1 ~[2,3]~> o2: contact c4 connects them directly at t=2.
  EXPECT_TRUE(BruteForceReach(net, 0, 1, TimeInterval(2, 3)).reachable);
  // o3 (o2 in 0-idx) reaches o1 (o0) in [1,3]: o2-o3@1, o3 holds? No —
  // o2 contacts o3 at 1-2, o3 contacted o1 only at t=1 via... trace:
  // infected {o2}; t=1: o2-o3 contact and o1-o3 contact chain: pairs at 1
  // are {o1,o3} and {o2,o3}: component {o1,o2,o3} infected; t=2: o0-o1
  // contact infects o0.
  const auto answer = BruteForceReach(net, 2, 0, TimeInterval(1, 3));
  EXPECT_TRUE(answer.reachable);
  EXPECT_EQ(answer.arrival_time, 2);
}

TEST(BruteForceTest, WithinTickChainingAcrossComponent) {
  // a-b and b-c both at tick 0: item crosses the whole component at once.
  std::vector<Contact> contacts = {Contact(0, 1, TimeInterval(0, 0)),
                                   Contact(1, 2, TimeInterval(0, 0))};
  const ContactNetwork net(3, TimeInterval(0, 0), std::move(contacts));
  EXPECT_TRUE(BruteForceReach(net, 0, 2, TimeInterval(0, 0)).reachable);
  EXPECT_TRUE(BruteForceReach(net, 2, 0, TimeInterval(0, 0)).reachable);
}

TEST(BruteForceTest, TimeRespectingOrder) {
  // Contact a-b at t=1, b-c at t=0: a cannot reach c (b meets c before
  // it is infected).
  std::vector<Contact> contacts = {Contact(0, 1, TimeInterval(1, 1)),
                                   Contact(1, 2, TimeInterval(0, 0))};
  const ContactNetwork net(3, TimeInterval(0, 1), std::move(contacts));
  EXPECT_FALSE(BruteForceReach(net, 0, 2, TimeInterval(0, 1)).reachable);
  // The reverse direction works: c -> b at 0, b -> a at 1.
  EXPECT_TRUE(BruteForceReach(net, 2, 0, TimeInterval(0, 1)).reachable);
}

TEST(BruteForceTest, QueryIntervalRestricts) {
  const ContactNetwork net = Figure1Network();
  // o0 -> o3 needs contacts at 0 and 1; starting at 1 misses the o0-o1
  // contact.
  EXPECT_FALSE(BruteForceReach(net, 0, 3, TimeInterval(1, 3)).reachable);
}

TEST(BruteForceTest, SelfReachability) {
  const ContactNetwork net = Figure1Network();
  EXPECT_TRUE(BruteForceReach(net, 0, 0, TimeInterval(0, 0)).reachable);
  EXPECT_FALSE(BruteForceReach(net, 0, 0, TimeInterval(10, 20)).reachable);
}

TEST(BruteForceTest, SnapshotSymmetryProperty) {
  // Property 5.1: reachability at a single instant is symmetric.
  Rng rng(59);
  for (int round = 0; round < 5; ++round) {
    const ContactNetwork net = RandomNetwork(&rng, 20, 10, 0.02);
    for (Timestamp t = 0; t < 10; ++t) {
      for (ObjectId a = 0; a < 20; ++a) {
        for (ObjectId b = a + 1; b < 20; ++b) {
          const bool ab = BruteForceReach(net, a, b, TimeInterval(t, t)).reachable;
          const bool ba = BruteForceReach(net, b, a, TimeInterval(t, t)).reachable;
          EXPECT_EQ(ab, ba);
        }
      }
    }
  }
}

TEST(BruteForceTest, TransitivityProperty) {
  // Property 5.2: a->b during [t1,t2] and b->c during [t1',t2'] with
  // t2 <= t2' implies a->c during [t1, t2'].
  Rng rng(61);
  const ContactNetwork net = RandomNetwork(&rng, 15, 12, 0.03);
  for (ObjectId a = 0; a < 15; ++a) {
    for (ObjectId b = 0; b < 15; ++b) {
      if (a == b) continue;
      const auto ab = BruteForceReach(net, a, b, TimeInterval(0, 6));
      if (!ab.reachable) continue;
      for (ObjectId c = 0; c < 15; ++c) {
        if (c == b || c == a) continue;
        const auto bc = BruteForceReach(net, b, c, TimeInterval(6, 11));
        if (!bc.reachable) continue;
        EXPECT_TRUE(BruteForceReach(net, a, c, TimeInterval(0, 11)).reachable)
            << "a=" << a << " b=" << b << " c=" << c;
      }
    }
  }
}

TEST(BruteForceTest, ClosureMatchesPairQueries) {
  Rng rng(67);
  const ContactNetwork net = RandomNetwork(&rng, 25, 15, 0.02);
  const TimeInterval interval(2, 12);
  for (ObjectId src = 0; src < 25; src += 3) {
    const auto closure = BruteForceClosure(net, src, interval);
    for (ObjectId dst = 0; dst < 25; ++dst) {
      const auto answer = BruteForceReach(net, src, dst, interval);
      EXPECT_EQ(answer.reachable, closure[dst] != kInvalidTime)
          << "src=" << src << " dst=" << dst;
      if (answer.reachable && src != dst) {
        EXPECT_EQ(answer.arrival_time, closure[dst]);
      }
    }
  }
}

TEST(BruteForceTest, MonotoneInInterval) {
  // Widening the query interval never turns reachable into unreachable.
  Rng rng(71);
  const ContactNetwork net = RandomNetwork(&rng, 20, 20, 0.02);
  for (ObjectId a = 0; a < 20; a += 2) {
    for (ObjectId b = 1; b < 20; b += 2) {
      bool prev = false;
      for (Timestamp end = 5; end < 20; end += 4) {
        const bool now =
            BruteForceReach(net, a, b, TimeInterval(3, end)).reachable;
        EXPECT_TRUE(!prev || now);
        prev = now;
      }
    }
  }
}

// ------------------------------------------------------------ Hop profile

using TickPairs = std::vector<std::vector<std::pair<ObjectId, ObjectId>>>;

/// The E-table recursion of network/hop_profile.h, written out level by
/// level with no shortcuts: components by repeated label relaxation over
/// the tick's pairs, no union-find, no early stop (every level up to the
/// cap is evaluated). `pairs[t]` holds tick t's pairs, ticks from 0.
std::vector<ReachProfileEntry> NaiveHopProfile(size_t n, ObjectId source,
                                               TimeInterval window,
                                               const HopConstraints& hops,
                                               const TickPairs& pairs) {
  std::vector<ReachProfileEntry> profile(n);
  if (window.empty() || source >= n) return profile;
  profile[source] = ReachProfileEntry{window.start, 0};
  const int32_t cap =
      hops.max_transfers < 0
          ? static_cast<int32_t>(n - 1)
          : std::min(hops.max_transfers, static_cast<int32_t>(n - 1));
  auto eligible = [&](Timestamp arrival, Timestamp t) {
    return arrival != kInvalidTime && arrival <= t &&
           (hops.per_hop_ticks < 0 || t - arrival <= hops.per_hop_ticks);
  };
  std::vector<Timestamp> prev(n, kInvalidTime);
  prev[source] = window.start;
  for (int32_t level = 0; level < cap; ++level) {
    std::vector<Timestamp> next(n, kInvalidTime);
    for (Timestamp t = window.start; t <= window.end; ++t) {
      const auto& tick = pairs[static_cast<size_t>(t)];
      std::vector<ObjectId> label(n);
      std::vector<bool> present(n, false);
      for (ObjectId o = 0; o < n; ++o) label[o] = o;
      for (const auto& [a, b] : tick) present[a] = present[b] = true;
      for (bool changed = true; changed;) {
        changed = false;
        for (const auto& [a, b] : tick) {
          const ObjectId low = std::min(label[a], label[b]);
          if (label[a] != low || label[b] != low) {
            label[a] = label[b] = low;
            changed = true;
          }
        }
      }
      for (ObjectId o = 0; o < n; ++o) {
        if (!present[o] || next[o] != kInvalidTime) continue;
        for (ObjectId m = 0; m < n; ++m) {
          if (m != o && present[m] && label[m] == label[o] &&
              eligible(prev[m], t)) {
            next[o] = t;
            break;
          }
        }
      }
    }
    if (hops.per_hop_ticks < 0) {
      for (ObjectId o = 0; o < n; ++o) {
        if (prev[o] != kInvalidTime &&
            (next[o] == kInvalidTime || prev[o] < next[o])) {
          next[o] = prev[o];
        }
      }
    }
    for (ObjectId o = 0; o < n; ++o) {
      if (next[o] == kInvalidTime) continue;
      ReachProfileEntry& e = profile[o];
      if (e.infected_at == kInvalidTime || next[o] < e.infected_at) {
        e.infected_at = next[o];
      }
      if (e.transfers < 0) e.transfers = level + 1;
    }
    prev = std::move(next);
  }
  return profile;
}

std::vector<ReachProfileEntry> KernelHopProfile(size_t n, ObjectId source,
                                                TimeInterval window,
                                                const HopConstraints& hops,
                                                const TickPairs& pairs) {
  return ComputeHopProfile(
      n, source, window, hops,
      [&pairs](Timestamp t)
          -> const std::vector<std::pair<ObjectId, ObjectId>>& {
        return pairs[static_cast<size_t>(t)];
      });
}

std::string ProfileString(const std::vector<ReachProfileEntry>& profile) {
  std::string out;
  for (const ReachProfileEntry& e : profile) {
    out += "(" + std::to_string(e.infected_at) + "," +
           std::to_string(e.transfers) + ")";
  }
  return out;
}

/// Both modes' constraint sets: monotone (no per-hop bound) and strict.
std::vector<HopConstraints> KernelConstraints() {
  return {{-1, -1}, {0, -1}, {1, -1}, {2, -1}, {5, -1},
          {-1, 0},  {1, 0},  {2, 1},  {4, 3},  {-1, 2}};
}

TEST(HopProfileKernelTest, HandWrittenHostileCases) {
  constexpr size_t kN = 6;
  constexpr ObjectId kLast = kN - 1;
  TickPairs pairs(10);
  pairs[1] = {{0, 1}, {1, 2}, {2, 3}};  // Same-tick chain.
  // Ticks 2-3 empty inside the window.
  pairs[4] = {{3, kLast}, {kLast, kLast}};  // Largest id; a self-pair.
  pairs[5] = {{4, 4}};  // A component holding only its own member.
  pairs[6] = {{4, 0}, {1, 2}};
  pairs[8] = {{2, kLast}, {4, 3}};
  struct Case {
    ObjectId source;
    TimeInterval window;
  };
  const std::vector<Case> cases = {
      {0, TimeInterval(0, 9)},  {0, TimeInterval(1, 1)},
      {4, TimeInterval(5, 5)},  {4, TimeInterval(4, 9)},
      {kLast, TimeInterval(2, 9)}, {kLast, TimeInterval(4, 4)},
      {3, TimeInterval(2, 3)},  {2, TimeInterval(0, 9)},
      {kN, TimeInterval(0, 9)}, {0, TimeInterval(7, 3)},
  };
  for (const Case& c : cases) {
    for (const HopConstraints& hops : KernelConstraints()) {
      EXPECT_EQ(ProfileString(KernelHopProfile(kN, c.source, c.window, hops,
                                               pairs)),
                ProfileString(
                    NaiveHopProfile(kN, c.source, c.window, hops, pairs)))
          << "source " << c.source << " window " << c.window.start << ".."
          << c.window.end << " hops " << hops.max_transfers << "/"
          << hops.per_hop_ticks;
    }
  }
  // Spot values: the chain enters every member at tick 1 in one
  // transfer; the lone self-paired 4 infects nothing at tick 5.
  const auto chain = KernelHopProfile(kN, 0, TimeInterval(1, 1), {-1, -1},
                                      pairs);
  for (ObjectId o : {1u, 2u, 3u}) {
    EXPECT_EQ(chain[o], (ReachProfileEntry{1, 1})) << o;
  }
  const auto alone = KernelHopProfile(kN, 4, TimeInterval(5, 5), {-1, -1},
                                      pairs);
  for (ObjectId o = 0; o < kN; ++o) {
    EXPECT_EQ(alone[o].transfers, o == 4 ? 0 : -1) << o;
  }
}

TEST(HopProfileKernelTest, MatchesNaiveETableOnSeededInputs) {
  Rng rng(2105);
  for (int round = 0; round < 400; ++round) {
    const size_t n = 1 + rng.Uniform(9);
    const Timestamp ticks = static_cast<Timestamp>(1 + rng.Uniform(14));
    TickPairs pairs(static_cast<size_t>(ticks));
    for (auto& tick : pairs) {
      if (rng.Bernoulli(0.3)) continue;  // Empty ticks inside windows.
      const uint64_t count = rng.Uniform(2 * n + 1);
      for (uint64_t k = 0; k < count; ++k) {
        const auto a = static_cast<ObjectId>(rng.Uniform(n));
        // Chains through the largest id, and the odd self-pair.
        const auto b = rng.Bernoulli(0.2) ? static_cast<ObjectId>(n - 1)
                       : rng.Bernoulli(0.1)
                           ? a
                           : static_cast<ObjectId>(rng.Uniform(n));
        tick.emplace_back(a, b);
      }
    }
    const Timestamp lo = static_cast<Timestamp>(rng.Uniform(ticks));
    // One-tick windows about a quarter of the time.
    const Timestamp hi =
        rng.Bernoulli(0.25)
            ? lo
            : lo + static_cast<Timestamp>(rng.Uniform(ticks - lo));
    const TimeInterval window(lo, hi);
    const auto source = static_cast<ObjectId>(rng.Uniform(n + 1));
    for (const HopConstraints& hops : KernelConstraints()) {
      ASSERT_EQ(
          ProfileString(KernelHopProfile(n, source, window, hops, pairs)),
          ProfileString(NaiveHopProfile(n, source, window, hops, pairs)))
          << "round " << round << " n " << n << " source " << source
          << " window " << lo << ".." << hi << " hops "
          << hops.max_transfers << "/" << hops.per_hop_ticks;
    }
  }
}

}  // namespace
}  // namespace streach
