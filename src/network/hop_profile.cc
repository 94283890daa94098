#include "network/hop_profile.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "network/union_find.h"

namespace streach {

int32_t EffectiveTransferCap(size_t num_objects, int32_t max_transfers) {
  if (num_objects == 0) return 0;
  const int32_t diameter_cap = static_cast<int32_t>(std::min<size_t>(
      num_objects - 1,
      static_cast<size_t>(std::numeric_limits<int32_t>::max())));
  if (max_transfers < 0) return diameter_cap;
  return std::min(max_transfers, diameter_cap);
}

Result<std::vector<ReachProfileEntry>> DriveHopLevels(
    size_t num_objects, ObjectId source, TimeInterval window,
    const HopConstraints& hops, const LevelSweepFn& level_sweep) {
  std::vector<ReachProfileEntry> profile(num_objects);
  if (window.empty() || source >= num_objects) return profile;
  profile[source] = ReachProfileEntry{window.start, 0};

  const int32_t cap = EffectiveTransferCap(num_objects, hops.max_transfers);
  // Folding columns into a running minimum is only sound without a per-hop
  // freshness bound (the header's monotone mode); with one, a carrier's
  // transmission window depends on its exact transfer count, so columns
  // stay strict.
  const bool monotone = hops.per_hop_ticks < 0;

  std::vector<Timestamp> prev(num_objects, kInvalidTime);
  prev[source] = window.start;
  std::vector<Timestamp> next(num_objects, kInvalidTime);
  for (int32_t level = 0; level < cap; ++level) {
    std::fill(next.begin(), next.end(), kInvalidTime);
    STREACH_RETURN_NOT_OK(level_sweep(prev, &next));
    if (monotone) {
      for (size_t o = 0; o < num_objects; ++o) {
        if (prev[o] != kInvalidTime &&
            (next[o] == kInvalidTime || prev[o] < next[o])) {
          next[o] = prev[o];
        }
      }
    }
    bool any = false;
    for (size_t o = 0; o < num_objects; ++o) {
      if (next[o] == kInvalidTime) continue;
      any = true;
      ReachProfileEntry& e = profile[o];
      if (e.infected_at == kInvalidTime || next[o] < e.infected_at) {
        e.infected_at = next[o];
      }
      if (e.transfers < 0) e.transfers = level + 1;
    }
    // An exact column repeat is a fixpoint (the column map is
    // deterministic), and an all-empty column can never repopulate.
    if (!any || next == prev) break;
    prev.swap(next);
  }
  return profile;
}

namespace {

using PairsAtFn =
    std::function<const std::vector<std::pair<ObjectId, ObjectId>>&(
        Timestamp)>;

/// The snapshot components of every tick of a window. They do not depend
/// on the transfer level, so a profile builds them once. Each component
/// of each tick is one run of member ids; every object also lists the
/// runs it belongs to, in ascending tick order, so a level visits only
/// the runs its carriers sit in.
class SnapshotComponents {
 public:
  SnapshotComponents(size_t num_objects, TimeInterval window,
                     const PairsAtFn& pairs_at)
      : object_begin_(num_objects + 1, 0) {
    constexpr uint32_t kNoRun = std::numeric_limits<uint32_t>::max();
    UnionFind uf(num_objects);
    std::vector<uint32_t> run_of_root(num_objects, kNoRun);
    std::vector<uint8_t> seen(num_objects, 0);
    std::vector<ObjectId> touched;
    std::vector<uint32_t> run_of;  // Per touched object: its tick-local run.
    std::vector<uint32_t> fill;
    run_begin_.push_back(0);
    for (Timestamp t = window.start; t <= window.end; ++t) {
      const auto& pairs = pairs_at(t);
      if (pairs.empty()) continue;
      touched.clear();
      for (const auto& [a, b] : pairs) {
        uf.Union(a, b);  // Checks both ids against num_objects.
        for (ObjectId o : {a, b}) {
          if (seen[o]) continue;
          seen[o] = 1;
          touched.push_back(o);
        }
      }
      // Number this tick's components, size their runs, then place each
      // member into its run (a counting sort by component).
      fill.clear();
      run_of.resize(touched.size());
      for (size_t i = 0; i < touched.size(); ++i) {
        uint32_t& run = run_of_root[uf.Find(touched[i])];
        if (run == kNoRun) {
          run = static_cast<uint32_t>(fill.size());
          fill.push_back(0);
        }
        run_of[i] = run;
        ++fill[run];
      }
      uint32_t offset = static_cast<uint32_t>(members_.size());
      for (uint32_t& slot : fill) {
        const uint32_t size = slot;
        slot = offset;
        offset += size;
        run_begin_.push_back(offset);
        run_tick_.push_back(t);
      }
      members_.resize(offset);
      // Place, then undo only what this tick touched (every root is a
      // touched object): O(pairs), not O(num_objects).
      for (size_t i = 0; i < touched.size(); ++i) {
        const ObjectId o = touched[i];
        members_[fill[run_of[i]]++] = o;
        ++object_begin_[o + 1];
        run_of_root[o] = kNoRun;
        seen[o] = 0;
        uf.ResetOne(o);
      }
    }
    // Invert: runs are numbered in tick order, so each object's list
    // comes out ascending by tick.
    for (size_t o = 0; o < num_objects; ++o) {
      object_begin_[o + 1] += object_begin_[o];
    }
    runs_of_.resize(members_.size());
    fill.assign(object_begin_.begin(), object_begin_.end() - 1);
    for (uint32_t r = 0; r < run_tick_.size(); ++r) {
      for (uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
        runs_of_[fill[members_[i]]++] = r;
      }
    }
    carriers_.assign(run_tick_.size(), 0);
    carrier_.resize(run_tick_.size());
  }

  /// One E-column step: every component holding an eligible carrier
  /// labels its members other than that carrier at its tick (the min over
  /// ticks wins).
  void Sweep(const std::vector<Timestamp>& prev, Timestamp per_hop_ticks,
             std::vector<Timestamp>* next) {
    // Per run: eligible carriers (saturated at 2) and, when exactly one,
    // which — a member may only be labeled by a carrier other than itself.
    marked_.clear();
    for (ObjectId o = 0; o + 1 < object_begin_.size(); ++o) {
      const Timestamp arrival = prev[o];
      if (arrival == kInvalidTime) continue;
      const uint32_t* first = runs_of_.data() + object_begin_[o];
      const uint32_t* last = runs_of_.data() + object_begin_[o + 1];
      const uint32_t* r = std::partition_point(
          first, last, [&](uint32_t run) { return run_tick_[run] < arrival; });
      for (; r != last && HopEligible(arrival, run_tick_[*r], per_hop_ticks);
           ++r) {
        uint8_t& count = carriers_[*r];
        if (count == 0) {
          marked_.push_back(*r);
          carrier_[*r] = o;
        }
        count = count == 0 ? 1 : 2;
      }
    }
    for (const uint32_t r : marked_) {
      const Timestamp t = run_tick_[r];
      for (uint32_t i = run_begin_[r]; i < run_begin_[r + 1]; ++i) {
        const ObjectId m = members_[i];
        if (carriers_[r] == 1 && m == carrier_[r]) continue;
        Timestamp& label = (*next)[m];
        if (label == kInvalidTime || t < label) label = t;
      }
      carriers_[r] = 0;
    }
  }

 private:
  // Run r: members_[run_begin_[r], run_begin_[r + 1]) at tick run_tick_[r].
  std::vector<ObjectId> members_;
  std::vector<uint32_t> run_begin_;
  std::vector<Timestamp> run_tick_;
  // Object o's runs: runs_of_[object_begin_[o], object_begin_[o + 1]).
  std::vector<uint32_t> object_begin_;
  std::vector<uint32_t> runs_of_;
  // Per-level scratch, indexed by run; all zero between levels.
  std::vector<uint8_t> carriers_;
  std::vector<ObjectId> carrier_;
  std::vector<uint32_t> marked_;
};

}  // namespace

std::vector<ReachProfileEntry> ComputeHopProfile(
    size_t num_objects, ObjectId source, TimeInterval window,
    const HopConstraints& hops, const PairsAtFn& pairs_at) {
  std::optional<SnapshotComponents> components;  // Built on the first level.
  auto sweep = [&](const std::vector<Timestamp>& prev,
                   std::vector<Timestamp>* next) -> Status {
    if (!components) components.emplace(num_objects, window, pairs_at);
    components->Sweep(prev, hops.per_hop_ticks, next);
    return Status::OK();
  };
  auto profile = DriveHopLevels(num_objects, source, window, hops, sweep);
  return std::move(profile).ValueOrDie();  // The sweep never fails.
}

}  // namespace streach
