#ifndef STREACH_NETWORK_HOP_PROFILE_H_
#define STREACH_NETWORK_HOP_PROFILE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace streach {

/// \name Constrained reachability: the level-synchronous transfer table
///
/// Every query family beyond boolean reach (transfer-decay, k-hop with
/// per-hop time bounds, probability thresholds) reduces to the same
/// recursion over an E-table of per-transfer-count arrival times:
///
///   E[src][0]   = W.start
///   E[o][h+1]   = min tick t in W such that o's snapshot component at t
///                 contains a member m != o with E[m][h] <= t and
///                 (per_hop_ticks < 0 or t - E[m][h] <= per_hop_ticks)
///
/// read out as `infected_at[o] = min over h <= cap of E[o][h]` and
/// `transfers[o] = min h with E[o][h] finite`, where the transfer cap is
/// `min(max_transfers, num_objects - 1)` (unbounded caps clamp to
/// `num_objects - 1`; see below). Hops count *component entries*
/// (`HopConstraints` in common/types.h), matching the delay-free
/// within-component spread of the paper's Property 5.1.
///
/// Two evaluation modes, chosen by the per-hop bound:
///  - `per_hop_ticks < 0` (no freshness bound): columns are folded into a
///    running minimum ("reachable within <= h transfers"), which is
///    monotone, converges to the unbounded-transfer closure, and lets the
///    driver stop at the first fixpoint. With an unbounded cap this
///    reproduces plain boolean reachability exactly.
///  - `per_hop_ticks >= 0`: strict per-level columns (a carrier's
///    transmission window depends on its exact transfer count), no
///    monotonicity, so the driver runs to the cap with only exact-repeat /
///    all-empty early stops. An unbounded `max_transfers` combined with a
///    finite per-hop bound is *defined* as capped at `num_objects - 1`
///    transfers (relay ping-pong could otherwise refresh freshness
///    forever); every backend and the brute-force oracle share this rule,
///    and the k-hop workload generator always emits finite budgets.
///
/// Each backend implements only the one-column step (its native data
/// path); `DriveHopLevels` owns the level loop, folding, and stopping
/// rule, so all backends agree byte-for-byte by construction.
/// @{

/// One E-column step: from the previous column (arrival time per object,
/// kInvalidTime = absent), fill `next` (pre-sized, all kInvalidTime) with
/// the raw next-level arrivals. Returns non-OK to abort (IO errors).
using LevelSweepFn = std::function<Status(const std::vector<Timestamp>& prev,
                                          std::vector<Timestamp>* next)>;

/// The transfer cap actually evaluated: `max_transfers` clamped to
/// `num_objects - 1` (negative = unbounded also clamps there; 0 objects
/// give 0).
int32_t EffectiveTransferCap(size_t num_objects, int32_t max_transfers);

/// True iff an object whose previous-column arrival is `arrival` may hand
/// the item on at tick `t` under `per_hop_ticks`.
inline bool HopEligible(Timestamp arrival, Timestamp t,
                        Timestamp per_hop_ticks) {
  return arrival != kInvalidTime && arrival <= t &&
         (per_hop_ticks < 0 || t - arrival <= per_hop_ticks);
}

/// Runs the level loop: seeds the source at `window.start`, invokes
/// `level_sweep` once per transfer level, folds columns into the profile,
/// and stops at the cap or a fixpoint. `window` must already be clamped
/// to the data's span by the caller (an empty window or out-of-range
/// source yields an all-unreached profile — the source is only counted
/// as reached, at 0 transfers, when the window is non-empty).
Result<std::vector<ReachProfileEntry>> DriveHopLevels(
    size_t num_objects, ObjectId source, TimeInterval window,
    const HopConstraints& hops, const LevelSweepFn& level_sweep);

/// Reference kernel over materialized per-tick contact pairs: union-finds
/// the pairs of every tick in `window` once into dense per-component
/// member runs, then runs `DriveHopLevels` with a one-column step that
/// counts each eligible carrier into the runs it sits in and labels the
/// members of every run holding a carrier other than themselves.
/// `pairs_at(t)` must return the active contact pairs at tick `t` (empty
/// outside the data span); it is called once per tick, on the first
/// level, and never when the driver evaluates no level.
/// This is the semantics ground truth; IO-backed indexes implement the
/// same step over their own storage layout.
std::vector<ReachProfileEntry> ComputeHopProfile(
    size_t num_objects, ObjectId source, TimeInterval window,
    const HopConstraints& hops,
    const std::function<const std::vector<std::pair<ObjectId, ObjectId>>&(
        Timestamp)>& pairs_at);

/// @}

}  // namespace streach

#endif  // STREACH_NETWORK_HOP_PROFILE_H_
