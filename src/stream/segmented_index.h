#ifndef STREACH_STREAM_SEGMENTED_INDEX_H_
#define STREACH_STREAM_SEGMENTED_INDEX_H_

#include <memory>

#include "engine/reachability_index.h"
#include "stream/streaming_ingestor.h"

namespace streach {

/// \brief A `ReachabilityIndex` session over a live streaming ingestor.
///
/// A query over `[t1, t2]` snapshots the ingestor (the sealed segments
/// overlapping the interval, pinned, plus copies of the overlapping head
/// runs), loads each unit's candidate blocks through a private per-segment
/// buffer pool, and answers in one pass over the union of every unit's
/// contacts: one temporal-Dijkstra pass per source for closures, one
/// per-tick pair table fed to `ComputeHopProfile` for hop profiles. A
/// run crossing a seal boundary lives wholly in the later segment, whose
/// cover reaches back past the boundary; a pass over the union carries
/// infection across such cuts in either direction without repeated
/// rounds. Because every contact run is wholly owned by exactly one unit,
/// the answer is independent of how the stream was cut into segments —
/// the invariant that makes any append order and seal schedule
/// byte-identical to a one-shot batch build.
///
/// Per-query IO is the sum of the deltas of the pools the query touched
/// (each snapshotted on first touch); `shard_io_stats()` is the running
/// sum of those deltas, so accounting costs follow the window too.
///
/// Sessions follow the engine contract: one private set of buffer pools
/// and one stats slot per session, `NewSession()` for concurrent workers.
/// `IndexIdentity()` is null — the index is mutable (appends land between
/// queries), so memoized result-cache answers would go stale.
///
/// `MakeStreamingBackend` is the factory; the session shares ownership of
/// the ingestor, so it stays valid however long queries keep running.
std::unique_ptr<ReachabilityIndex> MakeStreamingBackend(
    std::shared_ptr<const StreamingIngestor> ingestor);

}  // namespace streach

#endif  // STREACH_STREAM_SEGMENTED_INDEX_H_
