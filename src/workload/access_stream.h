// Observation-phase access-stream helpers (paper §IV-A).
//
// The evaluation harness replays every client's accesses in one interleaved
// order (cluster formation should see arrivals mixed across clients, not one
// client at a time) and routes each access to the client's closest initial
// replica. These helpers factor that protocol out of core/evaluation and
// re-shape it for batched ingestion: instead of one summarizer.add() per
// access, the stream is grouped into per-replica coordinate batches that
// feed MicroClusterSummarizer::add_batch in contiguous chunks. Grouping is
// order-preserving per replica, so batched ingestion is bit-identical to
// the per-access loop it replaces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/point.h"
#include "common/point_set.h"
#include "common/random.h"

namespace geored::wl {

/// Expands per-client access counts into one client-index stream and
/// shuffles it with a seeded Fisher-Yates pass — the exact expansion and
/// rng consumption of the historical evaluation loop, so existing seeds
/// reproduce the same stream.
std::vector<std::uint32_t> interleave_access_stream(const std::vector<std::uint64_t>& counts,
                                                    Rng& rng);

/// Groups a shuffled access stream into one batch of client coordinates
/// per server: row i of a server's batch is its i-th access. Access order
/// *within* each server is stream order — each summarizer sees the
/// identical subsequence it would have seen from the per-access loop.
std::vector<PointSet> batch_by_server(const std::vector<std::uint32_t>& stream,
                                      const std::vector<std::size_t>& server_of_client,
                                      const std::vector<Point>& client_coords,
                                      std::size_t server_count);

}  // namespace geored::wl
