#include "workload/access_stream.h"

#include <utility>

#include "common/ensure.h"

namespace geored::wl {

std::vector<std::uint32_t> interleave_access_stream(const std::vector<std::uint64_t>& counts,
                                                    Rng& rng) {
  std::vector<std::uint32_t> stream;
  for (std::size_t u = 0; u < counts.size(); ++u) {
    for (std::uint64_t a = 0; a < counts[u]; ++a) {
      stream.push_back(static_cast<std::uint32_t>(u));
    }
  }
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.below(i)]);
  }
  return stream;
}

std::vector<PointSet> batch_by_server(const std::vector<std::uint32_t>& stream,
                                      const std::vector<std::size_t>& server_of_client,
                                      const std::vector<Point>& client_coords,
                                      std::size_t server_count) {
  GEORED_ENSURE(server_of_client.size() == client_coords.size(),
                "one server and one coordinate per client required");
  std::vector<PointSet> batches(server_count);
  // Pre-size: one counting pass so the append pass never reallocates.
  std::vector<std::size_t> sizes(server_count, 0);
  for (const auto u : stream) {
    GEORED_ENSURE(u < server_of_client.size(), "stream references an unknown client");
    const std::size_t server = server_of_client[u];
    GEORED_ENSURE(server < server_count, "client routed to an unknown server");
    ++sizes[server];
  }
  for (std::size_t r = 0; r < server_count; ++r) batches[r].reserve(sizes[r]);
  for (const auto u : stream) batches[server_of_client[u]].push_back(client_coords[u]);
  return batches;
}

}  // namespace geored::wl
