#include "net/rpc_collector.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/ensure.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"

namespace geored::net {

namespace {

/// Request payload: which source's summary, and which attempt this is. The
/// attempt number travels in the request so the fault injector can give
/// retries a fresh verdict without the server tracking any client state.
constexpr std::size_t kRequestBytes = 2 * sizeof(std::uint32_t);

/// Accept-loop poll tick: how often the server checks its stop flag. Pure
/// liveness plumbing, not time "spent" — hence not on the injected Clock.
constexpr int kAcceptTickMs = 50;

/// How long a dropping server holds an unanswered connection open waiting
/// for the client to give up. The client's own timeout fires far sooner and
/// closes the socket, which ends the drain; this bound only stops a handler
/// thread from leaking if the peer wedges.
constexpr int kDropHoldMs = 60 * 1000;

void put_u32(std::uint8_t* out, std::uint32_t value) { std::memcpy(out, &value, sizeof value); }

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t value;
  std::memcpy(&value, in, sizeof value);
  return value;
}

/// Serves the epoch's per-source payloads, sabotaging attempts as the fault
/// injector directs. One accept-loop thread plus one short-lived thread per
/// connection, all joined by the destructor before collect() returns.
class SummaryServer {
 public:
  SummaryServer(std::vector<std::vector<std::uint8_t>> payloads, const FaultInjector& injector,
                std::uint64_t salt, Clock& clock, int request_timeout_ms)
      : payloads_(std::move(payloads)),
        injector_(injector),
        salt_(salt),
        clock_(clock),
        request_timeout_ms_(request_timeout_ms) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~SummaryServer() {
    stop_.store(true);
    accept_thread_.join();
    // The accept loop is done, but the annotation (not the join ordering) is
    // what guarantees no handler registration races this drain.
    std::vector<std::thread> handlers;
    {
      const MutexLock lock(handlers_mutex_);
      handlers.swap(handlers_);
    }
    for (auto& handler : handlers) handler.join();
  }

  SummaryServer(const SummaryServer&) = delete;
  SummaryServer& operator=(const SummaryServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

 private:
  void accept_loop() {
    while (!stop_.load()) {
      std::optional<Socket> conn = listener_.accept(kAcceptTickMs);
      if (!conn) continue;
      const MutexLock lock(handlers_mutex_);
      handlers_.emplace_back(
          [this](Socket socket) { handle(std::move(socket)); }, std::move(*conn));
    }
  }

  void handle(Socket conn) {
    // A peer vanishing mid-exchange is its client's fault to count, not an
    // error here — swallow transport exceptions and drop the connection.
    try {
      std::vector<std::uint8_t> request;
      if (read_frame(conn, request, request_timeout_ms_) != IoStatus::kOk) return;
      if (request.size() != kRequestBytes) return;
      const std::uint32_t source = get_u32(request.data());
      const std::uint32_t attempt = get_u32(request.data() + sizeof(std::uint32_t));
      if (source >= payloads_.size()) return;
      const std::vector<std::uint8_t>& payload = payloads_[source];
      const FaultPlan plan = injector_.plan(salt_, source, attempt);
      switch (plan.action) {
        case FaultAction::kNone:
          write_frame(conn, payload);
          break;
        case FaultAction::kDrop:
          // Never answer; wait out the client's timeout-and-close.
          conn.drain_until_closed(kDropHoldMs);
          break;
        case FaultAction::kDelay:
          clock_.sleep_ms(plan.delay_ms);
          write_frame(conn, payload);
          break;
        case FaultAction::kDuplicate:
          write_frame(conn, payload);
          write_frame(conn, payload);
          break;
        case FaultAction::kTruncate:
          // Header promises the full payload; the body stops halfway. An
          // empty payload cannot be cut short, so degrade to a disconnect.
          if (payload.empty()) break;
          write_truncated_frame(conn, payload, payload.size() / 2);
          break;
        case FaultAction::kDisconnect:
          break;  // close without replying
      }
    } catch (const SocketError&) {
    } catch (const FrameError&) {
    } catch (const std::invalid_argument&) {
    }
  }

  Listener listener_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  FaultInjector injector_;
  std::uint64_t salt_;
  Clock& clock_;
  int request_timeout_ms_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  /// Registered by the accept loop, drained by the destructor. The join
  /// ordering alone would make this safe today; the capability annotation
  /// keeps it safe when a second registration path appears.
  Mutex handlers_mutex_;
  std::vector<std::thread> handlers_ GEORED_GUARDED_BY(handlers_mutex_);
};

/// One source's fate after the retry loop, plus its share of the counters.
/// Slots live in an index-disjoint vector so the parallel fetch needs no
/// synchronization.
struct FetchResult {
  bool ok = false;
  std::vector<std::uint8_t> payload;
  /// Phase 1: the decoded centroid frame. Phase 2: the source's clusters
  /// from phase 1, which the moment frame completes.
  std::vector<cluster::MicroCluster> clusters;
  std::size_t requests_sent = 0;
  std::size_t faults_hit = 0;
  std::size_t retries = 0;
  std::uint64_t backoff_ms = 0;
};

std::uint64_t backoff_for_attempt(const RpcCollectorConfig& config, std::size_t attempt) {
  std::uint64_t backoff = config.backoff_initial_ms;
  for (std::size_t step = 1; step < attempt; ++step) {
    backoff = std::min(backoff * 2, config.backoff_cap_ms);
  }
  return std::min(backoff, config.backoff_cap_ms);
}

/// Fetches source `source`'s frame into `result` under the retry budget.
/// `decode(reader, result)` reads one frame and throws WireFormatError on
/// anything a zero-fault server could not have sent.
template <typename Decode>
void fetch_source(std::uint16_t port, std::uint32_t source, const RpcCollectorConfig& config,
                  Clock& clock, FetchResult& result, const Decode& decode) {
  const int timeout_ms = static_cast<int>(
      std::min<std::uint64_t>(config.timeout_ms, std::numeric_limits<int>::max()));
  for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t backoff = backoff_for_attempt(config, attempt);
      clock.sleep_ms(backoff);
      result.backoff_ms += backoff;
      ++result.retries;
    }
    try {
      Socket socket = connect_local(port, timeout_ms);
      std::uint8_t request[kRequestBytes];
      put_u32(request, source);
      put_u32(request + sizeof(std::uint32_t), static_cast<std::uint32_t>(attempt));
      write_frame(socket, request);
      ++result.requests_sent;
      std::vector<std::uint8_t> response;
      if (read_frame(socket, response, timeout_ms) == IoStatus::kOk) {
        // Hardened decode: anything a zero-fault server could not have sent
        // throws WireFormatError and burns this attempt like any other fault.
        ByteReader reader(response);
        decode(reader, result);
        if (!reader.exhausted()) {
          throw WireFormatError("summary response carries trailing bytes");
        }
        result.payload = std::move(response);
        result.ok = true;
        return;
      }
      // kClosed: the server disconnected without answering.
      // kTimeout: the server is holding the response (drop); give up and
      // close, which releases the server's drain.
    } catch (const FrameError&) {
      // Truncated or corrupt frame.
    } catch (const SocketError&) {
      // Reset mid-exchange.
    } catch (const WireFormatError&) {
      // Framed fine, decoded to garbage.
    }
    ++result.faults_hit;
  }
}

/// Serves `payloads` under `salt` and fetches every source that `wanted`
/// selects, in parallel; returns when the server and every fetch have
/// joined.
template <typename Wanted, typename Decode>
void fetch_round(std::vector<std::vector<std::uint8_t>> payloads, std::uint64_t salt,
                 const FaultInjector& injector, const RpcCollectorConfig& config, Clock& clock,
                 std::vector<FetchResult>& results, const Wanted& wanted,
                 const Decode& decode) {
  const int request_timeout_ms = static_cast<int>(
      std::min<std::uint64_t>(config.timeout_ms, std::numeric_limits<int>::max()));
  SummaryServer server(std::move(payloads), injector, salt, clock, request_timeout_ms);
  const std::uint16_t port = server.port();
  parallel_for(results.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (wanted(i)) {
        fetch_source(port, static_cast<std::uint32_t>(i), config, clock, results[i], decode);
      }
    }
  });
  // Server (and every handler thread) joins here, before results are read.
}

}  // namespace

std::string RpcStats::to_string() const {
  return "rpc: requests=" + std::to_string(requests_sent) + " ok=" +
         std::to_string(responses_ok) + " faults=" + std::to_string(faults_hit) +
         " retries=" + std::to_string(retries) + " stale=" + std::to_string(stale_fallbacks) +
         " lost=" + std::to_string(lost_sources) + " backoff_ms=" +
         std::to_string(backoff_ms_total);
}

RpcCollector::RpcCollector(RpcCollectorConfig config, std::shared_ptr<Clock> clock)
    : config_(config), injector_(config.faults), clock_(std::move(clock)) {
  GEORED_ENSURE(config_.max_attempts >= 1, "the retry budget includes the first attempt");
  GEORED_ENSURE(config_.timeout_ms > config_.faults.delay_ms,
                "the client timeout must exceed the injected delay or delays become drops");
  if (!clock_) clock_ = std::make_shared<SystemClock>();
}

core::CollectedSummaries RpcCollector::collect(const std::vector<core::SummarySource>& sources,
                                               const core::CollectionContext& context) {
  {
    const MutexLock lock(mutex_);
    stats_ = RpcStats{};
    round_.assign(sources.size(), SourceRound{});
  }
  core::CollectedSummaries collected;
  if (sources.empty()) return collected;

  // Encode every source's centroid frame: the payloads the server answers
  // with, and — in source order — exactly the bytes DirectCollector would
  // have accounted.
  std::vector<std::vector<std::uint8_t>> payloads(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ByteWriter writer;
    cluster::write_centroid_frame(writer, sources[i].clusters);
    payloads[i] = writer.bytes();
  }

  std::vector<FetchResult> results(sources.size());
  fetch_round(
      std::move(payloads), context.epoch_seed, injector_, config_, *clock_, results,
      [](std::size_t) { return true; },
      [](ByteReader& reader, FetchResult& result) {
        result.clusters = cluster::read_centroid_frame(reader);
      });

  // Accounting pass: every fetch thread has joined, so the per-source slots
  // are quiescent; the collector-lifetime stats, stale-payload cache and
  // round record are updated under their mutex.
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    FetchResult& result = results[i];
    stats_.requests_sent += result.requests_sent;
    stats_.faults_hit += result.faults_hit;
    stats_.retries += result.retries;
    stats_.backoff_ms_total += result.backoff_ms;
    SourceRound& round = round_[i];
    round.first = collected.summaries.size();
    if (result.ok) {
      ++stats_.responses_ok;
      round.served = Served::kFresh;
      round.clusters = result.clusters.size();
      collected.summary_bytes += result.payload.size();
      collected.summaries.append(result.clusters);
      last_good_[sources[i].node] = std::move(result.payload);
      continue;
    }
    const auto cached = last_good_.find(sources[i].node);
    if (cached != last_good_.end()) {
      // Stale fallback: replay the replica's last good centroid frame. It
      // parsed when it was cached, so this decode cannot fail. The bytes are
      // not added to summary_bytes — nothing crossed the wire this round.
      ByteReader reader(cached->second);
      collected.summaries.append(cluster::read_centroid_frame(reader));
      round.served = Served::kStale;
      round.clusters = collected.summaries.size() - round.first;
      collected.stale_sources.push_back(sources[i].node);
      ++stats_.stale_fallbacks;
    } else {
      collected.lost_sources.push_back(sources[i].node);
      ++stats_.lost_sources;
    }
  }
  return collected;
}

void RpcCollector::collect_moments(const std::vector<core::SummarySource>& sources,
                                   const core::CollectionContext& context,
                                   core::CollectedSummaries& collected) {
  std::vector<SourceRound> rounds;
  {
    const MutexLock lock(mutex_);
    rounds = round_;
  }
  GEORED_ENSURE(rounds.size() == sources.size(),
                "collect_moments completes the latest collect() of the same sources");
  if (sources.empty()) return;

  // Only the sources phase 1 fetched fresh are asked for their moments; a
  // stale fallback's moments would not match the frame it replayed.
  const auto fresh = [&rounds](std::size_t i) { return rounds[i].served == Served::kFresh; };
  std::vector<std::vector<std::uint8_t>> payloads(sources.size());
  std::vector<FetchResult> results(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (!fresh(i)) continue;
    ByteWriter writer;
    cluster::write_moment_frame(writer, sources[i].clusters);
    payloads[i] = writer.bytes();
    GEORED_ENSURE(rounds[i].first + rounds[i].clusters <= collected.summaries.size(),
                  "collect_moments completes the summaries the latest collect() returned");
    results[i].clusters =
        collected.summaries.view().subview(rounds[i].first, rounds[i].clusters);
  }
  fetch_round(std::move(payloads), context.epoch_seed ^ kMomentPhaseSalt, injector_, config_,
              *clock_, results, fresh, [](ByteReader& reader, FetchResult& result) {
                cluster::read_moment_frame(reader, result.clusters);
              });

  // Accounting pass: the completed sources' clusters, copied out before the
  // fetch, replace the collected ones in source order, without the dropped.
  const MutexLock lock(mutex_);
  collected.summaries.clear();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    FetchResult& result = results[i];
    stats_.requests_sent += result.requests_sent;
    stats_.faults_hit += result.faults_hit;
    stats_.retries += result.retries;
    stats_.backoff_ms_total += result.backoff_ms;
    if (rounds[i].served == Served::kLost) continue;  // contributed nothing
    if (!result.ok) {
      collected.handoff_lost_sources.push_back(sources[i].node);
      continue;
    }
    ++stats_.responses_ok;
    collected.summary_bytes += result.payload.size();
    collected.summaries.append(result.clusters);
  }
}

}  // namespace geored::net
