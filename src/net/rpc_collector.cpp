#include "net/rpc_collector.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
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

/// Request header: which source's summary, and which attempt this is. The
/// attempt number travels in the request so the fault injector can give
/// retries a fresh verdict without the server tracking any client state.
/// A phase-2 request carries the source's departure mask after it.
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

/// Builds the reply to one request: the source's index and the request's
/// body (the bytes after the header). Returns false, replying nothing, when
/// the request is not one a client of this round sends. Called from the
/// handler threads at once, so it only reads.
using Responder = std::function<bool(std::uint32_t source, std::span<const std::uint8_t> body,
                                     std::vector<std::uint8_t>& reply)>;

/// Serves the epoch's per-source replies, sabotaging attempts as the fault
/// injector directs. One accept-loop thread plus one short-lived thread per
/// connection, all joined by the destructor before collect() returns.
class SummaryServer {
 public:
  SummaryServer(Responder respond, const FaultInjector& injector, std::uint64_t salt,
                Clock& clock, int request_timeout_ms)
      : respond_(std::move(respond)),
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
      if (request.size() < kRequestBytes) return;
      const std::uint32_t source = get_u32(request.data());
      const std::uint32_t attempt = get_u32(request.data() + sizeof(std::uint32_t));
      std::vector<std::uint8_t> payload;
      if (!respond_(source, std::span<const std::uint8_t>(request).subspan(kRequestBytes),
                    payload)) {
        return;
      }
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
  Responder respond_;
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
  /// Phase 2: the source's departure mask, sent after the request header
  /// (phase 1 sends none).
  cluster::DepartureMask mask;
  std::vector<std::uint8_t> payload;
  /// Phase 1: the decoded centroid frame.
  cluster::ClusterBuffer clusters;
  /// Phase 2: the departing clusters' second moments, in cluster order.
  std::vector<double> moments;
  std::size_t requests_sent = 0;
  std::size_t faults_hit = 0;
  std::size_t retries = 0;
  std::uint64_t backoff_ms = 0;
};

std::uint64_t backoff_for_attempt(std::size_t attempt) {
  std::uint64_t backoff = kBackoffInitialMs;
  for (std::size_t step = 1; step < attempt; ++step) {
    backoff = std::min(backoff * 2, kBackoffCapMs);
  }
  return std::min(backoff, kBackoffCapMs);
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
      const std::uint64_t backoff = backoff_for_attempt(attempt);
      clock.sleep_ms(backoff);
      result.backoff_ms += backoff;
      ++result.retries;
    }
    try {
      Socket socket = connect_local(port, timeout_ms);
      const std::span<const std::uint8_t> body = result.mask.bytes();
      std::vector<std::uint8_t> request(kRequestBytes + body.size());
      put_u32(request.data(), source);
      put_u32(request.data() + sizeof(std::uint32_t), static_cast<std::uint32_t>(attempt));
      std::copy(body.begin(), body.end(), request.begin() + kRequestBytes);
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

/// Serves `respond` under `salt` and fetches every source that `wanted`
/// selects, in parallel; returns when the server and every fetch have
/// joined.
template <typename Wanted, typename Decode>
void fetch_round(Responder respond, std::uint64_t salt, const FaultInjector& injector,
                 const RpcCollectorConfig& config, Clock& clock,
                 std::vector<FetchResult>& results, const Wanted& wanted,
                 const Decode& decode) {
  const int request_timeout_ms = static_cast<int>(
      std::min<std::uint64_t>(config.timeout_ms, std::numeric_limits<int>::max()));
  SummaryServer server(std::move(respond), injector, salt, clock, request_timeout_ms);
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
      [&payloads](std::uint32_t source, std::span<const std::uint8_t> body,
                  std::vector<std::uint8_t>& reply) {
        if (source >= payloads.size() || !body.empty()) return false;
        reply = payloads[source];
        return true;
      },
      context.epoch_seed, injector_, config_, *clock_, results,
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
      collected.summaries.append(result.clusters.view(), sources[i].node);
      last_good_[sources[i].node] = std::move(result.payload);
      continue;
    }
    const auto cached = last_good_.find(sources[i].node);
    if (cached != last_good_.end()) {
      // Stale fallback: replay the replica's last good centroid frame. It
      // parsed when it was cached, so this decode cannot fail. The bytes are
      // not added to summary_bytes — nothing crossed the wire this round.
      ByteReader reader(cached->second);
      collected.summaries.append(cluster::read_centroid_frame(reader).view(), sources[i].node);
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
  cluster::ClusterBuffer& rows = collected.summaries;
  GEORED_ENSURE(rows.empty() || rows.planned(), "phase 2 follows the hand-off plan");
  if (sources.empty()) return;

  // Each fresh source's departure mask over its centroid frame, from the
  // plan. A source is asked only when a cluster of its departs. A stale
  // fallback is never asked: its moments would not match the frame it
  // replayed.
  std::vector<FetchResult> results(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const SourceRound& round = rounds[s];
    GEORED_ENSURE(round.first + round.clusters <= rows.size(),
                  "collect_moments completes the summaries the latest collect() returned");
    if (round.served != Served::kFresh) continue;
    results[s].mask = cluster::DepartureMask(round.clusters);
    for (std::size_t i = 0; i < round.clusters; ++i) {
      if (rows.departs(round.first + i)) results[s].mask.set(i);
    }
  }
  const auto asked = [&](std::size_t s) {
    return rounds[s].served == Served::kFresh && results[s].mask.departing() > 0;
  };
  const std::size_t dim = rows.dim();
  fetch_round(
      [&sources](std::uint32_t source, std::span<const std::uint8_t> body,
                 std::vector<std::uint8_t>& reply) {
        if (source >= sources.size()) return false;
        const cluster::ClusterView clusters = sources[source].clusters;
        cluster::DepartureMask mask;
        try {
          mask = cluster::read_departure_mask(body, clusters.size());
        } catch (const WireFormatError&) {
          return false;  // no coordinator of this round sends that mask
        }
        ByteWriter writer;
        cluster::write_departing_moment_frame(writer, clusters, mask);
        reply = writer.bytes();
        return true;
      },
      context.epoch_seed ^ kMomentPhaseSalt, injector_, config_, *clock_, results, asked,
      [dim](ByteReader& reader, FetchResult& result) {
        result.moments = cluster::read_departing_moment_frame(reader, result.mask, dim);
      });

  // Accounting pass: an answered source's departing clusters get their
  // moments; a source that ran out of retries loses its departing clusters
  // (its staying ones never left its replica), and a stale fallback all of
  // its clusters.
  std::vector<bool> keep(rows.size(), true);
  const MutexLock lock(mutex_);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const FetchResult& result = results[s];
    const SourceRound& round = rounds[s];
    stats_.requests_sent += result.requests_sent;
    stats_.faults_hit += result.faults_hit;
    stats_.retries += result.retries;
    stats_.backoff_ms_total += result.backoff_ms;
    if (round.served == Served::kLost) continue;  // contributed nothing
    if (round.served == Served::kStale) {
      std::fill_n(keep.begin() + static_cast<std::ptrdiff_t>(round.first), round.clusters,
                  false);
      collected.handoff_lost_sources.push_back(sources[s].node);
      continue;
    }
    if (!asked(s)) continue;  // every cluster stays
    if (!result.ok) {
      for (std::size_t i = 0; i < round.clusters; ++i) {
        if (result.mask.departs(i)) keep[round.first + i] = false;
      }
      collected.handoff_lost_sources.push_back(sources[s].node);
      continue;
    }
    ++stats_.responses_ok;
    collected.summary_bytes += result.mask.bytes().size() + result.payload.size();
    std::size_t next = 0;
    for (std::size_t i = 0; i < round.clusters; ++i) {
      if (!result.mask.departs(i)) continue;
      rows.set_moments(round.first + i,
                       std::span<const double>(result.moments).subspan(next * dim, dim));
      ++next;
    }
  }
  rows.retain_rows(keep);
}

}  // namespace geored::net
