// The placement phase of a hetbench workload: an in-process
// PlacementServer on a unix socket, driven by an open loop of query_server
// calls (one connection per request, as `hetgrid query` does) while one
// monitoring client keeps its connection open and polls the server's stats
// once a second.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace hetbench {

/// Server worker threads, and the p99 limit of place_max_qps.
inline constexpr unsigned kServerThreads = 2;
inline constexpr double kLatencyLimitUs = 10'000.0;
/// Share of requests that repeat an earlier pool of the same generator,
/// permuted and rescaled by a power of two, so they hit the cache through
/// canonicalization. The rest are fresh pools.
inline constexpr double kRepeatShare = 0.75;

struct PlacementConfig {
  /// Generator threads; with the server's workers they fill nproc.
  unsigned generators = 2;
};

/// One generator thread's seeded request stream over the grid shapes 2x2,
/// 2x3, 3x3, 3x4 and 4x4.
class RequestStream {
 public:
  struct Request {
    hetgrid::serve::PlacementRequest req;
    std::size_t origin = 0;  // index into fresh() of the pool it repeats
    int scale_exp = 0;       // times = 2^scale_exp * permuted origin pool
    bool repeat = false;
  };

  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}
  Request next();
  const std::vector<hetgrid::serve::PlacementRequest>& fresh() const {
    return fresh_;
  }

 private:
  hetgrid::Rng rng_;
  std::vector<hetgrid::serve::PlacementRequest> fresh_;
};

/// Outcome of one open-loop stretch of traffic.
struct TrafficResult {
  std::vector<RequestTiming> timings;  // all generators, in due order
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double elapsed_s = 0.0;
  std::size_t stats_polls = 0;
  std::size_t stats_failed = 0;
  std::size_t samples_checked = 0;
  std::size_t samples_failed = 0;
};

/// The server, its socket and accept thread, the monitoring connection and
/// the generators' request streams.
class PlacementRig {
 public:
  PlacementRig(const PlacementConfig& config, std::uint64_t seed,
               const std::string& socket_path);
  ~PlacementRig();
  PlacementRig(const PlacementRig&) = delete;
  PlacementRig& operator=(const PlacementRig&) = delete;

  /// Open loop at `rate` (> 0) requests/s for `seconds`: request i is due
  /// at i / rate and goes to generator i mod G.
  TrafficResult run(double rate, double seconds, SpanLog* spans = nullptr);

  /// Transport round trips on an idle server, in microseconds: `count`
  /// requests with a non-positive cycle-time, each on a fresh connection as
  /// query_server makes them. The server refuses each before any cache or
  /// solver work. Sets `ok` to false if a reply is not that refusal.
  std::vector<double> probe_transport(std::size_t count, bool& ok);

  hetgrid::serve::PlacementServer& server() { return server_; }
  /// Fresh pools the generators have sent so far (probe inputs).
  std::vector<hetgrid::serve::PlacementRequest> fresh_pools() const;

 private:
  struct Sample {
    RequestStream::Request request;
    hetgrid::serve::PlacementResponse response;
    unsigned generator = 0;
  };
  bool check_sample(const Sample& s) const;

  PlacementConfig config_;
  std::uint64_t seed_;
  std::string socket_path_;
  hetgrid::serve::PlacementServer server_;
  hetgrid::serve::Endpoint endpoint_;
  std::vector<RequestStream> streams_;
  std::vector<std::uint64_t> sequence_;  // requests sent per generator
  int monitor_fd_ = -1;
  Clock::time_point next_poll_;
  std::thread accept_thread_;  // last: joined before the members it uses go
};

/// Request checks every reply must pass: a kResponse for the request's
/// shape whose perm is a permutation and whose objective and shares are
/// finite and positive.
bool reply_well_formed(const hetgrid::serve::Decoded& d,
                       const hetgrid::serve::PlacementRequest& req);

}  // namespace hetbench
