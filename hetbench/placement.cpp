#include "placement.hpp"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>

#include "core/arrangement.hpp"
#include "core/heuristic.hpp"
#include "util/check.hpp"

namespace hetbench {

using namespace hetgrid;
using namespace hetgrid::serve;

namespace {

ServerOptions server_options() {
  ServerOptions o;
  o.threads = kServerThreads;
  return o;
}

// One request in this many goes through the bit-identity check.
constexpr std::uint64_t kSampleEvery = 32;

// How long before a request's due time its generator stops sleeping and
// spins.
constexpr std::chrono::microseconds kSpin{300};

}  // namespace

RequestStream::Request RequestStream::next() {
  static constexpr std::uint16_t kShapes[5][2] = {
      {2, 2}, {2, 3}, {3, 3}, {3, 4}, {4, 4}};
  Request out;
  if (!fresh_.empty() && rng_.uniform() < kRepeatShare) {
    out.repeat = true;
    out.origin = static_cast<std::size_t>(rng_.below(fresh_.size()));
    out.req = fresh_[out.origin];
    rng_.shuffle(out.req.times);
    out.scale_exp = static_cast<int>(rng_.range(-3, 3));
    for (double& t : out.req.times) t = std::ldexp(t, out.scale_exp);
  } else {
    const auto* shape = kShapes[rng_.below(5)];
    out.req.p = shape[0];
    out.req.q = shape[1];
    out.req.times = rng_.cycle_times(std::size_t{shape[0]} * shape[1]);
    out.origin = fresh_.size();
    fresh_.push_back(out.req);
  }
  return out;
}

bool reply_well_formed(const Decoded& d, const PlacementRequest& req) {
  if (!d.ok() || d.type != MsgType::kResponse) return false;
  const PlacementResponse& r = d.response;
  const std::size_t n = std::size_t{req.p} * req.q;
  if (r.p != req.p || r.q != req.q || r.perm.size() != n ||
      r.r.size() != req.p || r.c.size() != req.q)
    return false;
  std::vector<bool> seen(n, false);
  for (const std::uint32_t u : r.perm) {
    if (u >= n || seen[u]) return false;
    seen[u] = true;
  }
  if (!std::isfinite(r.objective) || r.objective <= 0.0) return false;
  for (const std::vector<double>* v : {&r.r, &r.c})
    for (const double x : *v)
      if (!std::isfinite(x) || x <= 0.0) return false;
  return true;
}

PlacementRig::PlacementRig(const PlacementConfig& config, std::uint64_t seed,
                           const std::string& socket_path)
    : config_(config),
      seed_(seed),
      socket_path_(socket_path),
      server_(server_options()) {
  endpoint_.unix_path = socket_path_;
  const int listen_fd = listen_unix(socket_path_);
  accept_thread_ = std::thread([this, listen_fd] { server_.serve_fd(listen_fd); });
  try {
    for (unsigned g = 0; g < config_.generators; ++g)
      streams_.emplace_back(mix64(seed, 0x5e7e + g));
    sequence_.assign(config_.generators, 0);
    monitor_fd_ = connect_endpoint(endpoint_);
  } catch (...) {
    server_.shutdown();
    accept_thread_.join();
    ::unlink(socket_path_.c_str());
    throw;
  }
  next_poll_ = Clock::now();
}

PlacementRig::~PlacementRig() {
  if (monitor_fd_ >= 0) ::close(monitor_fd_);
  server_.shutdown();
  accept_thread_.join();
  ::unlink(socket_path_.c_str());
}

std::vector<PlacementRequest> PlacementRig::fresh_pools() const {
  std::vector<PlacementRequest> out;
  for (const RequestStream& s : streams_)
    out.insert(out.end(), s.fresh().begin(), s.fresh().end());
  return out;
}

bool PlacementRig::check_sample(const Sample& s) const {
  const PlacementRequest& req = s.request.req;
  const PlacementRequest& base =
      s.request.repeat ? streams_[s.generator].fresh()[s.request.origin] : req;
  const int e = s.request.repeat ? s.request.scale_exp : 0;
  // The direct call the server's determinism contract names, on the pool
  // the cache entry was solved from.
  double obj = 0.0;
  std::vector<double> r, c, grid;
  if (server_.exact_affordable(req.p, req.q)) {
    const OptimalArrangement o =
        solve_optimal_arrangement(req.p, req.q, base.times);
    obj = o.solution.obj2;
    r = o.solution.alloc.r;
    c = o.solution.alloc.c;
    grid = o.grid.row_major();
  } else {
    const HeuristicResult h = solve_heuristic(req.p, req.q, base.times);
    obj = h.final().obj2;
    r = h.final().alloc.r;
    c = h.final().alloc.c;
    grid = h.final().grid.row_major();
  }
  // A request rescaled by 2^e is served the stored shares rescaled by
  // 2^-e, which is exact in binary floating point.
  const PlacementResponse& rsp = s.response;
  if (rsp.objective != std::ldexp(obj, -e) || rsp.c != c) return false;
  for (std::size_t i = 0; i < r.size(); ++i)
    if (rsp.r[i] != std::ldexp(r[i], -e)) return false;
  for (std::size_t slot = 0; slot < grid.size(); ++slot)
    if (req.times[rsp.perm[slot]] != std::ldexp(grid[slot], e)) return false;
  return true;
}

TrafficResult PlacementRig::run(double rate, double seconds, SpanLog* spans) {
  HG_CHECK(rate > 0.0, "offered rate must be positive");
  const unsigned gens = config_.generators;
  const bool traced = spans != nullptr && spans->enabled();
  std::vector<std::vector<RequestTiming>> timings(gens);
  std::vector<std::vector<Sample>> samples(gens);
  std::vector<SpanLog> logs(gens, SpanLog(traced));
  std::size_t polls = 0, polls_failed = 0;
  // Start a little ahead so every generator is waiting when request 0 is
  // due.
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(2);

  auto poll_stats = [&] {
    const Clock::time_point now = Clock::now();
    if (now < next_poll_) return;
    next_poll_ = now + std::chrono::seconds(1);
    ++polls;
    try {
      const Decoded d = query_stats_fd(monitor_fd_);
      if (!d.ok() || d.type != MsgType::kStatsResponse) ++polls_failed;
    } catch (const std::exception&) {
      ++polls_failed;
    }
  };

  auto generator = [&](unsigned g) {
    // Wake with microsecond precision instead of the default 50 us timer
    // slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    logs[g].set_origin(traced ? spans->origin() : origin);
    for (std::size_t i = g;; i += gens) {
      const double due = static_cast<double>(i) / rate;
      if (due >= seconds) break;
      // Sleep to just before the due time, then spin: a generator woken
      // late by the scheduler would add its own lag to every request.
      const Clock::time_point at =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due));
      std::this_thread::sleep_until(at - kSpin);
      while (Clock::now() < at) {
      }
      if (g == 0) poll_stats();
      const RequestStream::Request r = streams_[g].next();
      const std::uint64_t seq = sequence_[g]++;
      RequestTiming t;
      t.due = due;
      t.sent = seconds_since(origin, Clock::now());
      const std::ptrdiff_t span = logs[g].open(
          "query_server", "serve", (std::uint64_t{g} << 48) | seq);
      Decoded d;
      try {
        d = query_server(endpoint_, r.req);
        t.ok = reply_well_formed(d, r.req);
      } catch (const std::exception&) {
        t.ok = false;
      }
      logs[g].close(span);
      t.done = seconds_since(origin, Clock::now());
      timings[g].push_back(t);
      if (t.ok && mix64(mix64(seed_, g), seq) % kSampleEvery == 0)
        samples[g].push_back({r, d.response, g});
    }
  };

  std::vector<std::thread> threads;
  for (unsigned g = 1; g < gens; ++g) threads.emplace_back(generator, g);
  generator(0);
  for (std::thread& t : threads) t.join();

  TrafficResult res;
  for (unsigned g = 0; g < gens; ++g) {
    res.timings.insert(res.timings.end(), timings[g].begin(),
                       timings[g].end());
    if (traced) spans->merge(logs[g]);
  }
  std::sort(res.timings.begin(), res.timings.end(),
            [](const RequestTiming& a, const RequestTiming& b) {
              return a.due < b.due;
            });
  res.attempted = res.timings.size();
  double last = seconds;
  for (const RequestTiming& t : res.timings) {
    if (!t.ok) ++res.failed;
    last = std::max(last, t.done);
  }
  res.elapsed_s = last;
  res.stats_polls = polls;
  res.stats_failed = polls_failed;
  for (const std::vector<Sample>& per : samples)
    for (const Sample& s : per) {
      ++res.samples_checked;
      if (!check_sample(s)) ++res.samples_failed;
    }
  return res;
}

std::vector<double> PlacementRig::probe_transport(std::size_t count,
                                                  bool& ok) {
  PlacementRequest req;
  req.p = 1;
  req.q = 1;
  req.times = {-1.0};
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    try {
      const Decoded d = query_server(endpoint_, req);
      out.push_back(seconds_since(t0, Clock::now()) * 1e6);
      if (!d.ok() || d.type != MsgType::kError ||
          d.error.code != WireError::kBadCycleTime)
        ok = false;
    } catch (const std::exception&) {
      ok = false;
    }
  }
  return out;
}

}  // namespace hetbench
