#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <ostream>

#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "matrix/trsm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hetbench {

using hetgrid::ConstMatrixView;
using hetgrid::MatrixView;
using hetgrid::norm_inf;

// ---------------------------------------------------------------------------
// Sample statistics.

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The small slack keeps q * n exact for decimal q (0.99 * 1000 must give
  // rank 990, not 991).
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  HG_CHECK(!sorted.empty(), "percentile of an empty sample");
  HG_CHECK(q > 0.0 && q <= 1.0, "percentile q must be in (0, 1]");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double highest_supported_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile(samples, 0.5);
  s.tail_q = highest_supported_quantile(samples.size());
  if (s.tail_q > 0.0) s.tail = percentile(samples, s.tail_q);
  return s;
}

// ---------------------------------------------------------------------------
// Interval unions.

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval cur;
  for (const Interval& iv : intervals) {
    if (!(iv.end > iv.start)) continue;
    if (open && iv.start <= cur.end) {
      cur.end = std::max(cur.end, iv.end);
      continue;
    }
    if (open) total += cur.end - cur.start;
    cur = iv;
    open = true;
  }
  if (open) total += cur.end - cur.start;
  return total;
}

double uncovered_length(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  return std::max(0.0, window.end - window.start) -
         union_length(std::move(intervals));
}

// ---------------------------------------------------------------------------
// Open-loop request accounting.

double latency_us(const RequestTiming& r) {
  if (!r.ok) return std::numeric_limits<double>::infinity();
  return (r.done - r.due) * 1e6;
}

double lag_us(const RequestTiming& r) { return (r.sent - r.due) * 1e6; }

bool backlog_grew(const std::vector<RequestTiming>& rung, double share) {
  if (rung.empty()) return false;
  double last_due = rung.front().due;
  for (const RequestTiming& r : rung) last_due = std::max(last_due, r.due);
  std::size_t unsent = 0;
  for (const RequestTiming& r : rung)
    if (r.sent > last_due) ++unsent;
  const double allowed =
      std::max(1.0, share * static_cast<double>(rung.size()));
  return static_cast<double>(unsent) > allowed;
}

double max_sustained_rate(const std::vector<RungStats>& ladder,
                          double limit_us) {
  auto passes = [&](const RungStats& r) {
    return !r.failed && !r.backlog_grew && r.p99_us <= limit_us;
  };
  for (std::size_t j = 0; j < ladder.size(); ++j) {
    if (passes(ladder[j])) continue;
    if (j == 0) return 0.0;
    const RungStats& lo = ladder[j - 1];
    const RungStats& hi = ladder[j];
    // A rung lost to a failure or a backlog, not to its tail, gives no
    // slope to interpolate on.
    if (hi.failed || hi.backlog_grew || hi.p99_us <= lo.p99_us)
      return lo.achieved;
    const double t = (std::log(limit_us) - std::log(lo.p99_us)) /
                     (std::log(hi.p99_us) - std::log(lo.p99_us));
    return lo.achieved + std::clamp(t, 0.0, 1.0) * (hi.achieved - lo.achieved);
  }
  return ladder.empty() ? 0.0 : ladder.back().achieved;
}

// ---------------------------------------------------------------------------
// Residual checks.

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  hetgrid::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

double inf_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

// y = A x, column by column (the storage order).
std::vector<double> matvec(const ConstMatrixView& a,
                           const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += a(i, j) * xj;
  }
  return y;
}

// y = U x with U the upper triangle (diagonal included) of `a`.
std::vector<double> upper_matvec(const ConstMatrixView& a,
                                 const std::vector<double>& x) {
  const std::size_t n = a.cols();
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    for (std::size_t i = 0; i <= j && i < a.rows(); ++i) y[i] += a(i, j) * xj;
  }
  return y;
}

// y = L x with L the lower triangle of `a`; `unit` takes the diagonal as 1.
std::vector<double> lower_matvec(const ConstMatrixView& a,
                                 const std::vector<double>& x, bool unit) {
  const std::size_t n = a.cols();
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = x[j];
    y[j] += (unit ? 1.0 : a(j, j)) * xj;
    for (std::size_t i = j + 1; i < a.rows(); ++i) y[i] += a(i, j) * xj;
  }
  return y;
}

// y = L^T x with L the lower triangle (diagonal included) of `a`.
std::vector<double> lower_transposed_matvec(const ConstMatrixView& a,
                                            const std::vector<double>& x) {
  const std::size_t n = a.cols();
  std::vector<double> y(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = j; i < a.rows(); ++i) s += a(i, j) * x[i];
    y[j] = s;
  }
  return y;
}

double scaled(const std::vector<double>& lhs, const std::vector<double>& rhs,
              double scale) {
  double diff = 0.0;
  for (std::size_t i = 0; i < lhs.size(); ++i)
    diff = std::max(diff, std::abs(lhs[i] - rhs[i]));
  // NaN anywhere makes diff NaN, which must fail the check, not pass it.
  for (std::size_t i = 0; i < lhs.size(); ++i)
    if (!std::isfinite(lhs[i]) || !std::isfinite(rhs[i]))
      return std::numeric_limits<double>::infinity();
  return scale > 0.0 ? diff / scale : diff;
}

}  // namespace

double mmm_residual(const ConstMatrixView& a, const ConstMatrixView& b,
                    const ConstMatrixView& c, std::uint64_t seed) {
  const std::vector<double> x = random_vector(c.cols(), seed);
  const std::vector<double> cx = matvec(c, x);
  const std::vector<double> abx = matvec(a, matvec(b, x));
  const double n = static_cast<double>(a.cols());
  return scaled(cx, abx,
                n * kEps * norm_inf(a) * norm_inf(b) * inf_norm(x));
}

double lu_residual(const ConstMatrixView& a, const ConstMatrixView& lu,
                   std::uint64_t seed) {
  const std::vector<double> x = random_vector(a.cols(), seed);
  const std::vector<double> ax = matvec(a, x);
  const std::vector<double> lux = lower_matvec(lu, upper_matvec(lu, x), true);
  const double n = static_cast<double>(a.cols());
  return scaled(ax, lux, n * kEps * norm_inf(a) * inf_norm(x));
}

double cholesky_residual(const ConstMatrixView& a, const ConstMatrixView& l,
                         std::uint64_t seed) {
  const std::vector<double> x = random_vector(a.cols(), seed);
  const std::vector<double> ax = matvec(a, x);
  const std::vector<double> llx =
      lower_matvec(l, lower_transposed_matvec(l, x), false);
  const double n = static_cast<double>(a.cols());
  return scaled(ax, llx, n * kEps * norm_inf(a) * inf_norm(x));
}

double qr_residual(const ConstMatrixView& a, const ConstMatrixView& qr,
                   const std::vector<double>& tau, std::uint64_t seed) {
  const std::vector<double> x = random_vector(a.cols(), seed);
  std::vector<double> qtax = matvec(a, x);
  hetgrid::qr_apply_qt(qr, tau,
                       MatrixView(qtax.data(), qtax.size(), 1, qtax.size()));
  const std::vector<double> rx = upper_matvec(qr, x);
  const double n = static_cast<double>(a.cols());
  return scaled(qtax, rx, n * kEps * norm_inf(a) * inf_norm(x));
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

std::uint64_t bits_hash(const ConstMatrixView& m) {
  std::uint64_t h = mix64(m.rows(), m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      h = mix64(h, std::bit_cast<std::uint64_t>(m(i, j)));
  return h;
}

std::uint64_t bits_hash(const std::vector<double>& v, std::uint64_t h) {
  h = mix64(h, v.size());
  for (double x : v) h = mix64(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

void fill_symmetric_dominant(MatrixView a, std::uint64_t seed) {
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, "fill_symmetric_dominant needs a square matrix");
  hetgrid::Rng rng(seed);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) off += std::abs(a(i, j));
    a(i, i) = off + 1.0;
  }
}

// ---------------------------------------------------------------------------
// Spans.

std::ptrdiff_t SpanLog::open(std::string name, std::string layer,
                             std::uint64_t id, std::ptrdiff_t parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start = now();
  s.end = s.start;
  s.parent = parent;
  s.id = id;
  spans_.push_back(std::move(s));
  return static_cast<std::ptrdiff_t>(spans_.size()) - 1;
}

void SpanLog::close(std::ptrdiff_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now();
}

void SpanLog::add(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

void SpanLog::merge(const SpanLog& other) {
  const double shift = seconds_since(origin_, other.origin_);
  const auto base = static_cast<std::ptrdiff_t>(spans_.size());
  for (Span s : other.spans_) {
    s.start += shift;
    s.end += shift;
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::vector<std::pair<std::string, double>> SpanLog::self_times() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_layer[s.layer] += uncovered_length(children[i], {s.start, s.end});
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanLog::write_json(std::ostream& os) const {
  os << "{\"clock\": \"steady, seconds from the run's origin\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"i\": " << i << ", \"name\": ";
    write_string(os, s.name);
    os << ", \"layer\": ";
    write_string(os, s.layer);
    os << ", \"start\": ";
    write_number(os, s.start);
    os << ", \"end\": ";
    write_number(os, s.end);
    os << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Host fingerprint.

namespace {

// Processors this process may run on (what nproc prints).
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const std::size_t b = s.find_first_not_of(' ');
  const std::size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint fp;
  fp.nproc = available_cpus();
  fp.cpu_model = cpu_brand();
#if defined(__x86_64__) || defined(__i386__)
  fp.avx2 = __builtin_cpu_supports("avx2");
  fp.avx512f = __builtin_cpu_supports("avx512f");
#endif
  fp.gemm_kernel = hetgrid::gemm_kernel_name();
  fp.trsm_kernel = hetgrid::trsm_kernel_name();
  fp.build_type = HETBENCH_BUILD_TYPE;
  return fp;
}

void write_json(std::ostream& os, const Fingerprint& fp) {
  os << "{\"nproc\": " << fp.nproc << ", \"cpu_model\": ";
  write_string(os, fp.cpu_model);
  os << ", \"avx2\": " << (fp.avx2 ? "true" : "false")
     << ", \"avx512f\": " << (fp.avx512f ? "true" : "false")
     << ", \"gemm_kernel\": ";
  write_string(os, fp.gemm_kernel);
  os << ", \"trsm_kernel\": ";
  write_string(os, fp.trsm_kernel);
  os << ", \"build_type\": ";
  write_string(os, fp.build_type);
  os << "}";
}

// ---------------------------------------------------------------------------
// Metrics and JSON output.

void MetricList::add(std::string name, double value, std::string unit) {
  for (const Metric& m : items_)
    HG_CHECK(m.name != name, "metric " << name << " reported twice");
  items_.push_back({std::move(name), value, std::move(unit)});
}

void MetricList::write_json(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    os << (i ? ", " : "");
    write_string(os, items_[i].name);
    os << ": {\"value\": ";
    write_number(os, items_[i].value);
    os << ", \"unit\": ";
    write_string(os, items_[i].unit);
    os << "}";
  }
  os << "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace hetbench
