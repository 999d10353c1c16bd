// Helpers shared by the hetbench workloads: sample statistics, interval
// unions, open-loop request accounting, randomized residual checks, the
// in-memory span log of the traced run, the host fingerprint, and the
// metric list printed as the result line. None of this touches the
// library's internals; the benchmark measures every layer from outside.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "matrix/matrix.hpp"

namespace hetbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Sample statistics.

/// Nearest-rank percentile of `sorted` (ascending): the ceil(q * n)-th
/// smallest sample. Requires a non-empty sample and q in (0, 1].
double percentile(const std::vector<double>& sorted, double q);

/// How many samples lie strictly beyond the nearest-rank q-percentile.
std::size_t samples_beyond(std::size_t n, double q);

/// Highest quantile of {0.5, 0.9, 0.99, 0.999, 0.9999} with at least
/// `min_beyond` samples beyond it, or 0 when even the median has fewer.
double highest_supported_quantile(std::size_t n, std::size_t min_beyond = 10);

/// A timing as the benchmark reports it: the median, the highest
/// percentile that has at least ten samples beyond it (tail_q = 0 when the
/// sample is too small for any), and the sample count.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};
Summary summarize(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Interval unions (util.host_serial_s: wall not covered by any task).

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Measure of the union of `intervals`; empty or inverted ones count 0.
double union_length(std::vector<Interval> intervals);

/// Measure of the part of [window.start, window.end] that no interval
/// covers.
double uncovered_length(std::vector<Interval> intervals, Interval window);

// ---------------------------------------------------------------------------
// Open-loop request accounting. Every request has a due time on the
// generator's schedule; it is sent when its generator thread gets to it
// and done when the reply has been read. Latency counts from the due time,
// so a stall delays every request queued behind it; lag is how late the
// generator itself ran.

struct RequestTiming {
  double due = 0.0;   // seconds since the phase origin
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;    // reply decoded and passed the checks
};

/// Latency in microseconds from due to done. A failed request counts as
/// missing any latency limit: it reads +infinity.
double latency_us(const RequestTiming& r);
double lag_us(const RequestTiming& r);

/// True when the generator fell behind for good on one rung: more than
/// max(1, share * n) of the rung's requests were still unsent when its
/// last request came due.
bool backlog_grew(const std::vector<RequestTiming>& rung, double share = 0.01);

/// One rung of a fixed rate ladder, its samples pooled over the run.
struct RungStats {
  double achieved = 0.0;  // requests sent / seconds the rung ran
  double p99_us = 0.0;    // latency from due
  bool backlog_grew = false;
  bool failed = false;    // some request failed its check
};

/// Highest rate the ladder (ascending) sustains with p99 within `limit_us`,
/// no failed request and no growing backlog. Between the last rung that
/// does and the first that does not, the p99 limit is interpolated
/// log-linearly in p99, so the result moves smoothly with the tail instead
/// of jumping a whole rung. 0 when the first rung already fails; the top
/// rung's achieved rate when every rung passes.
double max_sustained_rate(const std::vector<RungStats>& ladder,
                          double limit_us);

// ---------------------------------------------------------------------------
// Randomized O(n^2) residual checks. Each returns the scaled residual
// ||lhs x - rhs x||_inf / (n * eps * ||A||_inf * ||x||_inf) for a random
// vector x; a correct factorization reads O(1). kResidualLimit is the
// LAPACK test-suite threshold.

inline constexpr double kResidualLimit = 30.0;

/// C = A * B: compares C x with A (B x).
double mmm_residual(const hetgrid::ConstMatrixView& a,
                    const hetgrid::ConstMatrixView& b,
                    const hetgrid::ConstMatrixView& c, std::uint64_t seed);

/// Unpivoted LU packed in `lu` (unit L below, U on and above the
/// diagonal): compares A x with L (U x).
double lu_residual(const hetgrid::ConstMatrixView& a,
                   const hetgrid::ConstMatrixView& lu, std::uint64_t seed);

/// Cholesky factor L in the lower triangle of `l`: compares A x with
/// L (L^T x).
double cholesky_residual(const hetgrid::ConstMatrixView& a,
                         const hetgrid::ConstMatrixView& l,
                         std::uint64_t seed);

/// Householder QR as qr_factor leaves it: compares Q^T (A x), through
/// qr_apply_qt, with R x.
double qr_residual(const hetgrid::ConstMatrixView& a,
                   const hetgrid::ConstMatrixView& qr,
                   const std::vector<double>& tau, std::uint64_t seed);

/// One step of a 64-bit hash: folds `v` into `h` (bit hashes, seed
/// streams, sampling decisions).
std::uint64_t mix64(std::uint64_t h, std::uint64_t v);

/// 64-bit hash of the bit patterns of every entry (bit-identity checks).
std::uint64_t bits_hash(const hetgrid::ConstMatrixView& m);
std::uint64_t bits_hash(const std::vector<double>& v,
                        std::uint64_t h = 0x9e3779b97f4a7c15ULL);

/// Symmetric, strictly diagonally dominant matrix with a positive
/// diagonal, hence SPD; O(n^2), unlike the library's O(n^3) fill_spd.
void fill_symmetric_dominant(hetgrid::MatrixView a, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Spans of the traced run: one per benchmark call into a layer, kept in
// memory and written out at the end.

struct Span {
  std::string name;    // the called function, e.g. "run_mp_lu"
  std::string layer;   // matrix, util, mp, core, obs, serve, bench
  double start = 0.0;  // seconds since the log's origin
  double end = 0.0;
  std::ptrdiff_t parent = -1;  // index of the enclosing span, -1 for roots
  std::uint64_t id = 0;        // pass or request id
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double now() const { return seconds_since(origin_, Clock::now()); }

  /// Opens a span and returns its index (-1 when disabled).
  std::ptrdiff_t open(std::string name, std::string layer, std::uint64_t id,
                      std::ptrdiff_t parent = -1);
  void close(std::ptrdiff_t index);
  /// Records a finished span with explicit times.
  void add(Span span);
  /// Appends another log's spans (re-indexing their parents).
  void merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  Clock::time_point origin() const { return origin_; }
  void set_origin(Clock::time_point t) { origin_ = t; }

  /// Per layer: sum over its spans of duration minus the part covered by
  /// the span's children.
  std::vector<std::pair<std::string, double>> self_times() const;

  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Host fingerprint: results from different fingerprints are not
// comparable (compare.py refuses them).

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  bool avx512f = false;
  std::string gemm_kernel;
  std::string trsm_kernel;
  std::string build_type;
};
Fingerprint host_fingerprint();
void write_json(std::ostream& os, const Fingerprint& fp);

// ---------------------------------------------------------------------------
// Metrics of one run, in insertion order.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& items() const { return items_; }
  /// {"name": {"value": v, "unit": u}, ...}, every digit of each value.
  void write_json(std::ostream& os) const;

 private:
  std::vector<Metric> items_;
};

/// Peak resident set of this process in MB (ru_maxrss).
double peak_rss_mb();

/// Writes a double with 17 significant digits (JSON has no inf/nan: those
/// are written as null).
void write_number(std::ostream& os, double v);
void write_string(std::ostream& os, const std::string& s);

}  // namespace hetbench
