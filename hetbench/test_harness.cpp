// Tests of the benchmark's own helpers: the interval union behind
// util.host_serial_s, the "at least ten samples beyond" percentile rule,
// due-time latency and backlog accounting, and the residual checks,
// including must-fire cases where a perturbed factor has to fail.
//
//   .bench_build/hetbench/test_harness   (exit code 0 = all passed)
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "harness.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/qr.hpp"
#include "util/rng.hpp"

namespace {

using namespace hetbench;
using hetgrid::Matrix;

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::cerr << __FILE__ << ":" << __LINE__ << ": " #cond "\n";    \
    }                                                                 \
  } while (0)

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void interval_union() {
  EXPECT(union_length({}) == 0.0);
  EXPECT(near(union_length({{0, 1}, {2, 3}}), 2.0));
  EXPECT(near(union_length({{0, 2}, {1, 3}}), 3.0));           // overlap
  EXPECT(near(union_length({{0, 4}, {1, 2}}), 4.0));           // nested
  EXPECT(near(union_length({{2, 3}, {0, 1}, {1, 2}}), 3.0));   // unsorted, touching
  EXPECT(near(union_length({{1, 1}, {3, 2}}), 0.0));           // empty, inverted
  // Host-serial time: a 10 s call whose tasks cover [1, 4] and [3, 6].
  EXPECT(near(uncovered_length({{1, 4}, {3, 6}}, {0, 10}), 5.0));
  // Intervals are clipped to the window.
  EXPECT(near(uncovered_length({{-5, 2}, {8, 20}}, {0, 10}), 6.0));
  EXPECT(near(uncovered_length({}, {0, 10}), 10.0));
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile(v, 0.5) == 50.0);
  EXPECT(percentile(v, 0.99) == 99.0);
  EXPECT(percentile(v, 1.0) == 100.0);
  EXPECT(samples_beyond(100, 0.9) == 10);
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(999, 0.99) == 9);
  // p90 of 100 samples has exactly 10 beyond it; p99 only 1.
  EXPECT(highest_supported_quantile(100) == 0.9);
  EXPECT(highest_supported_quantile(99) == 0.5);
  EXPECT(highest_supported_quantile(1000) == 0.99);
  EXPECT(highest_supported_quantile(10000) == 0.999);
  EXPECT(highest_supported_quantile(19) == 0.0);
  EXPECT(highest_supported_quantile(20) == 0.5);
  const Summary s = summarize(v);
  EXPECT(s.count == 100 && s.median == 50.0 && s.tail_q == 0.9 &&
         s.tail == 90.0);
  EXPECT(summarize({3.0, 1.0, 2.0}).tail_q == 0.0);
}

void due_time_latency() {
  // Sent 3 ms late because the generator was stuck behind a slow reply:
  // the latency counts the wait from the due time.
  RequestTiming r{1.000, 1.003, 1.004, true};
  EXPECT(near(latency_us(r), 4000.0));
  EXPECT(near(lag_us(r), 3000.0));
  r.ok = false;  // a failed request misses every latency limit
  EXPECT(latency_us(r) == std::numeric_limits<double>::infinity());

  // 200 requests due every ms. Kept up: each sent right when due.
  std::vector<RequestTiming> steady, behind;
  for (int i = 0; i < 200; ++i) {
    const double due = i * 1e-3;
    steady.push_back({due, due + 2e-5, due + 5e-5, true});
    // Falls behind by 0.5 ms per request: half the rung unsent at the end.
    behind.push_back({due, due + i * 5e-4, due + i * 5e-4 + 1e-4, true});
  }
  EXPECT(!backlog_grew(steady));
  EXPECT(backlog_grew(behind));
}

void ladder_rate() {
  auto rung = [](double rate, double p99, bool grew = false) {
    RungStats r;
    r.achieved = rate;
    r.p99_us = p99;
    r.backlog_grew = grew;
    return r;
  };
  const double limit = 10'000;
  EXPECT(max_sustained_rate({}, limit) == 0.0);
  EXPECT(max_sustained_rate({rung(1000, 20'000)}, limit) == 0.0);
  EXPECT(max_sustained_rate({rung(1000, 2'000), rung(2000, 5'000)}, limit) ==
         2000.0);
  // p99 1 ms at 1000 req/s, 100 ms at 2000: 10 ms sits halfway in log p99.
  EXPECT(near(max_sustained_rate({rung(1000, 1'000), rung(2000, 100'000),
                                  rung(3000, 200'000)},
                                 limit),
              1500.0));
  // A rung lost to its backlog ends the ladder at the rung below.
  EXPECT(max_sustained_rate({rung(1000, 1'000), rung(2000, 5'000, true)},
                            limit) == 1000.0);
  RungStats bad = rung(2000, 1'000);
  bad.failed = true;
  EXPECT(max_sustained_rate({rung(1000, 1'000), bad}, limit) == 1000.0);
}

void residual_checks() {
  const std::size_t n = 96, b = 32;
  hetgrid::Rng rng(7);
  Matrix a(n, n), bm(n, n), c(n, n);
  hetgrid::fill_random(a.view(), rng);
  hetgrid::fill_random(bm.view(), rng);
  hetgrid::gemm(hetgrid::Trans::No, hetgrid::Trans::No, 1.0, a.view(),
                bm.view(), 0.0, c.view());
  EXPECT(mmm_residual(a.view(), bm.view(), c.view(), 1) < kResidualLimit);
  c(5, 7) += 1e-6;  // must fire
  EXPECT(mmm_residual(a.view(), bm.view(), c.view(), 1) > kResidualLimit);

  Matrix lu_in(n, n);
  hetgrid::fill_diagonally_dominant(lu_in.view(), rng);
  Matrix lu = lu_in;
  EXPECT(hetgrid::lu_factor_nopivot(lu.view()));
  EXPECT(lu_residual(lu_in.view(), lu.view(), 2) < kResidualLimit);
  lu(40, 3) *= 1.0 + 1e-9;  // must fire
  EXPECT(lu_residual(lu_in.view(), lu.view(), 2) > kResidualLimit);

  Matrix spd(n, n);
  fill_symmetric_dominant(spd.view(), 3);
  Matrix l = spd;
  EXPECT(hetgrid::cholesky_factor_blocked(l.view(), b));
  EXPECT(cholesky_residual(spd.view(), l.view(), 3) < kResidualLimit);
  l(60, 59) += 1e-9;  // must fire
  EXPECT(cholesky_residual(spd.view(), l.view(), 3) > kResidualLimit);

  Matrix qr_in(n, n);
  hetgrid::fill_random(qr_in.view(), rng);
  Matrix qr = qr_in;
  const hetgrid::QrResult res = hetgrid::qr_factor(qr.view());
  EXPECT(qr_residual(qr_in.view(), qr.view(), res.tau, 4) < kResidualLimit);
  std::vector<double> bad_tau = res.tau;
  bad_tau[10] *= 1.0 + 1e-6;  // must fire
  EXPECT(qr_residual(qr_in.view(), qr.view(), bad_tau, 4) > kResidualLimit);
  qr(2, 50) = std::numeric_limits<double>::quiet_NaN();  // NaN must fail
  EXPECT(qr_residual(qr_in.view(), qr.view(), res.tau, 4) > kResidualLimit);
}

void bit_hash() {
  Matrix a(8, 8, 1.0), b(8, 8, 1.0);
  EXPECT(bits_hash(a.view()) == bits_hash(b.view()));
  b(3, 3) = -0.0 + 1.0000000000000002;  // one ulp
  EXPECT(bits_hash(a.view()) != bits_hash(b.view()));
  EXPECT(bits_hash(std::vector<double>{0.0}) !=
         bits_hash(std::vector<double>{-0.0}));
}

void span_self_times() {
  SpanLog log(true);
  log.add({"pass", "bench", 0.0, 10.0, -1, 0});
  log.add({"run_mp_lu", "mp", 1.0, 9.0, 0, 0});
  log.add({"mp.gemm", "matrix", 2.0, 5.0, 1, 0});
  log.add({"mp.gemm", "matrix", 4.0, 6.0, 1, 0});
  log.add({"mp.copy", "mp", 7.0, 8.0, 1, 0});
  double bench = -1, mp = -1, matrix = -1;
  for (const auto& [layer, self] : log.self_times()) {
    if (layer == "bench") bench = self;
    if (layer == "mp") mp = self;
    if (layer == "matrix") matrix = self;
  }
  EXPECT(near(bench, 2.0));   // 10 s minus the 8 s call
  EXPECT(near(mp, 3.0 + 1.0));  // call minus [2, 6] and [7, 8], plus the copy
  EXPECT(near(matrix, 5.0));  // task durations, overlapping tasks each count
  SpanLog off(false);
  EXPECT(off.open("x", "bench", 0) == -1 && off.spans().empty());
}

}  // namespace

int main() {
  interval_union();
  percentile_rule();
  due_time_latency();
  ladder_rate();
  residual_checks();
  bit_hash();
  span_self_times();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all harness tests passed\n";
  return 0;
}
