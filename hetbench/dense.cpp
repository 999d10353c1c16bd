#include "dense.hpp"

#include <cmath>
#include <utility>

#include "core/heuristic.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/qr.hpp"
#include "obs/imbalance.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hetbench {

using namespace hetgrid;

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kMmm: return "mmm";
    case Kernel::kLu: return "lu";
    case Kernel::kChol: return "chol";
    case Kernel::kQr: return "qr";
  }
  return "?";
}

double kernel_flops(Kernel k, std::size_t n) {
  const double n3 = std::pow(static_cast<double>(n), 3.0);
  switch (k) {
    case Kernel::kMmm: return 2.0 * n3;
    case Kernel::kLu: return 2.0 / 3.0 * n3;
    case Kernel::kChol: return 1.0 / 3.0 * n3;
    case Kernel::kQr: return 4.0 / 3.0 * n3;
  }
  return 0.0;
}

double gemm_task_flops(Kernel k, std::size_t n, std::size_t b) {
  const std::size_t nb = n / b;
  double gemms = 0.0;  // block gemms of b x b x b, 2 b^3 flops each
  for (std::size_t step = 0; step < nb; ++step) {
    const auto m = static_cast<double>(nb - step - 1);  // trailing blocks
    switch (k) {
      case Kernel::kMmm: gemms += static_cast<double>(nb * nb); break;
      case Kernel::kLu: gemms += m * m; break;
      case Kernel::kChol: gemms += m * (m + 1.0) / 2.0; break;
      // W = V^T C and C -= V Y over (m + 1) x m blocks, Y = T^T W per
      // trailing block column.
      case Kernel::kQr: gemms += 2.0 * (m + 1.0) * m + m; break;
    }
  }
  return gemms * 2.0 * std::pow(static_cast<double>(b), 3.0);
}

namespace {

// Independent input streams from one workload seed.
std::uint64_t stream(std::uint64_t seed, std::uint64_t which) {
  return mix64(seed, which);
}

// A heterogeneous pool of p*q processors: speeds spread geometrically over
// 1..4 GF/s (the cycle-time of a processor is the seconds it needs for one
// block update, 2 b^3 flops), each jittered by up to 0.01% and the pool
// shuffled, all from the seed. The jitter makes the model makespans differ
// by seed in their last digits; a larger one would flip rebalancing
// decisions from seed to seed and make the model metrics noisy.
std::vector<double> seeded_pool(std::size_t procs, std::size_t block,
                                std::uint64_t seed) {
  Rng rng(stream(seed, 0));
  const double flops = 2.0 * std::pow(static_cast<double>(block), 3.0);
  std::vector<double> pool(procs);
  for (std::size_t i = 0; i < procs; ++i) {
    const double speed_gfs =
        std::pow(4.0, static_cast<double>(i) / static_cast<double>(procs - 1));
    pool[i] = flops / (speed_gfs * 1e9) * rng.uniform(0.9999, 1.0001);
  }
  rng.shuffle(pool);
  return pool;
}

std::uint64_t report_hash(const MpReport& r, std::uint64_t h) {
  h = bits_hash(r.clock, h);
  h = bits_hash(r.busy, h);
  return bits_hash({r.makespan, static_cast<double>(r.messages),
                    r.blocks_moved, static_cast<double>(r.rebalances),
                    static_cast<double>(r.rebalance_blocks),
                    r.factorized ? 1.0 : 0.0},
                   h);
}

double counter(MetricsRegistry& m, const char* name) {
  return static_cast<double>(m.counter(name).value());
}

// The set-up allocation solve, timed.
HeuristicResult solve_timed(const DenseConfig& c, std::uint64_t seed,
                            double& us) {
  const std::vector<double> pool =
      seeded_pool(kGridSide * kGridSide, c.block, seed);
  const auto t0 = Clock::now();
  HeuristicResult h = solve_heuristic(kGridSide, kGridSide, pool);
  us = seconds_since(t0, Clock::now()) * 1e6;
  return h;
}

// Switched links: 100 us start-up, 2.5 GB/s per link.
NetworkModel switched_network(std::size_t block) {
  const double block_bytes = 8.0 * static_cast<double>(block * block);
  return NetworkModel{Topology::kSwitched, 1e-4, block_bytes / 2.5e9, true};
}

}  // namespace

DenseWorkload::DenseWorkload(const DenseConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      heuristic_(solve_timed(config, seed, heuristic_us_)),
      machine_{heuristic_.final().grid, switched_network(config.block)},
      // Panels of 8 x 8 block slots: one period at block 256, four at 64.
      dist_(PanelDistribution::from_allocation(
          heuristic_.final().grid, heuristic_.final().alloc, 8, 8,
          PanelOrder::kContiguous, PanelOrder::kInterleaved, "heuristic")) {
  const std::size_t n = kN, b = config.block, p = kGridSide;
  const std::size_t nb = n / b;

  opts_.threads = config.threads;
  // The one place the scheduler is chosen.
  opts_.scheduler = RuntimeOptions::Scheduler::kDag;
  if (config.drift) {
    std::vector<std::size_t> row0;
    for (std::size_t j = 0; j < p; ++j) row0.push_back(j);
    opts_.trace = CycleTimeTrace::straggler(row0, 4.0, nb / 4);
    opts_.rebalance = RuntimeOptions::Rebalance::kPanel;
  }

  a_mmm_ = Matrix(n, n);
  b_mmm_ = Matrix(n, n);
  a_lu_ = Matrix(n, n);
  a_chol_ = Matrix(n, n);
  a_qr_ = Matrix(n, n);
  out_ = Matrix(n, n);
  Rng ra(stream(seed, 1)), rb(stream(seed, 2)), rl(stream(seed, 3)),
      rq(stream(seed, 5));
  fill_random(a_mmm_.view(), ra);
  fill_random(b_mmm_.view(), rb);
  fill_diagonally_dominant(a_lu_.view(), rl);
  fill_symmetric_dominant(a_chol_.view(), stream(seed, 4));
  fill_random(a_qr_.view(), rq);
}

double DenseWorkload::true_cycle_time(std::size_t proc) const {
  const std::size_t q = machine_.grid.cols();
  const std::size_t last_step = kN / config_.block - 1;
  const double t = machine_.grid(proc / q, proc % q);
  return opts_.trace.empty() ? t : t * opts_.trace.factor(proc, last_step);
}

KernelOutcome DenseWorkload::run(Kernel k, KernelTrace* trace) {
  const std::size_t b = config_.block;
  switch (k) {
    case Kernel::kMmm: break;  // run_mp_mmm zeroes C itself
    case Kernel::kLu: out_ = a_lu_; break;
    case Kernel::kChol: out_ = a_chol_; break;
    case Kernel::kQr: out_ = a_qr_; break;
  }

  RunObservation obs(opts_.estimator);
  MetricsRegistry reg;
  RunObservation* prev_obs = nullptr;
  MetricsRegistry* prev_reg = nullptr;
  if (trace != nullptr) {
    prev_obs = install_observation(&obs);
    prev_reg = install_metrics(&reg);
  }

  KernelOutcome out;
  std::vector<double> tau;
  const auto t0 = Clock::now();
  out.start = t0;
  switch (k) {
    case Kernel::kMmm:
      out.report = run_mp_mmm(machine_, dist_, a_mmm_.view(), b_mmm_.view(),
                              out_.view(), b, {}, nullptr, opts_);
      break;
    case Kernel::kLu:
      out.report =
          run_mp_lu(machine_, dist_, out_.view(), b, {}, false, nullptr, opts_);
      break;
    case Kernel::kChol:
      out.report =
          run_mp_cholesky(machine_, dist_, out_.view(), b, {}, nullptr, opts_);
      break;
    case Kernel::kQr: {
      MpQrReport qr =
          run_mp_qr(machine_, dist_, out_.view(), b, {}, nullptr, opts_);
      tau = std::move(qr.tau);
      out.report = std::move(qr);
      break;
    }
  }
  out.wall_s = seconds_since(t0, Clock::now());

  if (trace != nullptr) {
    install_metrics(prev_reg);
    install_observation(prev_obs);
    trace->tasks = obs.tasks;
    trace->dag_tasks = counter(reg, "dag.tasks");
    trace->dag_edges = counter(reg, "dag.edges");
    trace->critical_path = reg.gauge("dag.critical_path").last();
    trace->host_syncs = counter(reg, "mp.barriers");
    trace->steals = counter(reg, "pool.steals");
    trace->pool_tasks = counter(reg, "pool.tasks_submitted");
    trace->pack_hits = counter(reg, "gemm.pack_hits");
    trace->pack_misses = counter(reg, "gemm.pack_misses");
    trace->pack_evictions = counter(reg, "gemm.pack_evictions");
    trace->rebalance_bytes = counter(reg, "rebalance.bytes_moved");
    trace->wait_buckets = reg.histogram("pool.task_wait_us").buckets();
    trace->estimates = obs.estimator.estimates();
  }

  const std::uint64_t xseed = stream(seed_, 10 + static_cast<std::uint64_t>(k));
  switch (k) {
    case Kernel::kMmm:
      out.residual = mmm_residual(a_mmm_.view(), b_mmm_.view(), out_.view(), xseed);
      break;
    case Kernel::kLu:
      out.residual = lu_residual(a_lu_.view(), out_.view(), xseed);
      break;
    case Kernel::kChol:
      out.residual = cholesky_residual(a_chol_.view(), out_.view(), xseed);
      break;
    case Kernel::kQr:
      out.residual = qr_residual(a_qr_.view(), out_.view(), tau, xseed);
      break;
  }
  out.ok = out.report.factorized && out.residual <= kResidualLimit;
  out.bits = report_hash(out.report, bits_hash(tau, bits_hash(out_.view())));
  return out;
}

double DenseWorkload::probe_gemm_tile(double seconds) const {
  const std::size_t b = config_.block;
  const ConstMatrixView a = a_mmm_.block(0, 0, b, b);
  const ConstMatrixView bb = b_mmm_.block(0, 0, b, b);
  Matrix c(b, b);
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    gemm(Trans::No, Trans::No, 1.0, a, bb, 0.0, c.view());
    ++reps;
    elapsed = seconds_since(t0, Clock::now());
  } while (elapsed < seconds);
  return static_cast<double>(reps) * 2.0 *
         std::pow(static_cast<double>(b), 3.0) / elapsed / 1e9;
}

std::pair<double, double> DenseWorkload::probe_gemm_1t() {
  // The runtime's own overhead: static machine, no rebalancing, 1 thread.
  RuntimeOptions one;
  one.threads = 1;
  one.scheduler = opts_.scheduler;
  const auto t0 = Clock::now();
  run_mp_mmm(machine_, dist_, a_mmm_.view(), b_mmm_.view(), out_.view(),
             config_.block, {}, nullptr, one);
  const auto t1 = Clock::now();
  gemm(Trans::No, Trans::No, 1.0, a_mmm_.view(), b_mmm_.view(), 0.0,
       out_.view());
  const auto t2 = Clock::now();
  return {seconds_since(t0, t1), seconds_since(t1, t2)};
}

std::array<double, 3> DenseWorkload::probe_panels() const {
  const std::size_t n = kN, b = config_.block;
  std::array<double, 3> total = {0.0, 0.0, 0.0};
  for (std::size_t k = 0; k * b < n; ++k) {
    const std::size_t off = k * b, rows = n - off;
    Matrix panel(rows, b);
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < rows; ++i)
        panel(i, j) = a_qr_(off + i, off + j);
    Matrix lu_diag(b, b), chol_diag(b, b);
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < b; ++i) {
        lu_diag(i, j) = a_lu_(off + i, off + j);
        chol_diag(i, j) = a_chol_(off + i, off + j);
      }
    const auto t0 = Clock::now();
    const QrResult qr = qr_factor(panel.view());
    const Matrix t = qr_form_t(panel.view(), qr.tau);
    const auto t1 = Clock::now();
    const bool lu_ok = lu_factor_nopivot(lu_diag.view());
    const auto t2 = Clock::now();
    const bool chol_ok = cholesky_factor_unblocked(chol_diag.view());
    const auto t3 = Clock::now();
    HG_CHECK(lu_ok && chol_ok && t.rows() == b,
             "panel probe inputs must factor");
    total[0] += seconds_since(t0, t1);
    total[1] += seconds_since(t1, t2);
    total[2] += seconds_since(t2, t3);
  }
  return total;
}

}  // namespace hetbench
