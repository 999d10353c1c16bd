// GFLOP/s harness for the local gemm microkernels (EXPERIMENTS.md §13):
// times C += A*B at sizes where the memory hierarchy actually bites
// (default n = 2048, well past every cache level) for each available
// microkernel (scalar, avx2) and a threaded configuration, and reports
// achieved GFLOP/s (2*n^3 flops over the best-of-reps wall clock).
//
// The dispatch contract is enforced, not just reported: every
// configuration's output matrix must match the serial scalar-kernel run
// bit for bit (the SIMD kernel uses separate mul+add vectors — never FMA —
// precisely so kernel choice can never change a computed bit, and the
// threaded overload assigns every output column to exactly one stripe).
//
// A second set of rows times the block-sized call the distributed runtimes
// make once per owned block at r = 64: 4096 back-to-back 64 x 64 x 64
// C += A*B calls on standalone blocks, one row per kernel (n = 64 in the
// JSON, with a `calls` field), checked bit for bit against the scalar
// kernel the same way. These rows are always best of at least 3 reps: a
// row takes well under a second, and CI gates them together with the
// n = 2048 rows (tools/ci.sh).
//
// --smoke keeps n at the full 2048 (a smaller n would measure cache
// residency, not the kernel) but drops to one rep and the {scalar@1,
// avx2@1, avx2@2} configurations for CI.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "matrix/gemm.hpp"
#include "matrix/norms.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hetgrid;

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

struct Config {
  std::string kernel;  // "scalar" or "avx2"
  unsigned threads;    // 1 = serial overload, >1 = ThreadPool stripes
};

// Best wall clock, in ms, of `reps` timed calls of `run`, with `c` reset
// from `c0` before each.
template <class Run>
double best_ms_of(int reps, const Matrix& c0, Matrix& c, const Run& run) {
  double best_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    c.view().copy_from(c0.view());
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  Cli cli(argc, argv,
          {{"n", "2048"}, {"reps", "3"}, {"threads", "1,2,4"},
           {"seed", "29"}, {"smoke", "0"}, {"csv", "0"},
           {"json", "BENCH_gemm.json"}});
  bench::print_header("Gemm microkernel throughput", cli);

  const bool smoke = cli.get_bool("smoke");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const int reps = smoke ? 1 : static_cast<int>(cli.get_int("reps"));
  HG_CHECK(n >= 1, "--n must be positive");

  const bool have_avx2 = gemm_force_kernel("avx2");
  gemm_force_kernel("auto");
  std::cout << "n = " << n << ", detected kernel: " << gemm_kernel_name()
            << (have_avx2 ? "" : " (avx2 unavailable — scalar rows only)")
            << "\n\n";

  // The serial scalar run is the bit-identity reference, so it always runs
  // first. Additional configurations: the SIMD kernel serial, then the
  // auto-dispatched kernel through the threaded-stripe overload.
  std::vector<Config> configs{{"scalar", 1}};
  if (have_avx2) configs.push_back({"avx2", 1});
  if (smoke) {
    if (have_avx2) configs.push_back({"avx2", 2});
  } else {
    for (double v : parse_positive_list(cli.get_string("threads"))) {
      const auto t = static_cast<unsigned>(v);
      if (t > 1) configs.push_back({have_avx2 ? "avx2" : "scalar", t});
    }
  }

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  Matrix a(n, n), b(n, n), c0(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c0.view(), rng);

  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(n) * static_cast<double>(n);

  Table table;
  table.header({"kernel", "threads", "ms", "gflops", "identical"});
  bench::JsonReport json("bench_gemm_kernel", cli);

  Matrix ref(n, n);
  Matrix c(n, n);
  for (std::size_t idx = 0; idx < configs.size(); ++idx) {
    const Config& cfg = configs[idx];
    HG_CHECK(gemm_force_kernel(cfg.kernel),
             "kernel unavailable: " << cfg.kernel);
    const double best_ms = best_ms_of(reps, c0, c, [&] {
      if (cfg.threads == 1) {
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view());
      } else {
        ThreadPool pool(cfg.threads);
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view(),
             pool);
      }
    });
    if (idx == 0) ref.view().copy_from(c.view());
    const bool identical = same_bits(c.view(), ref.view());
    HG_INTERNAL_CHECK(identical, cfg.kernel << " @ " << cfg.threads
                                            << " threads diverged from the "
                                               "serial scalar kernel");
    const double gflops = best_ms > 0.0 ? flops / (best_ms * 1e6) : 0.0;
    table.row({cfg.kernel, std::to_string(cfg.threads),
               Table::num(best_ms, 2), Table::num(gflops, 2),
               identical ? "yes" : "NO"});
    json.add()
        .field("kernel", cfg.kernel)
        .field("threads", static_cast<double>(cfg.threads))
        .field("n", static_cast<double>(n))
        .field("ms", best_ms)
        .field("gflops", gflops)
        .field("identical", identical ? "yes" : "no");
  }

  // Block-sized calls: one row per kernel, serial, scalar first as the
  // bit-identity reference.
  constexpr std::size_t kBlock = 64;
  constexpr int kCalls = 4096;
  const int block_reps = std::max(reps, 3);
  Matrix ba(kBlock, kBlock), bb(kBlock, kBlock), bc0(kBlock, kBlock);
  fill_random(ba.view(), rng);
  fill_random(bb.view(), rng);
  fill_random(bc0.view(), rng);
  const double block_flops = 2.0 * kCalls * static_cast<double>(kBlock) *
                             static_cast<double>(kBlock) *
                             static_cast<double>(kBlock);
  Matrix bref(kBlock, kBlock), bc(kBlock, kBlock);
  std::vector<std::string> block_kernels{"scalar"};
  if (have_avx2) block_kernels.push_back("avx2");
  for (std::size_t idx = 0; idx < block_kernels.size(); ++idx) {
    const std::string& kernel = block_kernels[idx];
    HG_CHECK(gemm_force_kernel(kernel), "kernel unavailable: " << kernel);
    const double best_ms = best_ms_of(block_reps, bc0, bc, [&] {
      for (int call = 0; call < kCalls; ++call)
        gemm(Trans::No, Trans::No, 1.0, ba.view(), bb.view(), 1.0,
             bc.view());
    });
    if (idx == 0) bref.view().copy_from(bc.view());
    const bool identical = same_bits(bc.view(), bref.view());
    HG_INTERNAL_CHECK(identical, kernel << " block-sized calls diverged "
                                           "from the scalar kernel");
    const double gflops =
        best_ms > 0.0 ? block_flops / (best_ms * 1e6) : 0.0;
    table.row({kernel + " (64^3 x" + std::to_string(kCalls) + ")", "1",
               Table::num(best_ms, 2), Table::num(gflops, 2),
               identical ? "yes" : "NO"});
    json.add()
        .field("kernel", kernel)
        .field("threads", 1.0)
        .field("n", static_cast<double>(kBlock))
        .field("calls", static_cast<double>(kCalls))
        .field("ms", best_ms)
        .field("gflops", gflops)
        .field("identical", identical ? "yes" : "no");
  }
  gemm_force_kernel("auto");

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
