// Tests for parallel numerics: the serial/parallel bit-identity guarantee
// of the message-passing runtime (pivoted LU included), the threaded and
// packed GEMM paths, the block-store hash/pool upgrades that ride along
// with it, and the process-wide buffer pool behind the block stores.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>

#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/buffer_pool.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "mp/block_store.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- helpers

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

void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << "event " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "event " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "event " << i;
    EXPECT_EQ(a[i].step, b[i].step) << "event " << i;
    EXPECT_EQ(a[i].blocks, b[i].blocks) << "event " << i;
    EXPECT_EQ(a[i].peer, b[i].peer) << "event " << i;
    EXPECT_EQ(a[i].name, b[i].name) << "event " << i;
  }
}

void expect_same_report(const MpReport& a, const MpReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.blocks_moved, b.blocks_moved);
  EXPECT_EQ(a.factorized, b.factorized);
}

// Random heterogeneous 2x3 machine (distinct cycle-times so owner clocks
// differ and any accounting that leaked onto worker threads would show).
Machine het_machine(std::uint64_t seed, std::size_t p, std::size_t q) {
  Rng rng(seed);
  return Machine{CycleTimeGrid::sorted_row_major(p, q,
                                                 rng.cycle_times(p * q, 0.2)),
                 NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
}

constexpr unsigned kThreadCounts[] = {2, 7};

// Restores runtime kernel detection no matter how a test exits.
struct KernelGuard {
  ~KernelGuard() { gemm_force_kernel("auto"); }
};

// ----------------------------------------------------- hash regression

// The seed hash folded the column into the low bits of a row-only
// product, so structured sweeps (a block diagonal, a fixed column, a
// tagged panel) collided heavily. With the avalanche mix no sweep may
// chain more than a handful of keys into one bucket.
std::size_t longest_chain(const std::vector<BlockKey>& keys) {
  std::unordered_map<BlockKey, int, BlockKeyHash> map;
  map.reserve(keys.size());
  for (const BlockKey& k : keys) map[k] = 1;
  std::size_t worst = 0;
  for (std::size_t bkt = 0; bkt < map.bucket_count(); ++bkt)
    worst = std::max(worst, map.bucket_size(bkt));
  return worst;
}

TEST(BlockKeyHash, SpreadsDiagonalSweep) {
  std::vector<BlockKey> keys;
  for (std::size_t i = 0; i < 1024; ++i) keys.push_back({i, i});
  EXPECT_LE(longest_chain(keys), 6u);
}

TEST(BlockKeyHash, SpreadsColumnSweep) {
  std::vector<BlockKey> keys;
  for (std::size_t i = 0; i < 1024; ++i) keys.push_back({i, 7});
  EXPECT_LE(longest_chain(keys), 6u);
}

TEST(BlockKeyHash, SpreadsTaggedPanelSweep) {
  // The MP runtime keys A/B/C blocks as {tag * nb + bi, bj}: three
  // interleaved panels per step.
  std::vector<BlockKey> keys;
  const std::size_t nb = 341;
  for (std::size_t tag = 0; tag < 3; ++tag)
    for (std::size_t bi = 0; bi < nb; ++bi)
      keys.push_back({tag * nb + bi, 5});
  EXPECT_LE(longest_chain(keys), 6u);
}

// ----------------------------------------------------- block-store pool

TEST(BlockStore, AcquireRecyclesErasedPayload) {
  BlockStore s;
  Matrix m(4, 6, 1.5);
  const double* payload = m.data();
  s.put({3, 4}, std::move(m));
  s.erase({3, 4});
  EXPECT_EQ(s.pooled(), 1u);
  Matrix back = s.acquire(4, 6);
  EXPECT_EQ(back.data(), payload);  // same buffer, no allocation
  EXPECT_EQ(s.pooled(), 0u);
}

TEST(BlockStore, AcquireAllocatesOnShapeMiss) {
  BlockStore s;
  s.put({0, 0}, Matrix(4, 6, 0.0));
  s.erase({0, 0});
  const Matrix other = s.acquire(6, 4);  // transposed shape: no match
  EXPECT_EQ(other.rows(), 6u);
  EXPECT_EQ(other.cols(), 4u);
  EXPECT_EQ(s.pooled(), 1u);  // 4x6 buffer still pooled
}

TEST(BlockStore, ReservePreventsRehash) {
  std::unordered_map<BlockKey, Matrix, BlockKeyHash> probe;
  probe.reserve(256);
  const std::size_t buckets = probe.bucket_count();
  BlockStore s;
  s.reserve(256);
  for (std::size_t i = 0; i < 256; ++i) s.put({i, i}, Matrix(2, 2, 1.0));
  EXPECT_EQ(s.size(), 256u);
  // The probe map shows reserve() pre-sized the table: inserting up to the
  // reserved count must not grow the bucket array.
  for (std::size_t i = 0; i < 256; ++i) probe.emplace(BlockKey{i, i}, Matrix());
  EXPECT_EQ(probe.bucket_count(), buckets);
}

TEST(BlockStore, PoolBoundedPerShapeWithEvictionCounter) {
  // The shape pool is capacity-bounded: once a shape's shelf is full,
  // erase() frees the payload instead of pooling it and counts
  // block_store.pool_evictions — long runs cannot accumulate every
  // transient shape they ever saw.
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    BlockStore s;
    EXPECT_EQ(s.pool_capacity(), BlockStore::kDefaultPoolCapPerShape);
    s.set_pool_capacity(2);
    EXPECT_EQ(s.pool_capacity(), 2u);
    for (std::size_t i = 0; i < 5; ++i) {
      s.put({i, 0}, Matrix(4, 6, 1.0));
      s.erase({i, 0});
    }
    EXPECT_EQ(s.pooled(), 2u);  // shelf capped, not 5
    // A different shape gets its own shelf under the same cap.
    s.put({9, 0}, Matrix(6, 4, 1.0));
    s.erase({9, 0});
    EXPECT_EQ(s.pooled(), 3u);
  }
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("block_store.pool_evictions").value(), 3u);
}

// ----------------------------------------------------- process-wide buffer pool

TEST(BufferPool, TakeReturnsAGivenBufferOfTheSameSize) {
  BufferPool pool;
  std::vector<double> buf(100, 2.5);
  const double* payload = buf.data();
  pool.give(std::move(buf));
  EXPECT_EQ(pool.held_bytes(), 100 * sizeof(double));
  const std::vector<double> other = pool.take(50);  // no 50-double buffer
  EXPECT_EQ(other.size(), 50u);
  const std::vector<double> back = pool.take(100);
  EXPECT_EQ(back.data(), payload);  // same buffer, stale contents kept
  EXPECT_EQ(back[99], 2.5);
  EXPECT_EQ(pool.held_bytes(), 0u);
  const BufferPool::Stats st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.drops, 0u);
}

TEST(BufferPool, CapacityBoundsWhatIsKept) {
  BufferPool pool(150 * sizeof(double));
  pool.give(std::vector<double>(100));
  pool.give(std::vector<double>(100));  // would exceed the bound: freed
  pool.give(std::vector<double>(40));
  EXPECT_EQ(pool.held_bytes(), 140 * sizeof(double));
  EXPECT_EQ(pool.stats().drops, 1u);
  pool.clear();
  EXPECT_EQ(pool.held_bytes(), 0u);
}

TEST(BlockStore, PayloadsOutliveTheStoreInTheGlobalPool) {
  // A destroyed store hands every payload — resident blocks and its own
  // shape pool — to the global pool, and the next store's acquire() draws
  // on it: the memory of one kernel run is the next run's memory.
  BufferPool& global = BufferPool::global();
  global.clear();
  const double* resident = nullptr;
  const double* pooled = nullptr;
  {
    BlockStore s;
    Matrix a(4, 6, 1.0), b(4, 6, 2.0);
    resident = a.data();
    pooled = b.data();
    s.put({0, 0}, std::move(a));
    s.put({1, 0}, std::move(b));
    s.erase({1, 0});
    EXPECT_EQ(global.held_bytes(), 0u);
  }
  EXPECT_EQ(global.held_bytes(), 2 * 24 * sizeof(double));
  BlockStore next;
  const Matrix x = next.acquire(4, 6), y = next.acquire(4, 6);
  EXPECT_TRUE((x.data() == resident && y.data() == pooled) ||
              (x.data() == pooled && y.data() == resident));
  EXPECT_EQ(global.held_bytes(), 0u);
}

TEST(BlockStore, OverwrittenPayloadGoesToTheGlobalPool) {
  BufferPool& global = BufferPool::global();
  global.clear();
  BlockStore s;
  Matrix old(3, 3, 1.0);
  const double* payload = old.data();
  s.put({0, 0}, std::move(old));
  s.put({0, 0}, Matrix(3, 3, 2.0));
  EXPECT_EQ(s.at({0, 0})(0, 0), 2.0);
  EXPECT_EQ(global.take(9).data(), payload);
}

// ----------------------------------------------------- MP bit-identity

struct MpRun {
  MpReport report;
  Matrix out;
  std::vector<TraceEvent> events;
  std::vector<double> tau;  // QR only
};

MpRun run_mmm(const Machine& machine, const Distribution2D& dist,
              std::size_t n, std::size_t block, unsigned threads) {
  Rng rng(11);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpRun run;
  run.report = run_mp_mmm(machine, dist, a.view(), b.view(), c.view(),
                          block, {}, &sink, opts);
  run.out = std::move(c);
  run.events = sink.events();
  return run;
}

MpRun run_lu(const Machine& machine, const Distribution2D& dist,
             std::size_t n, std::size_t block, bool lookahead,
             unsigned threads) {
  Rng rng(13);
  Matrix a(n, n);
  fill_diagonally_dominant(a.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpRun run;
  run.report =
      run_mp_lu(machine, dist, a.view(), block, {}, lookahead, &sink, opts);
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

MpRun run_chol(const Machine& machine, const Distribution2D& dist,
               std::size_t n, std::size_t block, unsigned threads) {
  Rng rng(17);
  Matrix a(n, n);
  fill_spd(a.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpRun run;
  run.report =
      run_mp_cholesky(machine, dist, a.view(), block, {}, &sink, opts);
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

MpRun run_qr(const Machine& machine, const Distribution2D& dist,
             std::size_t n, std::size_t block, unsigned threads) {
  Rng rng(19);
  Matrix a(n, n);
  fill_random(a.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpQrReport report =
      run_mp_qr(machine, dist, a.view(), block, {}, &sink, opts);
  MpRun run;
  run.tau = std::move(report.tau);
  run.report = std::move(report);
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

void expect_same_run(const MpRun& serial, const MpRun& parallel) {
  expect_same_report(serial.report, parallel.report);
  EXPECT_TRUE(same_bits(serial.out.view(), parallel.out.view()));
  expect_same_events(serial.events, parallel.events);
  EXPECT_EQ(serial.tau, parallel.tau);
}

TEST(MpParallel, MmmBitIdenticalAcrossThreadCounts) {
  const Machine machine = het_machine(23, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  const MpRun serial = run_mmm(machine, dist, 28, 6, 1);  // ragged edge
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_mmm(machine, dist, 28, 6, t));
}

TEST(MpParallel, MmmMisalignedDistributionBitIdentical) {
  // Kalinov–Lastovetsky layouts exercise the feeder transfers (blocks
  // shipped to foreign ring sources before the broadcast starts).
  const Machine machine = het_machine(29, 2, 2);
  const KalinovLastovetskyDistribution dist(machine.grid, 8, 8);
  const MpRun serial = run_mmm(machine, dist, 24, 4, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_mmm(machine, dist, 24, 4, t));
}

TEST(MpParallel, LuBitIdenticalAcrossThreadCounts) {
  const Machine machine = het_machine(31, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  for (bool lookahead : {false, true}) {
    const MpRun serial = run_lu(machine, dist, 28, 6, lookahead, 1);
    for (unsigned t : kThreadCounts)
      expect_same_run(serial, run_lu(machine, dist, 28, 6, lookahead, t));
  }
}

TEST(MpParallel, CholeskyBitIdenticalAcrossThreadCounts) {
  const Machine machine = het_machine(37, 3, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(3, 2);
  const MpRun serial = run_chol(machine, dist, 28, 6, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_chol(machine, dist, 28, 6, t));
}

TEST(MpParallel, ThreadsZeroMeansAllHardwareThreads) {
  // threads = 0 resolves to hardware concurrency; still bit-identical.
  const Machine machine = het_machine(41, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  expect_same_run(run_mmm(machine, dist, 16, 4, 1),
                  run_mmm(machine, dist, 16, 4, 0));
}

TEST(MpParallel, RectangularQrBitIdenticalAcrossThreadCounts) {
  // QR is the sharp determinism case: the W partials of every trailing
  // column are reduced across grid rows, so the adds must chain in a fixed
  // order for any thread count. Tall and thin, as least squares uses it.
  const Machine machine = het_machine(59, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  RuntimeOptions opts;
  Rng rng(31);
  Matrix a1(32, 20);
  fill_random(a1.view(), rng);
  const MpQrReport r1 =
      run_mp_qr(machine, dist, a1.view(), 5, {}, nullptr, opts);
  for (unsigned t : kThreadCounts) {
    Rng rng_t(31);
    Matrix at(32, 20);
    fill_random(at.view(), rng_t);
    opts.threads = t;
    const MpQrReport rt =
        run_mp_qr(machine, dist, at.view(), 5, {}, nullptr, opts);
    expect_same_report(r1, rt);
    EXPECT_EQ(r1.tau, rt.tau);
    EXPECT_TRUE(same_bits(a1.view(), at.view()));
  }
}

// ----------------------------------------------------- pivoted LU

// run_mp_lu_pivoted against lu_factor_blocked, bit for bit in both the
// factors and the pivots: every (n, block) shape x threads {1, 2, 7} x
// {scalar, avx2} x {static, planted 4x straggler with panel rebalancing}.
// The straggler is grid column 0, which makes the rebalancer move block
// rows as well as columns, so later row swaps reach finished columns whose
// blocks stayed with their old owners.
TEST(MpPivotedLu, BitIdenticalToBlockedLu) {
  KernelGuard guard;
  const Machine machine = het_machine(53, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {48, 4}, {48, 6}, {512, 64}};
  for (const auto& [n, block] : shapes) {
    Rng rng(29 + n + block);
    Matrix orig(n, n);
    fill_random(orig.view(), rng);  // general matrix: pivoting required
    Matrix want = orig;
    const LuResult ref = lu_factor_blocked(want.view(), block);
    ASSERT_FALSE(ref.singular);
    for (const char* kernel : {"scalar", "avx2"}) {
      if (!gemm_force_kernel(kernel)) continue;  // host lacks AVX2
      for (unsigned threads : {1u, 2u, 7u}) {
        for (const bool rebalance : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " block=" << block << " " << kernel
                       << " threads=" << threads
                       << " rebalance=" << rebalance);
          RuntimeOptions opts;
          opts.threads = threads;
          if (rebalance) {
            opts.rebalance = RuntimeOptions::Rebalance::kPanel;
            opts.trace = CycleTimeTrace::straggler({0, 2}, 4.0, 0);
            opts.estimator.alpha = 1.0;
            opts.estimator.min_samples = 1;
          }
          Matrix got = orig;
          const MpPivotedLuReport rep = run_mp_lu_pivoted(
              machine, dist, got.view(), block, {}, nullptr, opts);
          EXPECT_FALSE(rep.singular);
          EXPECT_EQ(rep.piv, ref.piv);
          EXPECT_TRUE(same_bits(got.view(), want.view()));
          if (rebalance && n == 48) {
            EXPECT_GE(rep.rebalances, 1u);
          }
        }
      }
    }
  }
}

TEST(MpPivotedLu, ReportAndTraceBitIdenticalAcrossThreadCounts) {
  const Machine machine = het_machine(61, 2, 3);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 3);
  auto run = [&](unsigned threads) {
    Rng rng(37);
    Matrix a(30, 30);
    fill_random(a.view(), rng);
    MemoryTraceSink sink;
    RuntimeOptions opts;
    opts.threads = threads;
    MpPivotedLuReport rep =
        run_mp_lu_pivoted(machine, dist, a.view(), 6, {}, &sink, opts);
    return std::make_tuple(std::move(rep), std::move(a), sink.events());
  };
  const auto [r1, a1, e1] = run(1);
  for (unsigned t : kThreadCounts) {
    const auto [rt, at, et] = run(t);
    expect_same_report(r1, rt);
    EXPECT_EQ(r1.piv, rt.piv);
    EXPECT_TRUE(same_bits(a1.view(), at.view()));
    expect_same_events(e1, et);
  }
}

// ----------------------------------------------------- gemm paths

TEST(GemmParallel, ThreadedOverloadBitIdenticalToSerial) {
  Rng rng(67);
  Matrix a(96, 80), b(80, 300), c0(96, 300), c1(96, 300);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c0.view(), rng);
  c1.view().copy_from(c0.view());
  gemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.5, c0.view());
  ThreadPool pool(3);
  gemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.5, c1.view(), pool);
  EXPECT_TRUE(same_bits(c0.view(), c1.view()));
}

TEST(GemmParallel, ThreadedOverloadOneWorkerFallsBack) {
  Rng rng(71);
  Matrix a(20, 20), b(20, 20), c0(20, 20, 0.0), c1(20, 20, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c0.view());
  ThreadPool pool(1);
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c1.view(), pool);
  EXPECT_TRUE(same_bits(c0.view(), c1.view()));
}

TEST(GemmParallel, PackedLargePathMatchesReference) {
  // 200 x 150 from an inner dimension of 170 exceeds the 64 x 64 tile, so
  // the packed path runs; validate against the naive reference.
  Rng rng(73);
  Matrix a(200, 170), b(170, 150), c(200, 150), ref(200, 150);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c.view(), rng);
  ref.view().copy_from(c.view());
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5, c.view());
  gemm_reference(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-9);
}

TEST(GemmParallel, ThreadedTransposedOperandsBitIdentical) {
  Rng rng(79);
  Matrix a(60, 90), b(280, 60), c0(90, 280, 1.0), c1(90, 280, 1.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  gemm(Trans::Yes, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c0.view());
  ThreadPool pool(4);
  gemm(Trans::Yes, Trans::Yes, -1.0, a.view(), b.view(), 1.0, c1.view(),
       pool);
  EXPECT_TRUE(same_bits(c0.view(), c1.view()));
}

TEST(GemmParallel, ThreadedAllTransposeCombosMatchReference) {
  // Every (trans_a, trans_b) combination through the threaded-stripe
  // overload, wide enough (n = 300) that the pool actually splits
  // stripes: must match the naive reference numerically and the serial
  // overload bit-for-bit.
  Rng rng(83);
  const std::size_t m = 70, n = 300, k = 90;
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Matrix a(ta == Trans::No ? m : k, ta == Trans::No ? k : m);
      Matrix b(tb == Trans::No ? k : n, tb == Trans::No ? n : k);
      Matrix c(m, n), c_serial(m, n), c_ref(m, n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      fill_random(c.view(), rng);
      c_serial.view().copy_from(c.view());
      c_ref.view().copy_from(c.view());
      ThreadPool pool(3);
      gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c.view(), pool);
      gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c_serial.view());
      gemm_reference(ta, tb, 1.5, a.view(), b.view(), -0.5, c_ref.view());
      EXPECT_TRUE(same_bits(c.view(), c_serial.view()))
          << "ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes);
      EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-11 * k)
          << "ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes);
    }
  }
}

// ----------------------------------------------------- kernel dispatch

TEST(GemmKernel, DispatchReportsAKnownKernel) {
  KernelGuard guard;
  const std::string name = gemm_kernel_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
  EXPECT_FALSE(gemm_force_kernel("avx512-dreams"));
  EXPECT_TRUE(gemm_force_kernel("scalar"));
  EXPECT_STREQ(gemm_kernel_name(), "scalar");
  EXPECT_TRUE(gemm_force_kernel("auto"));
  EXPECT_EQ(gemm_kernel_name(), name);
}

TEST(GemmKernel, ScalarAndAvx2BitIdentical) {
  // The dispatch contract: kernel choice can never change a computed bit.
  // The AVX2 kernel vectorizes across rows with separate mul+add (no FMA),
  // so each C element keeps the scalar kernel's rounding sequence exactly.
  KernelGuard guard;
  if (!gemm_force_kernel("avx2")) GTEST_SKIP() << "host lacks AVX2";
  Rng rng(89);
  // Ragged shapes exercise the 8x4 register core plus its row tail (137 =
  // 17*8 + 1), column tail (211 = 52*4 + 3), and partial packs.
  const std::size_t m = 137, n = 211, k = 93;
  Matrix a(m, k), b(k, n), c_simd(m, n), c_scalar(m, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c_simd.view(), rng);
  c_scalar.view().copy_from(c_simd.view());
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5, c_simd.view());
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5,
       c_scalar.view());
  EXPECT_TRUE(same_bits(c_simd.view(), c_scalar.view()));
}

TEST(GemmKernel, MpRunsBitIdenticalAcrossDispatch) {
  // End-to-end: distributed MMM, LU and QR must produce byte-identical
  // reports, matrices, tau and traces under either kernel. 70-wide blocks
  // put every local update on the cache-blocked packed path; 32- and
  // 64-wide blocks (with a ragged last block) put them on the one-tile
  // small path, which reads standalone blocks in place and copies the
  // alpha = -1 and sub-view operands.
  KernelGuard guard;
  if (!gemm_force_kernel("avx2")) GTEST_SKIP() << "host lacks AVX2";
  const Machine machine = het_machine(47, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  struct Shape {
    std::size_t n, block;
  };
  const Shape shapes[] = {{140, 70}, {100, 32}, {200, 64}};
  std::vector<MpRun> simd;
  for (const Shape& s : shapes) {
    simd.push_back(run_mmm(machine, dist, s.n, s.block, 2));
    simd.push_back(run_lu(machine, dist, s.n, s.block, false, 2));
    simd.push_back(run_qr(machine, dist, s.n, s.block, 2));
  }
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  std::size_t i = 0;
  for (const Shape& s : shapes) {
    SCOPED_TRACE(testing::Message() << "n=" << s.n << " block=" << s.block);
    expect_same_run(run_mmm(machine, dist, s.n, s.block, 2), simd[i++]);
    expect_same_run(run_lu(machine, dist, s.n, s.block, false, 2), simd[i++]);
    expect_same_run(run_qr(machine, dist, s.n, s.block, 2), simd[i++]);
  }
}

// The unblocked saxpy loop the small no-transpose path ran before it moved
// onto the dispatched microkernel, kept as the oracle for its bit-identity:
// gemm's beta prologue, then C(:, j) += A(:, p) * (alpha * B(p, j)) for
// ascending p, reading every operand in place.
void small_gemm_oracle(double alpha, const ConstMatrixView& a,
                       const ConstMatrixView& b, double beta, MatrixView c) {
  if (beta != 1.0)
    for (std::size_t j = 0; j < c.cols(); ++j)
      for (std::size_t i = 0; i < c.rows(); ++i)
        c(i, j) = (beta == 0.0) ? 0.0 : beta * c(i, j);
  for (std::size_t j = 0; j < c.cols(); ++j)
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const double bpj = alpha * b(p, j);
      for (std::size_t i = 0; i < c.rows(); ++i) c(i, j) += a(i, p) * bpj;
    }
}

TEST(GemmKernel, SmallPathBitIdenticalAcrossKernels) {
  // Every small no-transpose call is one tile of the dispatched kernel.
  // Standalone operands are read in place (B only when alpha == 1); sub-views
  // with ld > rows, and B under any other alpha, are copied into the tile
  // buffers first. Neither may move a bit against the other kernel or the
  // old saxpy loop. Shapes are m x k x n; 61 x 37 x 45 hits the AVX2
  // kernel's row tail (61 = 7*8 + 5) and column tail (45 = 11*4 + 1).
  KernelGuard guard;
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {
      {64, 64, 64}, {64, 64, 128}, {61, 37, 45}, {8, 1, 4}, {1, 1, 1}};
  const bool have_avx2 = gemm_force_kernel("avx2");
  Rng rng(139);
  for (const Shape& s : shapes) {
    // Sub-view operands live at offset (1, 2) of a parent three rows taller.
    Matrix a(s.m, s.k), b(s.k, s.n), pa(s.m + 3, s.k + 2), pb(s.k + 3, s.n + 2);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    fill_random(pa.view(), rng);
    fill_random(pb.view(), rng);
    Matrix c0(s.m, s.n);
    fill_random(c0.view(), rng);
    for (const bool sub : {false, true}) {
      const ConstMatrixView av = sub ? pa.view().block(1, 2, s.m, s.k)
                                     : ConstMatrixView(a.view());
      const ConstMatrixView bv = sub ? pb.view().block(1, 2, s.k, s.n)
                                     : ConstMatrixView(b.view());
      for (const double alpha : {1.0, -1.0, 1.5}) {
        for (const double beta : {0.0, 1.0, -0.5}) {
          SCOPED_TRACE(testing::Message()
                       << s.m << "x" << s.k << "x" << s.n << " sub=" << sub
                       << " alpha=" << alpha << " beta=" << beta);
          // beta == 0 must overwrite a NaN-filled C, not propagate it.
          Matrix start(s.m, s.n, std::numeric_limits<double>::quiet_NaN());
          if (beta != 0.0) start.view().copy_from(c0.view());
          // C is a sub-view too on the copy branch, so ldc > m is covered.
          Matrix cs(s.m, s.n), pc(s.m + 2, s.n + 1, 0.0);
          const auto run = [&](const char* kernel) {
            EXPECT_TRUE(gemm_force_kernel(kernel));
            const MatrixView c =
                sub ? pc.view().block(2, 1, s.m, s.n) : cs.view();
            c.copy_from(start.view());
            gemm(Trans::No, Trans::No, alpha, av, bv, beta, c);
            Matrix out(s.m, s.n);
            out.view().copy_from(c);
            return out;
          };
          Matrix want(s.m, s.n);
          want.view().copy_from(start.view());
          small_gemm_oracle(alpha, av, bv, beta, want.view());
          EXPECT_TRUE(same_bits(run("scalar").view(), want.view()));
          if (have_avx2) {
            EXPECT_TRUE(same_bits(run("avx2").view(), want.view()));
          }
        }
      }
    }
  }
}

TEST(GemmKernel, SmallPathNBoundBitSafe) {
  // Regression for the small-path bound: a 64 x 64 x 400 call is not small
  // (n > 128) and takes the cache-blocked streaming path. Both paths run
  // the same per-element operation sequence, so the result must match, bit
  // for bit, the same product computed in column slices narrow enough to
  // take the one-tile small path (their B is copied, since alpha is 1.5).
  Rng rng(97);
  const std::size_t m = 64, k = 64, n = 400, slice = 100;
  Matrix a(m, k), b(k, n), c_full(m, n), c_sliced(m, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c_full.view(), rng);
  c_sliced.view().copy_from(c_full.view());
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c_full.view());
  for (std::size_t j0 = 0; j0 < n; j0 += slice) {
    const std::size_t jlen = std::min(slice, n - j0);
    gemm(Trans::No, Trans::No, 1.5, a.view(), b.block(0, j0, k, jlen), 0.5,
         c_sliced.block(0, j0, m, jlen));
  }
  EXPECT_TRUE(same_bits(c_full.view(), c_sliced.view()));
}

// ----------------------------------------------------- metric stability

// Canonical rendering of the gemm call counters — the part of a metrics
// snapshot the determinism contract pins across thread counts. (The full
// snapshot also holds pool wall-clock histograms, which exist only
// when a pool runs; those are documented as wall-clock-valued and excluded
// from the byte-stability guarantee.)
std::string gemm_counter_fingerprint(MetricsRegistry& m) {
  std::ostringstream os;
  os << "gemm.calls=" << m.counter("gemm.calls").value()
     << " gemm.tile_calls=" << m.counter("gemm.tile_calls").value()
     << " gemm.packed_calls=" << m.counter("gemm.packed_calls").value();
  return os.str();
}

std::string counted_gemm_workload(unsigned threads) {
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    Rng rng(101);
    ThreadPool pool(threads);
    // One packed logical call, wide enough to split into several stripes.
    Matrix a(96, 80), b(80, 512), c(96, 512);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    fill_random(c.view(), rng);
    gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c.view(),
         pool);
    // One tile-sized call, one transposed call, one alpha == 0 call.
    Matrix sa(32, 16), sb(16, 40), sc(32, 40, 0.0);
    fill_random(sa.view(), rng);
    fill_random(sb.view(), rng);
    gemm(Trans::No, Trans::No, 1.0, sa.view(), sb.view(), 0.0, sc.view(),
         pool);
    Matrix ta(16, 32), tc(32, 40, 0.0);
    fill_random(ta.view(), rng);
    gemm(Trans::Yes, Trans::No, 1.0, ta.view(), sb.view(), 0.0, tc.view(),
         pool);
    gemm(Trans::No, Trans::No, 0.0, sa.view(), sb.view(), 1.0, sc.view(),
         pool);
  }
  install_metrics(nullptr);
  return gemm_counter_fingerprint(reg);
}

TEST(GemmMetrics, CallCountersIdenticalAcrossThreadCounts) {
  // Regression for the per-stripe counting bug: the threaded overload
  // used to recurse into the counted serial gemm once per column stripe, so
  // gemm.calls / gemm.packed_calls grew with the thread count. Counting the
  // logical call once restores the "call counts never depend on the thread
  // count" invariant (src/matrix/gemm.cpp) — the counter fingerprint must
  // be byte-identical for threads 1, 2, and 7.
  const std::string serial = counted_gemm_workload(1);
  EXPECT_EQ(serial,
            "gemm.calls=4 gemm.tile_calls=1 gemm.packed_calls=1");
  for (unsigned t : {2u, 7u}) EXPECT_EQ(serial, counted_gemm_workload(t));
}

// ----------------------------------------------------- packed-panel cache

// Restores the pack-cache consumption toggle no matter how a test exits.
struct PackCacheGuard {
  explicit PackCacheGuard(bool on) : prev_(gemm_set_pack_cache(on)) {}
  ~PackCacheGuard() { gemm_set_pack_cache(prev_); }

 private:
  bool prev_;
};

struct KernelResults {
  Matrix mmm, lu, chol, qr;
  std::vector<double> tau;
};

// One run of all four MP kernels at n = 140 with 70-wide blocks: every
// local trailing update is big enough for the packed microkernel path, so
// the pack cache (when enabled) is genuinely on the line.
KernelResults run_all_kernels(const Machine& machine,
                              const Distribution2D& dist, unsigned threads) {
  const std::size_t n = 140, block = 70;
  RuntimeOptions opts;
  opts.threads = threads;
  KernelResults r;
  {
    Rng rng(111);
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    r.mmm = Matrix(n, n);
    run_mp_mmm(machine, dist, a.view(), b.view(), r.mmm.view(), block, {},
               nullptr, opts);
  }
  {
    Rng rng(113);
    r.lu = Matrix(n, n);
    fill_diagonally_dominant(r.lu.view(), rng);
    run_mp_lu(machine, dist, r.lu.view(), block, {}, false, nullptr, opts);
  }
  {
    Rng rng(117);
    r.chol = Matrix(n, n);
    fill_spd(r.chol.view(), rng);
    run_mp_cholesky(machine, dist, r.chol.view(), block, {}, nullptr, opts);
  }
  {
    Rng rng(119);
    r.qr = Matrix(n, n);
    fill_random(r.qr.view(), rng);
    r.tau =
        run_mp_qr(machine, dist, r.qr.view(), block, {}, nullptr, opts).tau;
  }
  return r;
}

TEST(PackCache, MpKernelsBitIdenticalAcrossKernelCacheThreads) {
  // The acceptance matrix of the packed-panel cache: MMM, LU, Cholesky and
  // QR must produce byte-identical outputs across {scalar, avx2} x {cache
  // on, off} x threads {1, 2, 7}. The cache only skips
  // redundant packing — pure data movement — so no cell of this product may
  // move a single bit.
  KernelGuard guard;
  const Machine machine = het_machine(47, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  const KernelResults base = [&] {
    PackCacheGuard cache_guard(true);
    return run_all_kernels(machine, dist, 1);
  }();
  const bool have_avx2 = gemm_force_kernel("avx2");
  for (const std::string_view kern : {"scalar", "avx2"}) {
    if (kern == "avx2" && !have_avx2) continue;
    ASSERT_TRUE(gemm_force_kernel(kern));
    for (bool cache_on : {true, false}) {
      PackCacheGuard cache_guard(cache_on);
      for (unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE(testing::Message() << kern << " cache=" << cache_on
                                        << " threads=" << threads);
        const KernelResults got = run_all_kernels(machine, dist, threads);
        EXPECT_TRUE(same_bits(base.mmm.view(), got.mmm.view()));
        EXPECT_TRUE(same_bits(base.lu.view(), got.lu.view()));
        EXPECT_TRUE(same_bits(base.chol.view(), got.chol.view()));
        EXPECT_TRUE(same_bits(base.qr.view(), got.qr.view()));
        EXPECT_EQ(base.tau, got.tau);
      }
    }
  }
}

TEST(MpQrBlockedPanel, ReconstructsAndBitIdenticalAcrossKernelCacheThreads) {
  // Blocks eight inner widths wide, so every host panel runs qr_factor's
  // blocked path (sub-panel factor + gemm block-reflector updates) and
  // qr_form_t's gemm V^T V. The host panel math must stay serial and on the
  // bit-identical gemm dispatch: no kernel, cache or thread setting may move
  // a bit of the factors.
  const std::size_t n = 512, block = 8 * kQrInnerBlock;
  KernelGuard guard;
  const Machine machine = het_machine(131, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  Matrix orig(n, n);
  {
    Rng rng(137);
    fill_random(orig.view(), rng);
  }
  const auto run = [&](unsigned threads, std::vector<double>& tau) {
    RuntimeOptions opts;
    opts.threads = threads;
    Matrix a(n, n);
    a.view().copy_from(orig.view());
    tau = run_mp_qr(machine, dist, a.view(), block, {}, nullptr, opts).tau;
    return a;
  };

  ASSERT_TRUE(gemm_force_kernel("scalar"));
  std::vector<double> base_tau;
  const Matrix base = [&] {
    PackCacheGuard cache_guard(true);
    return run(1, base_tau);
  }();
  ASSERT_EQ(base_tau.size(), n);

  // ||A - QR|| / ||A||, R the upper triangle of the factored matrix.
  const Matrix q = qr_form_q(base.view(), base_tau);
  Matrix r(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = base(i, j);
  Matrix resid(n, n);
  resid.view().copy_from(orig.view());
  gemm(Trans::No, Trans::No, 1.0, q.view(), r.view(), -1.0, resid.view());
  EXPECT_LT(norm_frobenius(resid.view()) / norm_frobenius(orig.view()), 1e-13);

  const bool have_avx2 = gemm_force_kernel("avx2");
  for (const std::string_view kern : {"scalar", "avx2"}) {
    if (kern == "avx2" && !have_avx2) continue;
    ASSERT_TRUE(gemm_force_kernel(kern));
    for (bool cache_on : {true, false}) {
      PackCacheGuard cache_guard(cache_on);
      for (unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE(testing::Message() << kern << " cache=" << cache_on
                                        << " threads=" << threads);
        std::vector<double> tau;
        const Matrix got = run(threads, tau);
        EXPECT_TRUE(same_bits(base.view(), got.view()));
        EXPECT_EQ(base_tau, tau);
      }
    }
  }
}

TEST(PackCache, LuPacksEachPanelBlockOncePerStep) {
  // The point of the cache, counted: a 320 / 80 LU (nb = 4) on a 1x1 grid
  // packs each trailing L/U panel block exactly once per step and serves
  // every other trailing-update gemm from the cache. Step k has
  // t = nb - 1 - k panel blocks per side and t^2 tagged gemms, so misses =
  // sum_k 2t = 12 and hits = sum_k 2(t^2 - t) = 16. Exact counts are
  // pinned with one thread, where the task graph runs every task inline:
  // with several workers two tasks can both miss the same key before the
  // first insert lands (the pack is then built twice, used once — still
  // correct, just counted twice).
  KernelGuard guard;
  PackCacheGuard cache_guard(true);
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    const Machine machine = het_machine(67, 1, 1);
    const PanelDistribution dist = PanelDistribution::block_cyclic(1, 1);
    Rng rng(131);
    Matrix a(320, 320);
    fill_diagonally_dominant(a.view(), rng);
    run_mp_lu(machine, dist, a.view(), 80);
  }
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("gemm.pack_misses").value(), 12u);
  EXPECT_EQ(reg.counter("gemm.pack_hits").value(), 16u);
  EXPECT_EQ(reg.counter("gemm.pack_evictions").value(), 0u);
}

TEST(PackCache, VersionBumpInvalidatesStalePack) {
  // The invalidation protocol: overwriting a block bumps its write version
  // (BlockStore::put), so the next tagged gemm looks up a key that has
  // never been cached — the stale pack is simply never asked for again.
  KernelGuard guard;
  PackCacheGuard cache_guard(true);
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    BlockStore store;
    const BlockKey key{3, 5};
    PackedPanelCache* cache = &store.pack_cache();
    Rng rng(137);
    Matrix a1(80, 80), a2(80, 80), b(80, 80);
    fill_random(a1.view(), rng);
    fill_random(a2.view(), rng);
    fill_random(b.view(), rng);
    store.put(key, a1);
    const BlockStore& cstore = store;
    const auto tag = [&] {
      return PackTag{BlockStore::pack_id(key), store.version(key), true};
    };
    Matrix c1(80, 80, 0.0), c2(80, 80, 0.0), c3(80, 80, 0.0);
    gemm_cached(Trans::No, Trans::No, 1.0, cstore.at(key), tag(), b.view(),
                PackTag{}, 0.0, c1.view(), cache);  // miss: packs a1
    gemm_cached(Trans::No, Trans::No, 1.0, cstore.at(key), tag(), b.view(),
                PackTag{}, 0.0, c2.view(), cache);  // hit: reuses the pack
    EXPECT_TRUE(same_bits(c1.view(), c2.view()));
    store.put(key, a2);  // overwrite: version bump makes the pack stale
    gemm_cached(Trans::No, Trans::No, 1.0, cstore.at(key), tag(), b.view(),
                PackTag{}, 0.0, c3.view(), cache);  // miss: packs a2
    // The post-overwrite result must be the fresh a2 * b product, bit for
    // bit — not a replay of the stale a1 pack.
    Matrix ref(80, 80, 0.0);
    gemm(Trans::No, Trans::No, 1.0, a2.view(), b.view(), 0.0, ref.view());
    EXPECT_TRUE(same_bits(c3.view(), ref.view()));
    EXPECT_FALSE(same_bits(c3.view(), c1.view()));
  }
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("gemm.pack_misses").value(), 2u);
  EXPECT_EQ(reg.counter("gemm.pack_hits").value(), 1u);
}

TEST(PackCache, DropStaleRemovesOnlyOlderVersionsOfOneOperand) {
  PackedPanelCache cache;
  const auto pack = [&](std::uint64_t id, std::uint64_t version) {
    cache.get(PackedPanelCache::Key{id, version, 0, 0}, [] {
      PackedPanel p;
      p.data.assign(10, 1.0);
      return p;
    });
  };
  pack(1, 1);
  pack(1, 2);
  pack(1, 3);
  pack(2, 1);
  cache.drop_stale(1, 3);
  EXPECT_EQ(cache.size(), 2u);  // (1, 3) and (2, 1) remain
  EXPECT_EQ(cache.held_doubles(), 20u);
  MetricsRegistry reg;
  install_metrics(&reg);
  pack(1, 3);
  pack(2, 1);
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("gemm.pack_hits").value(), 2u);
}

TEST(PackCache, ErasedBlockTakesItsPacksWithIt) {
  // A transient copy's packs are dead once it is erased (its next version
  // is never packed under the old tag); erase() drops them right away, so
  // their payloads return to the buffer pool instead of waiting for LRU.
  KernelGuard guard;
  PackCacheGuard cache_guard(true);
  BufferPool::global().clear();
  BlockStore s;
  Rng rng(157);
  Matrix a(80, 80), b(80, 80), c(80, 80, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const BlockKey key{7, 3};
  s.put(key, std::move(a));
  const PackTag tag{BlockStore::pack_id(key), s.version(key), true};
  gemm_cached(Trans::No, Trans::No, 1.0, s.at(key), tag, b.view(),
              PackTag{}, 0.0, c.view(), &s.pack_cache());
  EXPECT_EQ(s.pack_cache().size(), 1u);
  s.erase(key);
  EXPECT_EQ(s.pack_cache().size(), 0u);
  EXPECT_EQ(s.pack_cache().held_doubles(), 0u);
  // The pack's payload is in the global pool; the block's is in the
  // store's own shape pool.
  EXPECT_EQ(BufferPool::global().held_bytes(), 80 * 80 * sizeof(double));
  EXPECT_EQ(s.pooled(), 1u);
}

TEST(PackCache, CapacityBoundEvictsLeastRecentlyUsed) {
  // A tiny capacity forces evictions: three distinct 80 x 80 packs (6400
  // doubles each) through a 10000-double cache leave at most one resident
  // (eviction never removes the sole entry), and re-touching an evicted key
  // misses again.
  KernelGuard guard;
  PackCacheGuard cache_guard(true);
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    PackedPanelCache cache;
    cache.set_capacity(10000);
    Rng rng(139);
    Matrix a(80, 80), b(80, 80), c(80, 80, 0.0);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    for (std::uint64_t id : {1u, 2u, 3u, 1u}) {
      gemm_cached(Trans::No, Trans::No, 1.0, a.view(), PackTag{id, 1, true},
                  b.view(), PackTag{}, 0.0, c.view(), &cache);
    }
    EXPECT_LE(cache.held_doubles(), cache.capacity());
    EXPECT_EQ(cache.size(), 1u);
  }
  install_metrics(nullptr);
  // All four calls miss: ids 1, 2, 3 are first touches and the second id 1
  // was evicted by 2 and 3 before it came back around.
  EXPECT_EQ(reg.counter("gemm.pack_misses").value(), 4u);
  EXPECT_EQ(reg.counter("gemm.pack_hits").value(), 0u);
  EXPECT_GE(reg.counter("gemm.pack_evictions").value(), 2u);
}

TEST(BufferPool, RepeatedRunAllocatesNothingWhateverRanBetween) {
  // A kernel run's block payloads, broadcast copies and packed panels come
  // back to the global pool when it returns, so repeating the run takes
  // every buffer from there — even after other kernels with other shapes
  // ran in between — and computes the same bits.
  KernelGuard guard;
  PackCacheGuard cache_guard(true);
  BufferPool& global = BufferPool::global();
  global.clear();
  const Machine machine = het_machine(149, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  // Blocks wider than 64 so the trailing updates pack their operands.
  const std::size_t n = 240, block = 80;
  const MpRun first = run_lu(machine, dist, n, block, false, 1);
  {
    run_mmm(machine, dist, n, block, 1);
    Rng rng(151);
    Matrix a(n, n);
    fill_random(a.view(), rng);
    RuntimeOptions opts;
    opts.threads = 1;
    run_mp_qr(machine, dist, a.view(), block, {}, nullptr, opts);
  }
  const BufferPool::Stats before = global.stats();
  const MpRun again = run_lu(machine, dist, n, block, false, 1);
  EXPECT_EQ(global.stats().misses, before.misses);
  EXPECT_EQ(global.stats().drops, before.drops);
  expect_same_run(first, again);
}

}  // namespace
}  // namespace hetgrid
