// hetbench: the end-to-end and per-layer benchmark of hetgrid.
//
//   hetbench --workload <coarse_static|fine_drift> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Each workload has a dense phase (MMM, LU, Cholesky and QR through the
// message-passing runtime at n = 2048 on a 4x4 heterogeneous grid) and a
// placement phase (open-loop traffic against the placement server). With
// --trace 0 it prints the end-to-end metrics (the placement numbers are
// printed too, but not gated); with --trace 1 it installs
// the library's observers, records spans around its calls into each layer
// and prints the per-layer metrics. The last line of stdout is the result
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when every output passed its check.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "core/heuristic.hpp"
#include "dense.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "placement.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"

namespace hetbench {
namespace {

using namespace hetgrid;

// Workloads. Both run every end-to-end metric and the same placement mix;
// they differ in the dense layers they load.
//  * coarse_static: block 256, 8 x 8 blocks, static cycle-times. A few
//    large tasks do the work, so time goes to the gemm microkernel,
//    packing and QR's host-side panel; the scheduler does little.
//  * fine_drift: block 64, 32 x 32 blocks, a 4x straggler on grid row 0
//    from step nb/4 with panel rebalancing. Tasks are 64x smaller, so the
//    dag, the pool, block bookkeeping and migrations sit on the hot path.
struct WorkloadSpec {
  const char* name;
  std::size_t block;
  bool drift;
};
const WorkloadSpec kWorkloads[] = {
    {"coarse_static", 256, false},
    {"fine_drift", 64, true},
};

// The placement mix's offered rates, requests/s: the fixed rate of the
// latency metrics, well below the knee, and the ladder of place_max_qps,
// ascending. On 4 vCPUs the knee sat between 4000 and 6000 req/s; the top
// rung leaves room for a server that sustains more.
constexpr double kFixedRate = 400.0;
constexpr double kLadder[] = {500, 1000, 2000, 3000, 4000, 6000, 8000};

// Placement phase, in seconds of traffic: a checked warm-up, the fixed
// rate (latency), then every rung of the ladder in ascending order.
constexpr double kWarmupSeconds = 0.5;
constexpr double kFixedSeconds = 4.0;
constexpr double kRungSeconds = 0.6;
constexpr int kSetups = 3;  // set-up repeats of the untraced run
// Kernel seconds per kernel per pass of the untraced run: at block 256, LU
// and Cholesky take 0.15-0.25 s a call, MMM 0.4 s and QR over 1 s.
constexpr double kMinKernelSeconds = 0.4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".bench_build/hetbench-out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    HG_CHECK(i + 1 < argc, "flag " << flag << " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--out") {
      a.out = value;
    } else {
      HG_CHECK(false, "unknown flag " << flag);
    }
  }
  HG_CHECK(!a.workload.empty() && have_seed && a.seconds > 0.0 &&
               (a.trace == 0 || a.trace == 1),
           "usage: hetbench --workload <name> --seed <n> --seconds <s> "
           "--trace <0|1> [--out <dir>]");
  return a;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return w;
  HG_CHECK(false, "unknown workload " << name
                                      << " (coarse_static|fine_drift)");
  return kWorkloads[0];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

std::string describe(const Summary& s, const char* unit) {
  std::ostringstream os;
  os << "median " << s.median << " " << unit;
  if (s.tail_q > 0.5)
    os << ", p" << s.tail_q * 100.0 << " " << s.tail << " " << unit;
  os << " (n=" << s.count << ")";
  return os.str();
}

// Pass/fail tally behind "attempted" and "failed".
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const TrafficResult& r) {
    attempted += r.attempted + r.stats_polls;
    failed += r.failed + r.samples_failed + r.stats_failed;
  }
};

// Quantile of merged log2-bucket histograms (upper bucket edges, as
// Histogram::quantile reports them).
double bucket_quantile(const std::vector<std::pair<double, std::uint64_t>>& b,
                       double q) {
  std::map<double, std::uint64_t> merged;
  std::uint64_t total = 0;
  for (const auto& [edge, count] : b) {
    merged[edge] += count;
    total += count;
  }
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total) - 1e-9)));
  std::uint64_t seen = 0;
  for (const auto& [edge, count] : merged) {
    seen += count;
    if (seen >= rank) return edge;
  }
  return merged.rbegin()->first;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Phase {
  std::unique_ptr<DenseWorkload> dense;
  std::unique_ptr<PlacementRig> rig;
  std::array<std::uint64_t, 4> reference_bits{};
};

// Set-up as a one-shot user pays it: allocation solve, distribution,
// inputs, server start-up and the cold first pass of every kernel.
double set_up(Phase& ph, const DenseConfig& dc, const PlacementConfig& pc,
              std::uint64_t seed, const std::string& socket, Tally& tally) {
  const auto t0 = Clock::now();
  ph.dense = std::make_unique<DenseWorkload>(dc, seed);
  ph.rig = std::make_unique<PlacementRig>(pc, seed, socket);
  for (std::size_t i = 0; i < kKernels.size(); ++i) {
    const KernelOutcome o = ph.dense->run(kKernels[i]);
    tally.add(o.ok);
    ph.reference_bits[i] = o.bits;
  }
  return seconds_since(t0, Clock::now());
}

// The placement phase, one continuous stretch of traffic. On a shared VM
// its tail latency follows the host's scheduling delays (p99 at 400 req/s
// ranged 2.2-12 ms between runs minutes apart, while the exact 3x3 solve
// behind it takes 2 ms), so these numbers are printed and kept in the
// result file but are not gated end-to-end metrics.
struct PlacementNumbers {
  Summary latency;  // from due, at the fixed rate
  Summary lag;
  double p99_us = 0.0;
  double client_p50_us = 0.0;  // sent to done
  double max_qps = 0.0;
  std::size_t stats_polls = 0;
  std::size_t checked = 0;
  std::string ladder_log;

  MetricList metrics(const std::string& prefix) const {
    MetricList m;
    m.add(prefix + "place_p50_us", latency.median, "us");
    m.add(prefix + "place_p99_us", p99_us, "us");
    m.add(prefix + "place_max_qps", max_qps, "req/s");
    return m;
  }
};

PlacementNumbers measure_placement(Phase& ph, Tally& tally) {
  PlacementNumbers out;
  auto account = [&](const TrafficResult& r) {
    tally.add(r);
    out.stats_polls += r.stats_polls;
    out.checked += r.samples_checked;
  };
  account(ph.rig->run(kFixedRate, kWarmupSeconds));
  const TrafficResult fixed = ph.rig->run(kFixedRate, kFixedSeconds);
  account(fixed);
  std::vector<double> lat, lag, client;
  for (const RequestTiming& t : fixed.timings) {
    lat.push_back(latency_us(t));
    lag.push_back(lag_us(t));
    client.push_back((t.done - t.sent) * 1e6);
  }
  out.latency = summarize(lat);
  out.lag = summarize(lag);
  out.client_p50_us = median(client);
  std::sort(lat.begin(), lat.end());
  out.p99_us = percentile(lat, 0.99);

  std::vector<RungStats> rungs;
  std::ostringstream log;
  for (const double rate : kLadder) {
    const TrafficResult r = ph.rig->run(rate, kRungSeconds);
    account(r);
    RungStats st;
    st.achieved = static_cast<double>(r.attempted) / r.elapsed_s;
    std::vector<double> rl;
    for (const RequestTiming& t : r.timings) rl.push_back(latency_us(t));
    std::sort(rl.begin(), rl.end());
    st.p99_us = percentile(rl, 0.99);
    st.backlog_grew = backlog_grew(r.timings);
    st.failed = r.failed > 0;
    rungs.push_back(st);
    log << "  rung " << rate << " req/s: achieved " << st.achieved << ", p99 "
        << st.p99_us << " us (n=" << rl.size() << "), backlog "
        << (st.backlog_grew ? "grew" : "steady") << "\n";
  }
  out.max_qps = max_sustained_rate(rungs, kLatencyLimitUs);
  out.ladder_log = log.str();
  return out;
}

void print_placement(const PlacementNumbers& p) {
  std::cout << "placement at " << kFixedRate
            << " req/s: latency from due " << describe(p.latency, "us")
            << "; generator lag " << describe(p.lag, "us") << "; "
            << p.stats_polls << " stats polls; " << p.checked
            << " replies checked bit for bit\n";
  std::cout << "ladder (p99 limit " << kLatencyLimitUs << " us):\n"
            << p.ladder_log;
  std::cout << "not gated: place_p50_us " << p.latency.median
            << " us, place_p99_us " << p.p99_us << " us, place_max_qps "
            << p.max_qps << " req/s\n";
}

// One kernel call, its output checked and compared bit for bit with the
// set-up pass.
KernelOutcome run_checked(Phase& ph, std::size_t i, Tally& tally,
                          KernelTrace* trace) {
  KernelOutcome o = ph.dense->run(kKernels[i], trace);
  const bool same = o.bits == ph.reference_bits[i];
  if (!same)
    std::cout << kernel_name(kKernels[i])
              << ": output differs from the set-up pass\n";
  if (!o.ok)
    std::cout << kernel_name(kKernels[i]) << ": check failed, residual "
              << o.residual << "\n";
  tally.add(o.ok && same);
  return o;
}

// One dense pass: every kernel once.
std::array<KernelOutcome, 4> dense_pass(Phase& ph, Tally& tally,
                                        std::array<KernelTrace, 4>* traces) {
  std::array<KernelOutcome, 4> out;
  for (std::size_t i = 0; i < kKernels.size(); ++i)
    out[i] = run_checked(ph, i, tally, traces ? &(*traces)[i] : nullptr);
  return out;
}

void print_result(const Tally& t, const MetricList& m, const Args& a,
                  const Fingerprint& fp, const MetricList* ungated = nullptr) {
  std::ostringstream line;
  line << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": ";
  m.write_json(line);
  line << "}";

  // The same result with its fingerprint, for compare.py.
  const std::string path = a.out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace) + ".json";
  std::ofstream f(path);
  f << "{\"workload\": ";
  write_string(f, a.workload);
  f << ", \"seed\": " << a.seed << ", \"seconds\": ";
  write_number(f, a.seconds);
  f << ", \"trace\": " << a.trace << ", \"fingerprint\": ";
  write_json(f, fp);
  f << ", \"result\": " << line.str();
  if (ungated != nullptr) {
    f << ", \"not_gated\": ";
    ungated->write_json(f);
  }
  f << "}\n";
  std::cout << "result file: " << path << "\n";
  std::cout << line.str() << std::endl;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.

int run_untraced(const Args& a, const DenseConfig& dc,
                 const PlacementConfig& pc, const std::string& socket,
                 const Fingerprint& fp) {
  Tally tally;
  Phase ph;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    const std::array<std::uint64_t, 4> bits = ph.reference_bits;
    if (s > 0) {
      // Tear down and hand memory back, so every set-up starts cold.
      ph = Phase{};
      malloc_trim(0);
    }
    setups.push_back(set_up(ph, dc, pc, a.seed, socket, tally));
    if (s > 0 && ph.reference_bits != bits) {
      std::cout << "set-up passes differ between set-ups\n";
      tally.add(false);
    }
  }

  const auto p0 = Clock::now();
  const PlacementNumbers place = measure_placement(ph, tally);
  const double place_s = seconds_since(p0, Clock::now());

  // Dense phase: whole passes while they fit in the run's seconds.
  std::array<std::vector<double>, 4> walls;
  std::array<double, 4> model{};
  const auto d0 = Clock::now();
  const double dense_budget = std::max(0.0, a.seconds - place_s);
  double elapsed = 0.0;
  std::size_t passes = 0;
  do {
    // Each kernel repeats within a pass until it has run kMinKernelSeconds,
    // so the short ones get as many samples per second as the long ones.
    for (std::size_t i = 0; i < 4; ++i) {
      double spent = 0.0;
      do {
        const KernelOutcome o = run_checked(ph, i, tally, nullptr);
        walls[i].push_back(o.wall_s);
        model[i] = o.report.makespan;
        spent += o.wall_s;
      } while (spent < kMinKernelSeconds);
    }
    ++passes;
    elapsed = seconds_since(d0, Clock::now());
  } while (elapsed + elapsed / static_cast<double>(passes) <= dense_budget);

  MetricList m;
  for (std::size_t i = 0; i < 4; ++i)
    m.add(std::string(kernel_name(kKernels[i])) + "_gflops",
          kernel_flops(kKernels[i], kN) / median(walls[i]) / 1e9, "GFLOP/s");
  for (std::size_t i = 0; i < 4; ++i)
    m.add(std::string(kernel_name(kKernels[i])) + "_model_s", model[i], "s");
  m.add("setup_s", median(setups), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");

  std::cout << "set-up: " << describe(summarize(setups), "s") << "\n";
  std::cout << "dense passes: " << passes << " in " << elapsed << " s\n";
  for (std::size_t i = 0; i < 4; ++i) {
    std::cout << "  " << kernel_name(kKernels[i]) << " wall "
              << describe(summarize(walls[i]), "s") << ", model "
              << model[i] << " s; calls:";
    for (double v : walls[i]) std::cout << " " << v;
    std::cout << "\n";
  }
  print_placement(place);
  const MetricList ungated = place.metrics("");
  std::cout << "error_rate " << ratio(static_cast<double>(tally.failed),
                                      static_cast<double>(tally.attempted))
            << " (" << tally.failed << " failed / " << tally.attempted
            << " attempted)\n";
  print_result(tally, m, a, fp, &ungated);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics.

const char* task_layer(const char* name) {
  return std::strcmp(name, "mp.copy") == 0 ? "mp" : "matrix";
}

int run_traced(const Args& a, const DenseConfig& dc,
               const PlacementConfig& pc, const std::string& socket,
               const Fingerprint& fp) {
  Tally tally;
  Phase ph;
  set_up(ph, dc, pc, a.seed, socket, tally);
  SpanLog spans(true);

  // Dense phase: untraced and traced passes alternate, so the tracing
  // overhead is measured under the same conditions.
  constexpr double kProbeShare = 4.0;  // seconds for the probes below
  constexpr double kTracedPlaceSeconds = 3.0;
  const double place_s = kWarmupSeconds + kFixedSeconds +
                         kRungSeconds * static_cast<double>(std::size(kLadder));
  const double dense_budget = std::max(
      0.0, a.seconds - place_s - kTracedPlaceSeconds - kProbeShare);
  std::vector<double> untraced_pass, traced_pass;
  std::array<KernelTrace, 4> traces;
  std::array<KernelOutcome, 4> traced{};
  SpanLog last_pass(true);
  const auto d0 = Clock::now();
  double elapsed = 0.0;
  std::size_t pairs = 0;
  do {
    const std::array<KernelOutcome, 4> plain = dense_pass(ph, tally, nullptr);
    double plain_s = 0.0;
    for (const KernelOutcome& o : plain) plain_s += o.wall_s;
    untraced_pass.push_back(plain_s);

    // This pass's spans go to their own log: the self times below are per
    // pass (the last one), while the span file keeps every pass.
    SpanLog pass_log(true);
    pass_log.set_origin(spans.origin());
    const std::ptrdiff_t pass_span = pass_log.open("dense_pass", "bench", pairs);
    traced = dense_pass(ph, tally, &traces);
    double traced_s = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      Span s;
      s.name = std::string("run_mp_") + kernel_name(kKernels[i]);
      s.layer = "mp";
      s.start = seconds_since(pass_log.origin(), traced[i].start);
      s.end = s.start + traced[i].wall_s;
      s.parent = pass_span;
      s.id = pairs;
      pass_log.add(s);
      const auto call_span =
          static_cast<std::ptrdiff_t>(pass_log.spans().size()) - 1;
      // Task stamps count from the task graph's construction inside the
      // call; they are placed from the call's start.
      for (const TaskRecord& r : traces[i].tasks) {
        if (r.host || r.wall_finish <= r.wall_start) continue;
        Span t;
        t.name = r.name;
        t.layer = task_layer(r.name);
        t.start = s.start + r.wall_start;
        t.end = s.start + r.wall_finish;
        t.parent = call_span;
        t.id = pairs;
        pass_log.add(std::move(t));
      }
      traced_s += traced[i].wall_s;
    }
    pass_log.close(pass_span);
    spans.merge(pass_log);
    last_pass = std::move(pass_log);
    traced_pass.push_back(traced_s);
    ++pairs;
    elapsed = seconds_since(d0, Clock::now());
  } while (elapsed + elapsed / static_cast<double>(pairs) <= dense_budget);

  MetricList m;
  const double threads = static_cast<double>(dc.threads);
  double pack_hits = 0, pack_misses = 0, pack_evictions = 0, steals = 0,
         pool_tasks = 0, bytes_migrated = 0;
  std::vector<std::pair<double, std::uint64_t>> waits;
  double max_rel_err = 0.0;
  std::size_t lanes = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const Kernel k = kKernels[i];
    const std::string kn = kernel_name(k);
    const KernelTrace& tr = traces[i];
    const KernelOutcome& o = traced[i];
    double gemm_s = 0, trsm_s = 0, copy_s = 0, task_s = 0;
    std::vector<Interval> cover;
    for (const TaskRecord& r : tr.tasks) {
      if (r.host || r.wall_finish <= r.wall_start) continue;
      const double d = r.wall_finish - r.wall_start;
      task_s += d;
      cover.push_back({r.wall_start, r.wall_finish});
      if (std::strcmp(r.name, "mp.gemm") == 0) gemm_s += d;
      if (std::strcmp(r.name, "mp.trsm") == 0) trsm_s += d;
      if (std::strcmp(r.name, "mp.copy") == 0) copy_s += d;
    }
    const double gflop = gemm_task_flops(k, kN, dc.block) / 1e9;
    m.add("util.wall_s." + kn, o.wall_s, "s");
    m.add("matrix.gemm_task_s." + kn, gemm_s, "s");
    m.add("matrix.gemm_core_gflops." + kn, ratio(gflop, gemm_s), "GFLOP/s");
    m.add("matrix.gemm_gflop." + kn, gflop, "GFLOP");
    m.add("matrix.trsm_task_s." + kn, trsm_s, "s");
    m.add("mp.copy_task_s." + kn, copy_s, "s");
    m.add("util.host_serial_s." + kn,
          std::max(0.0, o.wall_s - union_length(cover)), "s");
    m.add("util.idle_share." + kn, 1.0 - ratio(task_s, threads * o.wall_s),
          "ratio");
    m.add("util.tasks." + kn, tr.dag_tasks, "count");
    m.add("util.dag_edges." + kn, tr.dag_edges, "count");
    m.add("util.critical_path." + kn, tr.critical_path, "tasks");
    m.add("util.host_syncs." + kn, tr.host_syncs, "count");
    m.add("mp.messages." + kn, static_cast<double>(o.report.messages),
          "count");
    m.add("mp.blocks_moved." + kn, o.report.blocks_moved, "blocks");
    m.add("mp.utilization." + kn, o.report.average_utilization(), "ratio");
    m.add("core.rebalances." + kn, static_cast<double>(o.report.rebalances),
          "count");
    m.add("core.blocks_migrated." + kn,
          static_cast<double>(o.report.rebalance_blocks), "blocks");
    pack_hits += tr.pack_hits;
    pack_misses += tr.pack_misses;
    pack_evictions += tr.pack_evictions;
    steals += tr.steals;
    pool_tasks += tr.pool_tasks;
    bytes_migrated += tr.rebalance_bytes;
    waits.insert(waits.end(), tr.wait_buckets.begin(), tr.wait_buckets.end());
    for (const CycleEstimate& e : tr.estimates) {
      const double truth = ph.dense->true_cycle_time(e.proc);
      max_rel_err =
          std::max(max_rel_err, std::abs(e.seconds_per_unit - truth) / truth);
      ++lanes;
    }
  }
  m.add("matrix.pack_hit_ratio", ratio(pack_hits, pack_hits + pack_misses),
        "ratio");
  m.add("matrix.pack_lookups", pack_hits + pack_misses, "count");
  m.add("matrix.pack_evictions", pack_evictions, "count");

  // Probes, one thread each.
  {
    const std::ptrdiff_t sp = spans.open("gemm_tile_probe", "matrix", 0);
    const double tile = ph.dense->probe_gemm_tile(0.25);
    spans.close(sp);
    const double b = static_cast<double>(dc.block);
    m.add("matrix.gemm_tile_gflops", tile, "GFLOP/s");
    m.add("matrix.gemm_tile_flop", 2.0 * b * b * b, "flop");
    m.add("matrix.gemm_tile_bytes", 4.0 * 8.0 * b * b, "B");
  }
  {
    const std::ptrdiff_t sp = spans.open("gemm_1t_probe", "matrix", 0);
    const auto [mp_s, bare_s] = ph.dense->probe_gemm_1t();
    spans.close(sp);
    m.add("matrix.gemm_1t_overhead", ratio(mp_s, bare_s), "ratio");
    m.add("matrix.gemm_1t_mp_s", mp_s, "s");
    m.add("matrix.gemm_1t_bare_s", bare_s, "s");
  }
  {
    const std::ptrdiff_t sp = spans.open("panel_probe", "matrix", 0);
    const std::array<double, 3> panels = ph.dense->probe_panels();
    spans.close(sp);
    m.add("matrix.panel_probe_s", panels[0] + panels[1] + panels[2], "s");
    m.add("matrix.panel_probe_s.qr", panels[0], "s");
    m.add("matrix.panel_probe_s.lu", panels[1], "s");
    m.add("matrix.panel_probe_s.chol", panels[2], "s");
  }
  m.add("util.threads", threads, "threads");
  m.add("util.queue_wait_us.p50", bucket_quantile(waits, 0.5), "us");
  m.add("util.queue_wait_us.p99", bucket_quantile(waits, 0.99), "us");
  m.add("util.pool_tasks", pool_tasks, "count");
  m.add("util.steals", steals, "count");
  m.add("core.bytes_migrated", bytes_migrated, "B");
  m.add("obs.estimate_max_rel_err", max_rel_err, "ratio");
  m.add("obs.estimate_lanes", static_cast<double>(lanes), "count");

  // Placement: the untraced run's placement phase, then the fixed rate
  // again with the registry installed and a span per request.
  const PlacementNumbers place = measure_placement(ph, tally);
  print_placement(place);
  MetricList place_metrics = place.metrics("serve.");
  for (const Metric& pm : place_metrics.items()) m.add(pm.name, pm.value, pm.unit);
  MetricsRegistry reg;
  MetricsRegistry* prev = install_metrics(&reg);
  const TrafficResult traced_place =
      ph.rig->run(kFixedRate, kTracedPlaceSeconds, &spans);
  install_metrics(prev);
  tally.add(traced_place);
  auto client_us = [](const TrafficResult& r) {
    std::vector<double> v;
    for (const RequestTiming& t : r.timings) v.push_back((t.done - t.sent) * 1e6);
    return summarize(v);
  };
  const Summary traced_client = client_us(traced_place);
  std::vector<double> lag;
  for (const RequestTiming& t : traced_place.timings) lag.push_back(lag_us(t));
  std::sort(lag.begin(), lag.end());
  const double requests = static_cast<double>(reg.counter("serve.requests").value());
  const Histogram& server_lat = reg.histogram("serve.latency_us");
  m.add("serve.requests", requests, "count");
  m.add("serve.hit_ratio",
        ratio(static_cast<double>(reg.counter("serve.cache.hits").value()),
              requests),
        "ratio");
  m.add("serve.server_us.p50", server_lat.quantile(0.5), "us");
  m.add("serve.server_us.p99", server_lat.quantile(0.99), "us");
  m.add("serve.client_us.p50", traced_client.median, "us");
  m.add("serve.exact_solves",
        static_cast<double>(reg.counter("serve.solved.exact").value()), "count");
  m.add("serve.heuristic_solves",
        static_cast<double>(reg.counter("serve.solved.heuristic").value()),
        "count");
  m.add("serve.refines",
        static_cast<double>(reg.counter("serve.refines").value()), "count");
  m.add("serve.generator_lag_us.p99", lag.empty() ? 0.0 : percentile(lag, 0.99),
        "us");

  // Transport, codec and solver probes on the workload's own pools.
  {
    const std::ptrdiff_t sp = spans.open("transport_probe", "serve", 0);
    bool ok = true;
    const std::vector<double> rtt = ph.rig->probe_transport(200, ok);
    spans.close(sp);
    tally.add(ok);
    m.add("serve.transport_us", median(rtt), "us");
  }
  {
    const std::ptrdiff_t sp = spans.open("codec_probe", "serve", 0);
    serve::PlacementRequest req;
    req.p = 4;
    req.q = 4;
    req.times.assign(16, 0.5);
    serve::PlacementResponse rsp;
    rsp.p = 4;
    rsp.q = 4;
    rsp.r.assign(4, 1.0);
    rsp.c.assign(4, 1.0);
    rsp.perm.resize(16);
    for (std::uint32_t i = 0; i < 16; ++i) rsp.perm[i] = i;
    std::vector<double> per_round;
    for (int chunk = 0; chunk < 50; ++chunk) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 100; ++i) {
        const serve::Decoded d1 = serve::decode_payload(serve::encode_request(req));
        const serve::Decoded d2 =
            serve::decode_payload(serve::encode_response(rsp));
        if (!d1.ok() || !d2.ok()) tally.add(false);
      }
      per_round.push_back(seconds_since(t0, Clock::now()) * 1e6 / 100.0);
    }
    spans.close(sp);
    m.add("serve.codec_us", median(per_round), "us");
  }
  {
    std::vector<double> exact_us, heur_us;
    for (const serve::PlacementRequest& r : ph.rig->fresh_pools()) {
      const bool exact = ph.rig->server().exact_affordable(r.p, r.q);
      std::vector<double>& dst = exact ? exact_us : heur_us;
      if (dst.size() >= 40) continue;
      const std::ptrdiff_t sp = spans.open(
          exact ? "solve_optimal_arrangement" : "solve_heuristic", "core", 0);
      const auto t0 = Clock::now();
      if (exact)
        solve_optimal_arrangement(r.p, r.q, r.times);
      else
        solve_heuristic(r.p, r.q, r.times);
      dst.push_back(seconds_since(t0, Clock::now()) * 1e6);
      spans.close(sp);
    }
    heur_us.push_back(ph.dense->heuristic_us());  // the 4x4 set-up solve
    m.add("core.exact_us.p50", median(exact_us), "us");
    m.add("core.exact_probes", static_cast<double>(exact_us.size()), "count");
    m.add("core.heuristic_us.p50", median(heur_us), "us");
    m.add("core.heuristic_probes", static_cast<double>(heur_us.size()), "count");
  }

  // Self time per layer in the last traced pass. Task spans overlap on the
  // workers, so a layer's self time can exceed the pass's wall.
  for (const auto& [layer, self] : last_pass.self_times())
    m.add("self_s." + layer, self, "s");
  m.add("trace.overhead_s", median(traced_pass) - median(untraced_pass), "s");
  m.add("trace.untraced_pass_s", median(untraced_pass), "s");
  m.add("trace.overhead_us.place", traced_client.median - place.client_p50_us,
        "us");
  m.add("trace.spans", static_cast<double>(spans.spans().size()), "count");

  const std::string span_path = a.out + "/spans-" + a.workload + "-seed" +
                                std::to_string(a.seed) + ".json";
  {
    std::ofstream f(span_path);
    spans.write_json(f);
  }

  std::cout << "dense pairs (untraced + traced): " << pairs
            << "; pass wall untraced " << describe(summarize(untraced_pass), "s")
            << ", traced " << describe(summarize(traced_pass), "s") << "\n";
  std::cout << "traced outputs " << (tally.failed == 0 ? "bit-identical to" : "DIFFER from")
            << " the untraced set-up pass\n";
  std::cout << "spans: " << spans.spans().size() << " written to " << span_path
            << "\n";
  std::cout << "error_rate " << ratio(static_cast<double>(tally.failed),
                                      static_cast<double>(tally.attempted))
            << " (" << tally.failed << " failed / " << tally.attempted
            << " attempted)\n";
  print_result(tally, m, a, fp);
  return tally.failed == 0 ? 0 : 1;
}

int run_main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const WorkloadSpec& w = find_workload(a.workload);
  std::filesystem::create_directories(a.out);
  const Fingerprint fp = host_fingerprint();
  std::cout << "fingerprint: ";
  write_json(std::cout, fp);
  std::cout << "\n";

  DenseConfig dc;
  dc.block = w.block;
  dc.drift = w.drift;
  dc.threads = fp.nproc;
  PlacementConfig pc;
  // Generators and server workers together use every processor.
  pc.generators = fp.nproc > kServerThreads ? fp.nproc - kServerThreads : 1;
  const std::string socket =
      a.out + "/place-" + std::to_string(::getpid()) + ".sock";
  std::cout << "workload " << w.name << (a.trace ? " (traced)" : "")
            << ", seed " << a.seed << ", n " << kN << ", block " << dc.block
            << ", threads " << dc.threads << "\n";
  return a.trace ? run_traced(a, dc, pc, socket, fp)
                 : run_untraced(a, dc, pc, socket, fp);
}

}  // namespace
}  // namespace hetbench

int main(int argc, char** argv) {
  try {
    return hetbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hetbench: " << e.what() << "\n";
    return 2;
  }
}
