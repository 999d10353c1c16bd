#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/imbalance.hpp"

namespace hetgrid {

double SimReport::average_utilization() const {
  if (total_time <= 0.0 || busy.empty()) return 0.0;
  double acc = 0.0;
  for (double b : busy) acc += b / total_time;
  return acc / static_cast<double>(busy.size());
}

double SimReport::slowdown_vs_perfect() const {
  if (perfect_compute_bound <= 0.0) return 1.0;
  return total_time / perfect_compute_bound;
}

namespace {

/// Combines per-line broadcast costs according to the topology: on
/// Ethernet every transmission serializes across the machine; on a
/// switched network the lines proceed in parallel.
double combine_broadcasts(const NetworkModel& net,
                          const std::vector<double>& line_costs) {
  double total = 0.0, worst = 0.0;
  for (double c : line_costs) {
    total += c;
    worst = std::max(worst, c);
  }
  return net.topology == Topology::kEthernet ? total : worst;
}

/// Emits one broadcast span per processor of each line with nonzero cost.
/// On Ethernet the lines serialize across the shared medium (matching
/// combine_broadcasts); on a switched network every line starts at
/// `start`. `line_blocks[line]` is the panel-block count travelling on
/// that line.
void emit_broadcast_spans(TraceSink* sink, const NetworkModel& net,
                          const std::vector<double>& line_costs,
                          const std::vector<std::size_t>& line_blocks,
                          bool lines_are_rows, std::size_t p, std::size_t q,
                          double start, std::size_t step, const char* name) {
  if (sink == nullptr) return;
  double offset = 0.0;
  for (std::size_t line = 0; line < line_costs.size(); ++line) {
    const double cost = line_costs[line];
    if (cost > 0.0) {
      const double line_start =
          net.topology == Topology::kEthernet ? start + offset : start;
      const std::size_t span = lines_are_rows ? q : p;
      for (std::size_t m = 0; m < span; ++m) {
        const std::size_t proc =
            lines_are_rows ? line * q + m : m * q + line;
        trace_span(sink, TraceEventKind::kBroadcast, proc, line_start, cost,
                   step, name, static_cast<double>(line_blocks[line]));
      }
    }
    offset += cost;
  }
}

// Per-run state shared by the four kernels: the report under construction,
// the optional observers, and the rebalancer's live slot maps and internal
// estimator. With rebalancing off and an empty trace the owner/rate hooks
// reduce to the paper's static model (distribution consulted directly, no
// factor multiply), so such runs are bit-identical to a simulator without
// the rebalancer.
struct SimRun {
  const Machine& machine;
  const Distribution2D& dist;
  const RuntimeOptions& opts;
  TraceSink* sink;
  RunObservation* obs;  // installed observation, fetched once
  bool on;              // opts.rebalance == kPanel
  std::size_t p, q;
  std::vector<std::size_t> row_of, col_of;  // live slot maps (on only)
  CycleTimeEstimator est;
  double static_capacity;  // grid capacity; the empty trace's every step
  SimReport rep;

  SimRun(const Machine& m, const Distribution2D& d, std::size_t nb,
         const char* kernel, TraceSink* s, const RuntimeOptions& o)
      : machine(m),
        dist(d),
        opts(o),
        sink(s),
        obs(installed_observation()),
        on(o.rebalance == RuntimeOptions::Rebalance::kPanel),
        p(m.grid.rows()),
        q(m.grid.cols()),
        est(o.estimator),
        static_capacity(m.grid.total_capacity()) {
    m.net.validate();
    HG_CHECK(p == d.grid_rows() && q == d.grid_cols(),
             "machine grid " << p << "x" << q
                             << " does not match distribution grid "
                             << d.grid_rows() << "x" << d.grid_cols());
    HG_CHECK(nb > 0, "matrix must have at least one block");
    rep.kernel = kernel;
    rep.distribution = d.name();
    rep.busy.assign(p * q, 0.0);
    if (!on) return;
    HG_CHECK(
        neighbor_census(d).aligned,
        "rebalance=panel requires an aligned (grid-pattern) distribution");
    row_of.resize(nb);
    col_of.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) row_of[i] = d.owner(i, 0).row;
    for (std::size_t j = 0; j < nb; ++j) col_of[j] = d.owner(0, j).col;
  }

  ProcCoord owner(std::size_t bi, std::size_t bj) const {
    if (!on) return dist.owner(bi, bj);
    return ProcCoord{row_of[bi], col_of[bj]};
  }

  /// Effective cycle-time of processor (gi, gj) at step `k` under the
  /// drift trace. An empty trace performs no multiply at all.
  double rate(std::size_t gi, std::size_t gj, std::size_t k) const {
    const double t = machine.grid(gi, gj);
    return opts.trace.empty() ? t : t * opts.trace.factor(gi * q + gj, k);
  }

  /// Aggregate speed sum_ij 1/rate at step `k` — the denominator of the
  /// perfectly balanced bound under the traced rates.
  double capacity(std::size_t k) const {
    if (opts.trace.empty()) return static_capacity;
    double cap = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj) cap += 1.0 / rate(gi, gj, k);
    return cap;
  }

  /// Charges `blocks` block operations of weight `w` to processor
  /// (gi, gj) at step `k`, starting at virtual time `start`: busy time,
  /// one compute span, and one estimator sample per observer. Returns the
  /// charged seconds.
  double charge(std::size_t gi, std::size_t gj, std::size_t blocks, double w,
                std::size_t k, ObsOp op, double start, const char* name) {
    const std::size_t id = gi * q + gj;
    const double tt = static_cast<double>(blocks) * rate(gi, gj, k) * w;
    rep.busy[id] += tt;
    if (tt > 0.0 && (sink != nullptr || on || obs != nullptr))
      observe(id, static_cast<double>(blocks) * w, tt, k, op, start, name);
    return tt;
  }

  // Kept out of line so charge() stays small enough to inline into the
  // per-processor loops, which an unobserved run spends its time in.
  [[gnu::noinline]] void observe(std::size_t id, double units, double tt,
                                 std::size_t k, ObsOp op, double start,
                                 const char* name) {
    trace_span(sink, TraceEventKind::kComputeBlock, id, start, tt, k, name);
    if (on) est.sample(id, op, units, tt, k);
    if (obs != nullptr) obs->estimator.sample(id, op, units, tt, k);
  }

  /// Sum of per-line ring-broadcast costs under the topology, with one
  /// broadcast span per participating processor starting at `start`.
  double broadcast(const std::vector<std::size_t>& line_blocks,
                   bool lines_are_rows, double start, std::size_t k,
                   const char* name, std::vector<double>& line_costs) {
    const std::size_t span = lines_are_rows ? q : p;
    line_costs.clear();
    for (const std::size_t blocks : line_blocks)
      line_costs.push_back(machine.net.broadcast_cost(blocks, span));
    emit_broadcast_spans(sink, machine.net, line_costs, line_blocks,
                         lines_are_rows, p, q, start, k, name);
    return combine_broadcasts(machine.net, line_costs);
  }

  /// Plans one boundary rebalance over `region` (absolute block
  /// coordinates) and applies it to the live maps when it acts. Returns
  /// the migration seconds charged to this step's communication time,
  /// which the timeline places at the step's start (`now`).
  double boundary(std::size_t k, const RebalanceRegion& region, double now) {
    if (!on || k == 0) return 0.0;
    return rebalance(k, region, now);
  }

  [[gnu::noinline]] double rebalance(std::size_t k, RebalanceRegion region,
                                     double now) {
    // plan_rebalance keeps every line at >= 1 slot; a trailing region
    // smaller than the grid cannot satisfy that, so the last boundaries
    // simply hold.
    if (region.row_hi - region.row_lo < p ||
        region.col_hi - region.col_lo < q)
      return 0.0;
    rep.resolves += 1;
    region.per_block_move_cost =
        machine.net.latency + machine.net.block_transfer;
    const CycleTimeGrid rates = estimated_rate_grid(
        est.estimates(), machine.grid, ObsOp::kUpdate,
        est.options().min_samples);
    // Plan over the trailing sub-maps only (region shifted to the origin),
    // so every rounded slot lands on a row/column that still has work.
    std::vector<std::size_t> sub_rows(row_of.begin() + region.row_lo,
                                      row_of.begin() + region.row_hi);
    std::vector<std::size_t> sub_cols(col_of.begin() + region.col_lo,
                                      col_of.begin() + region.col_hi);
    RebalanceRegion local = region;
    local.row_hi -= local.row_lo;
    local.col_hi -= local.col_lo;
    local.row_lo = 0;
    local.col_lo = 0;
    const RebalanceDecision d = plan_rebalance(rates, sub_rows, sub_cols,
                                               local, opts.rebalance_opts);
    if (!d.act) return 0.0;
    std::copy(d.row_map.begin(), d.row_map.end(),
              row_of.begin() + static_cast<std::ptrdiff_t>(region.row_lo));
    std::copy(d.col_map.begin(), d.col_map.end(),
              col_of.begin() + static_cast<std::ptrdiff_t>(region.col_lo));
    rep.migrations += 1;
    rep.blocks_moved += d.blocks_to_move;
    rep.events.push_back({k, d.current_sweep, d.proposed_sweep,
                          d.migration_cost, d.blocks_to_move});
    if (obs != nullptr) obs->rebalances.push_back(rep.events.back());
    trace_span(sink, TraceEventKind::kPhase, kMachineLane, now,
               d.migration_cost, k, "rebalance",
               static_cast<double>(d.blocks_to_move));
    return d.migration_cost;
  }

  /// Closes step `s` that started at `now`; returns the next step's start.
  double end_step(const StepRecord& s, double now) {
    rep.compute_time += s.panel + s.row + s.update;
    rep.comm_time += s.comm;
    rep.steps.push_back(s);
    trace_span(sink, TraceEventKind::kPhase, kMachineLane, now, s.total(),
               s.step, "step");
    if (obs != nullptr) obs->estimator.panel_boundary(s.step);
    return now + s.total();
  }

  SimReport finish() {
    rep.total_time = rep.compute_time + rep.comm_time;
    return std::move(rep);
  }
};

struct FactorizationWeights {
  double panel;   // per block of the current column panel
  double row;     // per block of the current row panel (trsm / reflector)
  double update;  // per block of the trailing submatrix
  const char* kernel;
};

SimReport simulate_factorization(const Machine& machine,
                                 const Distribution2D& dist, std::size_t nb,
                                 const FactorizationWeights& w,
                                 TraceSink* sink,
                                 const RuntimeOptions& opts) {
  SimRun run(machine, dist, nb, w.kernel, sink, opts);
  const std::size_t p = run.p, q = run.q;

  std::vector<std::size_t> trailing(p * q);
  std::vector<std::size_t> panel_rows(p), row_cols(q);
  std::vector<double> line_costs;

  double now = 0.0;
  for (std::size_t k = 0; k < nb; ++k) {
    // Rebalance the trailing submatrix [k, nb)^2; the shrinking trailing
    // sweep repays migration over roughly (nb - k) / 3 full sweeps.
    const double migration = run.boundary(
        k,
        RebalanceRegion{k, nb, k, nb, false,
                        static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
        now);
    const double start = now + migration;
    const ProcCoord diag = run.owner(k, k);

    // --- Panel factorization: column k, rows k..nb-1, done by the owner
    // grid column in parallel across its grid rows.
    std::fill(panel_rows.begin(), panel_rows.end(), 0);
    for (std::size_t i = k; i < nb; ++i)
      panel_rows[run.owner(i, k).row] += 1;
    double panel_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      panel_time = std::max(
          panel_time, run.charge(gi, diag.col, panel_rows[gi], w.panel, k,
                                 ObsOp::kPanel, start, "panel"));

    // --- Horizontal broadcast of the L panel (one ring per grid row).
    const double l_bcast = run.broadcast(panel_rows, true, start + panel_time,
                                         k, "l-bcast", line_costs);

    // --- Row panel: row k, columns k+1..nb-1, solved by the owner grid row.
    std::fill(row_cols.begin(), row_cols.end(), 0);
    for (std::size_t j = k + 1; j < nb; ++j)
      row_cols[run.owner(k, j).col] += 1;
    double row_time = 0.0;
    for (std::size_t gj = 0; gj < q; ++gj)
      row_time = std::max(
          row_time, run.charge(diag.row, gj, row_cols[gj], w.row, k,
                               ObsOp::kSolve, start + panel_time + l_bcast,
                               "row"));

    // --- Vertical broadcast of the U row panel (one ring per grid column).
    const double u_bcast =
        run.broadcast(row_cols, false, start + panel_time + l_bcast + row_time,
                      k, "u-bcast", line_costs);

    // --- Trailing update of blocks (I > k, J > k).
    std::fill(trailing.begin(), trailing.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i)
      for (std::size_t j = k + 1; j < nb; ++j) {
        const ProcCoord o = run.owner(i, j);
        trailing[o.row * q + o.col] += 1;
      }
    const double update_start =
        start + panel_time + l_bcast + row_time + u_bcast;
    double update_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj)
        update_time = std::max(
            update_time, run.charge(gi, gj, trailing[gi * q + gj], w.update,
                                    k, ObsOp::kUpdate, update_start,
                                    "update"));

    now = run.end_step(
        {k, panel_time, row_time, update_time, l_bcast + u_bcast + migration},
        now);

    const double panel_vol = static_cast<double>(nb - k) * w.panel;
    const double row_vol = static_cast<double>(nb - k - 1) * w.row;
    const double upd_vol = static_cast<double>(nb - k - 1) *
                           static_cast<double>(nb - k - 1) * w.update;
    run.rep.perfect_compute_bound +=
        (panel_vol + row_vol + upd_vol) / run.capacity(k);
  }
  return run.finish();
}

}  // namespace

SimReport simulate_mmm(const Machine& machine, const Distribution2D& dist,
                       std::size_t nb, const KernelCosts& costs,
                       TraceSink* sink, const RuntimeOptions& opts) {
  SimRun run(machine, dist, nb, "mmm", sink, opts);
  const std::size_t p = run.p, q = run.q;
  const double step_volume =
      static_cast<double>(nb) * static_cast<double>(nb) * costs.update;

  // Broadcast counts are computed per step: the A column panel at step k is
  // block column k, whose row ownership may depend on k for misaligned
  // distributions (Kalinov–Lastovetsky).
  std::vector<std::size_t> owned(p * q), a_rows(p), b_cols(q);
  std::vector<double> line_costs;

  double now = 0.0;
  for (std::size_t k = 0; k < nb; ++k) {
    // All of C updates at every step, so the priced region is the whole
    // matrix and one owner change drags A, B and C blocks along.
    const std::size_t migrations = run.rep.migrations;
    const double migration = run.boundary(
        k,
        RebalanceRegion{0, nb, 0, nb, false, static_cast<double>(nb - k),
                        0.0, 3.0},
        now);
    const double start = now + migration;

    // Ownership of the whole C matrix: fixed until a rebalance acts.
    if (k == 0 || run.rep.migrations != migrations) {
      std::fill(owned.begin(), owned.end(), 0);
      for (std::size_t i = 0; i < nb; ++i)
        for (std::size_t j = 0; j < nb; ++j) {
          const ProcCoord o = run.owner(i, j);
          owned[o.row * q + o.col] += 1;
        }
    }

    std::fill(a_rows.begin(), a_rows.end(), 0);
    std::fill(b_cols.begin(), b_cols.end(), 0);
    for (std::size_t i = 0; i < nb; ++i) a_rows[run.owner(i, k).row] += 1;
    for (std::size_t j = 0; j < nb; ++j) b_cols[run.owner(k, j).col] += 1;
    const double h_comb =
        run.broadcast(a_rows, true, start, k, "a-panel", line_costs);
    const double v_comb = run.broadcast(b_cols, false, start + h_comb, k,
                                        "b-panel", line_costs);
    const double comm_step = h_comb + v_comb + migration;

    double compute_step = 0.0;
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < q; ++j)
        compute_step = std::max(
            compute_step, run.charge(i, j, owned[i * q + j], costs.update, k,
                                     ObsOp::kUpdate, now + comm_step,
                                     "update"));

    now = run.end_step({k, 0.0, 0.0, compute_step, comm_step}, now);
    run.rep.perfect_compute_bound += step_volume / run.capacity(k);
  }
  return run.finish();
}

SimReport simulate_lu(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs,
                      TraceSink* sink, const RuntimeOptions& opts) {
  return simulate_factorization(
      machine, dist, nb, {costs.panel_factor, costs.trsm, costs.update, "lu"},
      sink, opts);
}

SimReport simulate_qr(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs,
                      TraceSink* sink, const RuntimeOptions& opts) {
  return simulate_factorization(
      machine, dist, nb,
      {costs.qr_factor, costs.qr_update, costs.qr_update, "qr"}, sink, opts);
}

SimReport simulate_cholesky(const Machine& machine,
                            const Distribution2D& dist, std::size_t nb,
                            const KernelCosts& costs, TraceSink* sink,
                            const RuntimeOptions& opts) {
  SimRun run(machine, dist, nb, "cholesky", sink, opts);
  const std::size_t p = run.p, q = run.q;

  std::vector<std::size_t> panel_rows(p), trailing(p * q), l_rows(p),
      l_cols(q);
  std::vector<double> line_costs;

  double now = 0.0;
  for (std::size_t k = 0; k < nb; ++k) {
    // Rebalance the lower trailing triangle (Cholesky touches only
    // bj <= bi); row_lo == col_lo keeps the triangle test aligned.
    const double migration = run.boundary(
        k,
        RebalanceRegion{k, nb, k, nb, true,
                        static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
        now);
    const double start = now + migration;
    const ProcCoord diag = run.owner(k, k);

    // Panel phase: factor the diagonal block and solve the sub-diagonal
    // panel inside the owner grid column.
    std::fill(panel_rows.begin(), panel_rows.end(), 0);
    for (std::size_t i = k; i < nb; ++i)
      panel_rows[run.owner(i, k).row] += 1;
    double panel_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      panel_time = std::max(
          panel_time, run.charge(gi, diag.col, panel_rows[gi],
                                 costs.chol_factor, k, ObsOp::kPanel, start,
                                 "panel"));

    // The L21 panel travels along grid rows (as the left GEMM operand) and
    // along grid columns (transposed, as the right operand).
    std::fill(l_rows.begin(), l_rows.end(), 0);
    std::fill(l_cols.begin(), l_cols.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i) {
      l_rows[run.owner(i, k).row] += 1;
      // Block (i, k) transposed is needed by the grid column owning block
      // column i of the trailing matrix.
      l_cols[run.owner(k, i).col] += 1;
    }
    const double row_bcast = run.broadcast(
        l_rows, true, start + panel_time, k, "l-bcast-row", line_costs);
    const double col_bcast =
        run.broadcast(l_cols, false, start + panel_time + row_bcast, k,
                      "l-bcast-col", line_costs);
    const double bcast = row_bcast + col_bcast;

    // Symmetric trailing update: only lower blocks (I >= J > k).
    std::fill(trailing.begin(), trailing.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i)
      for (std::size_t j = k + 1; j <= i; ++j) {
        const ProcCoord o = run.owner(i, j);
        trailing[o.row * q + o.col] += 1;
      }
    double update_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj)
        update_time = std::max(
            update_time, run.charge(gi, gj, trailing[gi * q + gj],
                                    costs.update, k, ObsOp::kUpdate,
                                    start + panel_time + bcast, "update"));

    now = run.end_step({k, panel_time, 0.0, update_time, bcast + migration},
                       now);

    const double m = static_cast<double>(nb - k - 1);
    run.rep.perfect_compute_bound +=
        (static_cast<double>(nb - k) * costs.chol_factor +
         m * (m + 1.0) / 2.0 * costs.update) /
        run.capacity(k);
  }
  return run.finish();
}

}  // namespace hetgrid
