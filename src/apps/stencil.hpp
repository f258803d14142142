// The paper's running example: the implicitly parallel stencil code of
// Figure 7 (1-D) and the 2-D variant benchmarked in Figure 12.
//
// Structure per timestep (Figure 7 lines 39-49):
//   add_one(owned[i])            RW state   over the owned partition
//   mul_two(interior[i])         RW flux    over the interior partition
//   stencil(interior[i],ghost[i]) RW flux / RO state over interior + ghost
//
// The ghost partition aliases neighbouring owned blocks, so the add_one ->
// stencil dependence crosses partitions and needs a cross-shard fence, while
// mul_two -> stencil stays on the same (interior) partition and is elided —
// exactly the Figure 10 analysis.
#pragma once

#include <cstdint>

#include "dcr/api.hpp"
#include "dcr/sharding.hpp"

namespace dcr::apps {

struct StencilConfig {
  std::int64_t cells_per_tile = 1000;  // per tile along the partitioned axis
  std::size_t tiles = 4;               // tiles along axis 0 (= launch width)
  std::size_t steps = 10;              // timesteps
  int dims = 1;                        // 1 or 2
  std::int64_t width = 64;             // extent of axis 1 per tile row (2-D)
  std::size_t tiles_y = 1;             // >1: true 2-D grid tiling (Figure 12)
  ShardingId sharding = core::ShardingRegistry::blocked();
  bool use_trace = false;              // wrap the time loop in a trace
  // >0: every k-th step the control program reduces a per-tile residual and
  // branches on it (a convergence guard) — the canonical control-feeding
  // future chain the SDC replication layer (dcr/replicate) protects.  The
  // residual launch sits outside the trace window, but that does not make
  // replay safe: a window replayed at a different distance from the last
  // residual reuses stale dependence offsets, so with use_trace a cadence
  // >= 3 replays unsoundly (spy::verify reports unsound elisions) until
  // replay validates the ops between windows (ROADMAP item 1).
  std::size_t residual_every = 0;
  // >0: alternate between two loop-body shapes every `phase_every` steps —
  // the odd phases run an extra smoothing launch, so the task stream's period
  // changes (3 launches/step vs 4).  This is the phase-changing workload the
  // automatic trace identifier (dcr/trace_id.hpp) is measured on.  Hand
  // windowing (use_trace) keys each phase with its own TraceId plus a
  // distinct id for each phase-entry step (whose cross-phase boundary deps
  // sit at different relative offsets), the best an author can do without
  // merging loops.
  std::size_t phase_every = 0;
};

// Near-square 2-D factorization of n (for n-node grid tilings).
inline std::pair<std::size_t, std::size_t> square_factors(std::size_t n) {
  std::size_t a = 1;
  for (std::size_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) a = d;
  }
  return {n / a, a};
}

struct StencilFunctions {
  FunctionId add_one;
  FunctionId mul_two;
  FunctionId stencil;
  FunctionId residual;  // per-tile residual norm (future value)
};

// Register the task functions with a cost of `ns_per_cell` per cell of the
// tasks' region arguments.  `residual` carries a deterministic value model: a
// strictly positive per-tile norm that decays with the timestep, so the
// control program's convergence guard (`residual < 0`) never fires unless
// something corrupted the value's sign — which a mantissa-preserving SDC
// model never does.
inline StencilFunctions register_stencil_functions(core::FunctionRegistry& reg,
                                                   double ns_per_cell) {
  StencilFunctions fns;
  fns.add_one = reg.register_simple("add_one", us(2), ns_per_cell);
  fns.mul_two = reg.register_simple("mul_two", us(2), ns_per_cell);
  fns.stencil = reg.register_simple("stencil", us(2), ns_per_cell);
  fns.residual = reg.register_simple(
      "residual", us(2), ns_per_cell * 0.25,
      [](const core::PointTaskInfo& info) {
        const double step = static_cast<double>(info.args.empty() ? 0 : info.args[0]);
        const double tile = static_cast<double>(info.point[0] + 1);
        return (1.0 + 0.125 * tile) / (1.0 + step);
      });
  return fns;
}

inline core::ApplicationMain make_stencil_app(const StencilConfig& cfg,
                                              const StencilFunctions& fns) {
  return [cfg, fns](core::Context& ctx) {
    using namespace rt;
    const bool grid2d = cfg.dims == 2 && cfg.tiles_y > 1;
    const std::int64_t ncells = cfg.cells_per_tile * static_cast<std::int64_t>(cfg.tiles);
    const std::int64_t nrows =
        grid2d ? cfg.width * static_cast<std::int64_t>(cfg.tiles_y) : cfg.width;
    const Rect grid =
        cfg.dims == 1 ? Rect::r1(0, ncells - 1) : Rect::r2(0, ncells - 1, 0, nrows - 1);

    FieldSpaceId fs = ctx.create_field_space();
    const FieldId state = ctx.allocate_field(fs, 8, "state");
    const FieldId flux = ctx.allocate_field(fs, 8, "flux");
    const RegionTreeId tree = ctx.create_region(grid, fs);
    const IndexSpaceId cells = ctx.root(tree);

    PartitionId owned, interior, ghost;
    const std::size_t total_tiles = cfg.tiles * (grid2d ? cfg.tiles_y : 1);
    if (grid2d) {
      owned = ctx.partition_grid(cells, cfg.tiles, cfg.tiles_y);
      // interior: owned shrunk by one at the global domain boundary.
      std::vector<Rect> interior_rects;
      for (std::size_t c = 0; c < total_tiles; ++c) {
        Rect r = ctx.forest().bounds(ctx.forest().subregion(owned, c));
        for (int d = 0; d < 2; ++d) {
          const auto di = static_cast<std::size_t>(d);
          if (r.lo[di] == grid.lo[di]) r.lo[di] += 1;
          if (r.hi[di] == grid.hi[di]) r.hi[di] -= 1;
        }
        interior_rects.push_back(r);
      }
      interior = ctx.create_partition(cells, interior_rects, true);
      ghost = ctx.partition_grid(cells, cfg.tiles, cfg.tiles_y, /*halo=*/1);
    } else {
      owned = ctx.partition_equal(cells, cfg.tiles, /*axis=*/0);
      std::vector<Rect> interior_rects;
      for (std::size_t c = 0; c < cfg.tiles; ++c) {
        Rect r = ctx.forest().bounds(ctx.forest().subregion(owned, c));
        if (c == 0) r.lo[0] += 1;
        if (c == cfg.tiles - 1) r.hi[0] -= 1;
        interior_rects.push_back(r);
      }
      interior = ctx.create_partition(cells, interior_rects, true);
      ghost = ctx.partition_with_halo(cells, cfg.tiles, /*halo=*/1, 0);
    }

    ctx.fill(cells, {state, flux});

    const Rect launch_domain =
        grid2d ? Rect::r2(0, static_cast<std::int64_t>(cfg.tiles) - 1, 0,
                          static_cast<std::int64_t>(cfg.tiles_y) - 1)
               : Rect::r1(0, static_cast<std::int64_t>(cfg.tiles) - 1);
    for (std::size_t t = 0; t < cfg.steps; ++t) {
      const bool smooth_phase =
          cfg.phase_every > 0 && (t / cfg.phase_every) % 2 == 1;
      // The first step of a returning phase depends on the *other* phase's
      // last launch, so its relative dep offsets differ from a mid-phase
      // step; it needs its own template or replay would serve stale edges.
      const bool phase_entry =
          cfg.phase_every > 0 && t > 0 && t % cfg.phase_every == 0;
      const TraceId trace(smooth_phase ? (phase_entry ? 4 : 2)
                                       : (phase_entry ? 3 : 1));
      if (cfg.use_trace) ctx.begin_trace(trace);

      core::IndexLaunch add;
      add.fn = fns.add_one;
      add.domain = launch_domain;
      add.sharding = cfg.sharding;
      add.requirements.push_back(
          GroupRequirement::on_partition(owned, {state}, Privilege::ReadWrite));
      ctx.index_launch(add);

      core::IndexLaunch mul;
      mul.fn = fns.mul_two;
      mul.domain = launch_domain;
      mul.sharding = cfg.sharding;
      mul.requirements.push_back(
          GroupRequirement::on_partition(interior, {flux}, Privilege::ReadWrite));
      ctx.index_launch(mul);

      core::IndexLaunch st;
      st.fn = fns.stencil;
      st.domain = launch_domain;
      st.sharding = cfg.sharding;
      st.requirements.push_back(
          GroupRequirement::on_partition(interior, {flux}, Privilege::ReadWrite));
      st.requirements.push_back(
          GroupRequirement::on_partition(ghost, {state}, Privilege::ReadOnly));
      ctx.index_launch(st);

      if (smooth_phase) {
        // Extra smoothing pass: folds the flux back into the state over the
        // owned partition, making the odd phases' period 4 launches.
        core::IndexLaunch sm;
        sm.fn = fns.add_one;
        sm.domain = launch_domain;
        sm.sharding = cfg.sharding;
        sm.requirements.push_back(
            GroupRequirement::on_partition(owned, {state, flux}, Privilege::ReadWrite));
        ctx.index_launch(sm);
      }

      if (cfg.use_trace) ctx.end_trace(trace);

      if (cfg.residual_every > 0 && (t + 1) % cfg.residual_every == 0) {
        core::IndexLaunch res;
        res.fn = fns.residual;
        res.domain = launch_domain;
        res.sharding = cfg.sharding;
        res.args = {static_cast<std::int64_t>(t)};
        res.wants_futures = true;
        res.requirements.push_back(
            GroupRequirement::on_partition(owned, {state}, Privilege::ReadOnly));
        core::FutureMap fm = ctx.index_launch(res);
        const double r =
            ctx.get_future(ctx.reduce_future_map(fm, core::ReduceOp::Sum));
        // Convergence guard: the residual model is strictly positive, so this
        // branch is never taken — but the value *feeds control*, which is
        // what marks the residual chain SDC-critical.
        if (r < 0.0) break;
      }
    }
    ctx.execution_fence();
  };
}

}  // namespace dcr::apps
