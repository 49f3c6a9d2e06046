#include "airfoil/solver.hpp"

#include <chrono>
#include <cmath>

#include "airfoil/constants.hpp"
#include "airfoil/loops.hpp"
#include "airfoil/sharded.hpp"

namespace airfoil {

sim make_sim(op2::mesh m) {
  sim s;
  s.nodes = m.set("nodes");
  s.cells = m.set("cells");
  s.edges = m.set("edges");
  s.bedges = m.set("bedges");
  s.pcell = m.map("pcell");
  s.pedge = m.map("pedge");
  s.pecell = m.map("pecell");
  s.pbedge = m.map("pbedge");
  s.pbecell = m.map("pbecell");
  s.p_x = m.dat("p_x");
  s.p_bound = m.dat("p_bound");
  s.mesh = std::move(m);

  s.p_q = op2::op_decl_dat<double>(s.cells, 4, "double", "p_q");
  s.p_qold = op2::op_decl_dat<double>(s.cells, 4, "double", "p_qold");
  s.p_adt = op2::op_decl_dat<double>(s.cells, 1, "double", "p_adt");
  s.p_res = op2::op_decl_dat<double>(s.cells, 4, "double", "p_res");
  reset_solution(s);
  return s;
}

void reset_solution(sim& s) {
  const auto& qinf = constants().qinf;
  auto q = s.p_q.data<double>();
  for (int c = 0; c < s.cells.size(); ++c) {
    for (int n = 0; n < 4; ++n) {
      q[static_cast<std::size_t>(4 * c + n)] = qinf[static_cast<std::size_t>(n)];
    }
  }
  auto qold = s.p_qold.data<double>();
  std::fill(qold.begin(), qold.end(), 0.0);
  auto adt = s.p_adt.data<double>();
  std::fill(adt.begin(), adt.end(), 0.0);
  auto res = s.p_res.data<double>();
  std::fill(res.begin(), res.end(), 0.0);
}

namespace {

double finish_rms(double rms, int ncell) {
  return std::sqrt(rms / static_cast<double>(ncell));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------
// Classic API (unchanged Airfoil.cpp, Fig 4): synchronous loops.  Each
// call site carries a static op2::loop_handle, so iteration 1 captures
// the five launch descriptors and iterations 2..N replay them
// allocation-free (the prepared-loop pipeline).
//
// Cross-loop fusion: the stage-1 `update` and the NEXT iteration's
// `save_soln` are adjacent direct loops over cells (nothing runs
// between them), so they fuse into one element-contiguous launch —
// q and qold are touched once per element instead of twice per
// iteration.  The standalone save_soln survives only for iteration 0
// (no preceding update) and the standalone update for the final
// iteration (no following save).  OP2_FUSE=off runs the members
// unfused and bit-identically.

run_result run_classic(sim& s, int niter) {
  run_result out;
  out.rms_history.reserve(static_cast<std::size_t>(niter));
  const auto t0 = std::chrono::steady_clock::now();
  const loops::dats<op2::op_dat> d(s);

  for (int iter = 0; iter < niter; ++iter) {
    if (iter == 0) {
      static op2::loop_handle h_save;
      loops::save_soln(d).run(h_save);
    }

    double rms = 0.0;
    for (int k = 0; k < 2; ++k) {
      rms = 0.0;
      static op2::loop_handle h_adt, h_res, h_bres;
      loops::adt_calc(d).run(h_adt);
      loops::res_calc(d).run(h_res);
      loops::bres_calc(d).run(h_bres);

      if (k == 1 && iter + 1 < niter) {
        // update + next iteration's save_soln, one traversal of cells.
        static op2::fused_handle h_fused;
        op2::op_par_loop_fused(h_fused, s.cells,
                               loops::update(d, &rms).member(),
                               loops::save_soln(d).member());
      } else {
        static op2::loop_handle h_update;
        loops::update(d, &rms).run(h_update);
      }
    }
    out.rms_history.push_back(finish_rms(rms, s.cells.size()));
  }

  out.seconds = seconds_since(t0);
  return out;
}

// ---------------------------------------------------------------------
// §III-A2 (Fig 10): loops return futures; the driver places the .get()
// calls required by the data dependencies.  save_soln overlaps with the
// first adt_calc; res/bres serialise on their shared OP_INC target.

run_result run_async(sim& s, int niter) {
  run_result out;
  out.rms_history.reserve(static_cast<std::size_t>(niter));
  const auto t0 = std::chrono::steady_clock::now();
  const loops::dats<op2::op_dat> d(s);

  // Iteration 0's save_soln is the only standalone one (see
  // run_classic): later saves run fused with the previous iteration's
  // stage-1 update, whose future the driver had to .get() immediately
  // anyway (rms feeds the residual history), so the fused synchronous
  // call costs no overlap.
  hpxlite::future<void> f_save;

  for (int iter = 0; iter < niter; ++iter) {
    if (iter == 0) {
      // new_data1: save_soln — direct loop wrapped in async (Fig 8);
      // nothing in stage k=0 before update needs qold, so it overlaps
      // with adt_calc and the flux loops.
      static op2::loop_handle h_save;
      f_save = loops::save_soln(d).run_async(h_save);
    }

    double rms = 0.0;
    for (int k = 0; k < 2; ++k) {
      rms = 0.0;
      // new_data2: adt_calc — indirect loop via for_each(par(task)).
      static op2::loop_handle h_adt, h_res, h_bres;
      auto f_adt = loops::adt_calc(d).run_async(h_adt);
      f_adt.get();  // res_calc reads p_adt (Fig 10's new_data2.get())

      auto f_res = loops::res_calc(d).run_async(h_res);
      // bres_calc also increments p_res: unlike the paper's Fig 10 we
      // serialise the two flux loops (launching both concurrently races
      // on the boundary cells' residuals).
      f_res.get();

      auto f_bres = loops::bres_calc(d).run_async(h_bres);
      f_bres.get();
      if (k == 0 && iter == 0) {
        f_save.get();  // update reads p_qold (Fig 10's new_data1.get())
      }

      if (k == 1 && iter + 1 < niter) {
        // Fused update + next iteration's save_soln, synchronous: the
        // unfused variant's f_update.get() was immediate anyway.
        static op2::fused_handle h_fused;
        op2::op_par_loop_fused(h_fused, s.cells,
                               loops::update(d, &rms).member(),
                               loops::save_soln(d).member());
      } else {
        static op2::loop_handle h_update;
        auto f_update = loops::update(d, &rms).run_async(h_update);
        f_update.get();  // next adt_calc reads p_q; rms needed below
      }
    }
    out.rms_history.push_back(finish_rms(rms, s.cells.size()));
  }

  out.seconds = seconds_since(t0);
  return out;
}

// ---------------------------------------------------------------------
// §III-B (Fig 14): modified API.  The driver launches every loop of
// every iteration without blocking; dependencies (including the
// res/bres write-after-write on p_res) are derived automatically from
// the argument futures.  rms gets one slot per stage so the driver
// never has to wait just to reset an accumulator.

run_result run_dataflow(sim& s, int niter) {
  run_result out;
  out.rms_history.reserve(static_cast<std::size_t>(niter));
  const auto t0 = std::chrono::steady_clock::now();
  // op_dat_df handles: every launch from the table is a dataflow node.
  const loops::dats<op2::op_dat_df> d(s);

  // One rms accumulator per (iteration, stage): the paper's data[t]
  // pattern applied to the reduction target.
  std::vector<double> rms(static_cast<std::size_t>(niter) * 2, 0.0);
  std::vector<hpxlite::shared_future<void>> stage_done(
      static_cast<std::size_t>(niter) * 2);

  for (int iter = 0; iter < niter; ++iter) {
    // Iteration 0 only: later saves fuse into the previous iteration's
    // stage-1 update node (one dataflow node, one op-state, one fire
    // for both loops — see the fused submission below).
    if (iter == 0) {
      loops::save_soln(d).run();
    }

    for (int k = 0; k < 2; ++k) {
      loops::adt_calc(d).run();
      loops::res_calc(d).run();
      loops::bres_calc(d).run();

      const auto slot = static_cast<std::size_t>(2 * iter + k);
      if (k == 1 && iter + 1 < niter) {
        static op2::fused_handle h_fused;
        stage_done[slot] = op2::op_par_loop_fused(
            h_fused, s.cells, loops::update(d, &rms[slot]).member(),
            loops::save_soln(d).member());
      } else {
        stage_done[slot] = loops::update(d, &rms[slot]).run();
      }
    }
  }

  // Drain the tree: the final get()s of the application driver.  get()
  // (not wait()) so a loop that exhausted its failure_policy surfaces
  // its op2::loop_error here instead of vanishing into an abandoned
  // future.
  d.q.get();
  d.qold.get();
  d.adt.get();
  d.res.get();
  for (int iter = 0; iter < niter; ++iter) {
    const auto slot = static_cast<std::size_t>(2 * iter + 1);
    stage_done[slot].get();
    out.rms_history.push_back(
        finish_rms(rms[slot], s.cells.size()));
  }

  out.seconds = seconds_since(t0);
  return out;
}

run_result run_with_backend(sim& s, int niter,
                            const std::string& backend_name) {
  const auto caps =
      op2::backend_registry::shared(backend_name).capabilities();
  if (caps.sharded) {
    return run_sharded(s, niter);
  }
  if (caps.dataflow_api) {
    return run_dataflow(s, niter);
  }
  if (caps.asynchronous) {
    return run_async(s, niter);
  }
  return run_classic(s, niter);
}

run_result run_with_backend(sim& s, int niter) {
  return run_with_backend(s, niter, op2::current_backend_name());
}

double solution_checksum(const sim& s) {
  double sum = 0.0;
  for (const double v : s.p_q.data<double>()) {
    sum += v;
  }
  return sum;
}

}  // namespace airfoil
