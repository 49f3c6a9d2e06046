// Airfoil solver drivers — one per programming model compared in the
// paper:
//
//   run_classic   the unchanged Airfoil.cpp (Fig 4): five op_par_loop
//                 calls per stage, synchronous under whatever backend
//                 op2::init selected (forkjoin baseline or
//                 hpx_foreach, §III-A1)
//   run_async     §III-A2 (Fig 10): op_par_loop_async everywhere, the
//                 driver hand-places the .get() calls the data
//                 dependencies demand
//   run_dataflow  §III-B (Fig 14): the modified API; the dependency
//                 tree is derived automatically and the driver never
//                 blocks inside the iteration loop
//
// Each iteration performs save_soln then two RK-like stages of
// adt_calc / res_calc / bres_calc / update, exactly as the original
// benchmark does; `rms` is the convergence monitor.  The loops' kernels,
// names, sets and argument lists live once in the loop table
// (airfoil/loops.hpp); a driver adds only its launch verb and where it
// waits.
#pragma once

#include <string>
#include <vector>

#include "airfoil/mesh.hpp"
#include "op2/op2.hpp"

namespace airfoil {

/// One simulation instance: mesh plus solution dats.
struct sim {
  op2::mesh mesh;
  op2::op_set nodes, cells, edges, bedges;
  op2::op_map pcell, pedge, pecell, pbedge, pbecell;
  op2::op_dat p_x, p_bound;        // geometry (from the mesh)
  op2::op_dat p_q, p_qold, p_adt, p_res;  // solution state
};

/// Builds a simulation over `m`, with q initialised to the free stream
/// and res/adt zeroed.
sim make_sim(op2::mesh m);

/// Resets the solution state to the free-stream initial condition.
void reset_solution(sim& s);

struct run_result {
  /// RMS residual after each iteration (sqrt(sum(del^2)/ncell), as the
  /// benchmark prints every 100 iterations).
  std::vector<double> rms_history;
  double seconds = 0.0;
};

run_result run_classic(sim& s, int niter);
run_result run_async(sim& s, int niter);
run_result run_dataflow(sim& s, int niter);

/// Runs the driver matching `backend_name`'s executor capabilities:
/// dataflow_api -> run_dataflow, asynchronous -> run_async, else
/// run_classic.  `backend_name` may be a canonical registry name or an
/// alias; throws the registry's "unknown backend ... available: ..."
/// error for mistyped names.  The caller must already have configured
/// the runtime for this backend (op2::init).
run_result run_with_backend(sim& s, int niter,
                            const std::string& backend_name);

/// Same, for the currently-configured backend.
run_result run_with_backend(sim& s, int niter);

/// Sum over all conservative variables — a cheap fingerprint used by
/// tests to confirm every backend computes the same flow field.
double solution_checksum(const sim& s);

}  // namespace airfoil
