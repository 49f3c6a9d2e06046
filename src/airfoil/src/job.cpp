#include "airfoil/job.hpp"

#include <cmath>
#include <stdexcept>

#include "airfoil/loops.hpp"

namespace airfoil {

namespace {

void check_stop(const hpxlite::stop_token& stop) {
  if (stop.stop_requested()) {
    throw hpxlite::operation_cancelled("airfoil job cancelled");
  }
}

}  // namespace

job_output run_job(const job_params& params, job_workspace& workspace,
                   const hpxlite::stop_token& stop) {
  std::lock_guard<hpxlite::spinlock> serialise(workspace.lock);

  if (!workspace.state) {
    mesh_params mp;
    mp.imax = params.imax;
    mp.jmax = params.jmax;
    workspace.state = workspace.session.adopt(
        std::make_shared<sim>(make_sim(generate_mesh(mp))));
  }
  sim& s = *workspace.state;
  if (s.cells.size() != params.imax * params.jmax) {
    throw std::invalid_argument(
        "airfoil::run_job: workspace was built for a different mesh size");
  }

  // Every attempt starts from the pristine free-stream state, so a
  // retry after a corrupt-fault failure cannot inherit poisoned cells.
  reset_solution(s);

  job_output out;
  double rms = 0.0;
  const loops::dats<op2::op_dat> d(s);
  auto& session = workspace.session;
  for (int iter = 0; iter < params.niter; ++iter) {
    check_stop(stop);
    loops::save_soln(d).run(session.handle("save_soln"));
    out.loops += 1;

    for (int k = 0; k < 2; ++k) {
      check_stop(stop);
      rms = 0.0;
      loops::adt_calc(d).run(session.handle("adt_calc"));
      loops::res_calc(d).run(session.handle("res_calc"));
      loops::bres_calc(d).run(session.handle("bres_calc"));
      loops::update(d, &rms).run(session.handle("update"));
      out.loops += 4;
    }
    out.iterations = iter + 1;
  }

  out.final_rms = std::sqrt(rms / static_cast<double>(s.cells.size()));
  out.checksum = solution_checksum(s);
  if (!std::isfinite(out.final_rms) || !std::isfinite(out.checksum)) {
    throw std::runtime_error(
        "airfoil::run_job: non-finite solution (unhealed corruption)");
  }
  if (params.keep_solution) {
    auto q = s.p_q.data<double>();
    out.solution.assign(q.begin(), q.end());
  }
  return out;
}

}  // namespace airfoil
