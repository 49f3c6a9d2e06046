// Per-loop breakdown of the Airfoil iteration — the table OP2's own
// reporting prints (time share per op_par_loop).  Real execution on
// this machine plus the simulated 32-thread split, showing where the
// time goes (res_calc dominates) and how the methods shift it.
#include <chrono>
#include <cstdio>

#include "airfoil/loops.hpp"
#include "figure_common.hpp"

namespace {

struct loop_times {
  double save = 0.0;
  double adt = 0.0;
  double res = 0.0;
  double bres = 0.0;
  double update = 0.0;

  double total() const { return save + adt + res + bres + update; }
};

/// Times each of the five loops of a classic iteration, launched from
/// the Airfoil loop table one by one.
loop_times measure_real(airfoil::sim& s, int iters) {
  using clock = std::chrono::steady_clock;
  namespace loops = airfoil::loops;
  const loops::dats<op2::op_dat> d(s);
  loop_times t;
  const auto timed = [](double& acc, auto&& launch) {
    const auto t0 = clock::now();
    launch();
    acc += std::chrono::duration<double, std::milli>(clock::now() - t0)
               .count();
  };
  for (int iter = 0; iter < iters; ++iter) {
    timed(t.save, [&] { loops::save_soln(d).run(); });
    double rms = 0.0;
    for (int k = 0; k < 2; ++k) {
      timed(t.adt, [&] { loops::adt_calc(d).run(); });
      timed(t.res, [&] { loops::res_calc(d).run(); });
      timed(t.bres, [&] { loops::bres_calc(d).run(); });
      timed(t.update, [&] { loops::update(d, &rms).run(); });
    }
  }
  return t;
}

void print_row(const char* name, double ms, double total) {
  std::printf("%12s %10.2f %9.1f%%\n", name, ms, 100.0 * ms / total);
}

}  // namespace

int main() {
  figures::print_header("Loop breakdown: where the Airfoil iteration goes",
                        "[real] classic API, forkjoin backend, this machine");
  op2::init({op2::backend::forkjoin, 2, 128, 0});
  auto s = airfoil::make_sim(airfoil::generate_mesh({200, 50}));
  constexpr int iters = 10;
  const auto t = measure_real(s, iters);
  op2::finalize();
  std::printf("%12s %10s %10s   (%d iterations, 2 stages each)\n", "loop",
              "ms", "share", iters);
  print_row("save_soln", t.save, t.total());
  print_row("adt_calc", t.adt, t.total());
  print_row("res_calc", t.res, t.total());
  print_row("bres_calc", t.bres, t.total());
  print_row("update", t.update, t.total());
  std::printf("%12s %10.2f\n", "total", t.total());

  std::printf("\n[sim] share of kernel work at the model's calibrated "
              "costs\n");
  const auto shape = figures::make_shape({});
  const double save = shape.save.total_cost_us();
  const double adt = 2 * shape.adt.total_cost_us();
  const double res = 2 * shape.res.total_cost_us();
  const double bres = 2 * shape.bres.total_cost_us();
  const double update = 2 * shape.update.total_cost_us();
  const double total = save + adt + res + bres + update;
  std::printf("%12s %9.1f%%\n", "save_soln", 100.0 * save / total);
  std::printf("%12s %9.1f%%\n", "adt_calc", 100.0 * adt / total);
  std::printf("%12s %9.1f%%\n", "res_calc", 100.0 * res / total);
  std::printf("%12s %9.1f%%\n", "bres_calc", 100.0 * bres / total);
  std::printf("%12s %9.1f%%\n", "update", 100.0 * update / total);
  return 0;
}
