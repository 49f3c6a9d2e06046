// Model-validation harness: runs the REAL Airfoil on this machine and
// the simulator on the SAME mesh with kernel costs measured here, then
// compares predicted vs actual time — the ground-truth check that the
// virtual node's accounting is anchored to reality where reality is
// available (1..2 threads on this box).
#include <cstdio>
#include <thread>

#include "figure_common.hpp"

int main() {
  figures::print_header(
      "Model validation: simulator vs real execution",
      "same mesh, kernel costs measured on this machine; ms/iteration");
  const airfoil::mesh_params mp{200, 50};
  constexpr int real_iters = 10;
  constexpr int block = 128;

  // Engine-anchored kernel costs: each loop timed THROUGH op_par_loop,
  // so the model carries the engine's real per-element speed.
  op2::init({op2::backend::seq, 1, block, 0});
  auto s = airfoil::make_sim(airfoil::generate_mesh(mp));
  const auto raw = airfoil::measure_kernel_costs(s, 3);
  airfoil::reset_solution(s);
  const auto costs = airfoil::measure_loop_costs(s, 5);
  const auto shape = airfoil::extract_shape(s, costs, block, 1);
  op2::finalize();
  std::printf("us/elem raw kernels:  %.3f %.3f %.3f %.3f %.3f\n", raw.save,
              raw.adt, raw.res, raw.bres, raw.update);
  std::printf("us/elem via engine:   %.3f %.3f %.3f %.3f %.3f\n",
              costs.save, costs.adt, costs.res, costs.bres, costs.update);

  static const simsched::machine_model machine{};
  static const simsched::overhead_model ov{};

  std::printf("%12s %10s | %12s %12s %8s\n", "method", "threads",
              "real ms/it", "sim ms/it", "ratio");
  // Validate every registered synchronous backend the simulator can
  // model (the fork-join-shaped ones; async methods overlap the driver,
  // so wall time is compared in fig15's cross-check instead).
  for (const auto& name : op2::backend_registry::names()) {
    const auto caps = op2::backend_registry::shared(name).capabilities();
    if (caps.asynchronous || caps.sim_method[0] == '\0') {
      continue;
    }
    const auto m = simsched::method_from_name(caps.sim_method);
    for (const unsigned t : {1u, 2u}) {
      op2::init(op2::make_config(name, t, block));
      auto sim = airfoil::make_sim(airfoil::generate_mesh(mp));
      const double real_ms =
          1000.0 * airfoil::run_with_backend(sim, real_iters, name).seconds /
          real_iters;
      op2::finalize();
      const double sim_ms =
          simsched::simulate_airfoil(shape, m, t, machine, ov) / 1000.0;
      std::printf("%12s %10u | %12.3f %12.3f %8.2f\n", name.c_str(), t,
                  real_ms, sim_ms, real_ms / sim_ms);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\nratio ~1 at 1 thread anchors the model; this machine reports "
              "%u hardware threads, so at 2 threads %s\n",
              hw,
              hw >= 2 ? "each thread has its own core and the ratio checks "
                        "the model's scaling"
                      : "the threads share one core, so real >= sim is "
                        "expected");
  return 0;
}
