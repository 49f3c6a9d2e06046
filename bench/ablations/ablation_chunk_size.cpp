// Ablation: grain-size (chunk-size) sweep for for_each — the design
// choice behind the paper's Fig 16 and §III-A1 discussion ("Grain size
// is the amount of time a task takes to execute ... HPX provides
// another way to avoid degrading the scalability").
//
// Two views:
//   [real] the actual hpxlite for_each on this machine across static
//          chunk sizes, plus the auto-partitioner
//   [sim]  the virtual 32-thread node across chunk sizes (blocks per
//          chunk)
#include <chrono>
#include <cstdio>
#include <vector>

#include "figure_common.hpp"

namespace {

double real_airfoil_seconds(std::size_t static_chunk) {
  op2::config cfg{op2::backend::hpx_foreach, 2, 128, static_chunk};
  // This ablation compares *fixed* chunkers against the serial-probe
  // auto-partitioner; keep the capture-time chunk out of the arms (it
  // has its own ablation, ablation_tuner).
  cfg.tuner = op2::tuner_mode::off;
  op2::init(cfg);
  auto s = airfoil::make_sim(airfoil::generate_mesh({96, 24}));
  // Warm the prepared handles first (mirrors model_adapter): the
  // measured window compares steady-state replays across chunk sizes,
  // not the one-time capture cost of a cold op_par_loop call site.
  airfoil::run_classic(s, 1);
  airfoil::reset_solution(s);
  const auto r = airfoil::run_classic(s, 4);
  op2::finalize();
  return r.seconds;
}

}  // namespace

int main() {
  figures::print_header(
      "Ablation: chunk size (grain size) for for_each",
      "[real] Airfoil on this machine, 2 workers, seconds for 4 "
      "iterations");
  std::printf("%16s %12s\n", "chunk", "seconds");
  std::printf("%16s %12.4f\n", "auto(1%)", real_airfoil_seconds(0));
  for (const std::size_t chunk : {1ul, 4ul, 16ul, 64ul, 256ul}) {
    std::printf("%16zu %12.4f\n", chunk, real_airfoil_seconds(chunk));
  }

  std::printf("\n[sim] virtual node, 32 threads, ms/iter for "
              "for_each(static chunk of N blocks)\n");
  const auto shape = figures::make_shape({});
  static const simsched::machine_model machine{};
  static const simsched::overhead_model overheads{};
  std::printf("%16s %12s\n", "blocks/chunk", "ms/iter");
  for (const std::size_t chunk : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul}) {
    const double us = simsched::simulate_airfoil(
        shape, simsched::method::hpx_foreach_static, 32, machine, overheads,
        chunk);
    std::printf("%16zu %12.3f\n", chunk,
                us / 1000.0 / figures::sim_iters);
  }
  const double auto_us = simsched::simulate_airfoil(
      shape, simsched::method::hpx_foreach_auto, 32, machine, overheads);
  std::printf("%16s %12.3f   <- pays the 1%% sequential probe\n", "auto(1%)",
              auto_us / 1000.0 / figures::sim_iters);
  return 0;
}
