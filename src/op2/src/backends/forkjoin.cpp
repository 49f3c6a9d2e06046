// forkjoin — the OpenMP `#pragma omp parallel for` baseline: one
// fork-join episode (== one implicit global barrier) per colour,
// executed on the persistent team op2::init creates.  A static chunk —
// explicit, or the one a prepared loop is given at capture — maps to
// schedule(static, chunk), dealt round-robin; the auto/dynamic/guided
// chunkers keep OpenMP's default one-range-per-worker split.
#include <cstddef>
#include <memory>
#include <variant>

#include "backends/builtin.hpp"
#include "op2/loop_executor.hpp"
#include "op2/runtime.hpp"

namespace op2::backends {

namespace {

class forkjoin_executor final : public loop_executor {
 public:
  std::string_view name() const noexcept override { return "forkjoin"; }

  executor_caps capabilities() const noexcept override {
    executor_caps caps;
    caps.needs_forkjoin_team = true;
    caps.honors_chunk = true;
    caps.sim_method = "omp_forkjoin";
    return caps;
  }

  void run_direct(const loop_launch& loop) override { run_colored(loop); }

  void run_indirect(const loop_launch& loop) override { run_colored(loop); }

 private:
  static void run_colored(const loop_launch& loop) {
    auto& tm = team();
    const auto* st = std::get_if<hpxlite::static_chunk_size>(&loop.chunk);
    for (const auto& blocks : loop.plan->color_blocks) {
      // Poll the cancel token between blocks: the team rethrows the
      // first member's operation_cancelled after the barrier, so a
      // cancelled loop abandons within one block per worker.
      const auto body = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k != hi; ++k) {
          loop.cancel.throw_if_stopped();
          loop.run_block(blocks[k]);
        }
      };
      if (st == nullptr) {
        tm.parallel_for(blocks.size(), body);
      } else {
        tm.parallel_for_chunked(blocks.size(), st->size, body);
      }
    }
  }
};

}  // namespace

void register_forkjoin_backend() {
  backend_registry::register_backend(
      "forkjoin", [] { return std::make_unique<forkjoin_executor>(); });
}

}  // namespace op2::backends
