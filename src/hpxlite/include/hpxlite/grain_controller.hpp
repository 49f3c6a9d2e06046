// The grain of a prepared loop, chosen once.
//
// The paper's auto-partitioner (execution.hpp's auto_chunk_size) sizes
// chunks by serially executing ~1% of the loop *on every invocation*
// and throwing the measurement away.  For a solver that replays the
// same handful of loops thousands of times that probe is pure,
// repeated overhead.  A prepared loop instead asks for its chunk once,
// when its launch is captured, and keeps it for every replay (HPX's
// persistent_auto_chunk_size keeps its measurement the same way).  The
// chunk comes from a pure rule, default_chunk(n, workers) =
// max(1, n / (4 * workers)) for a range of n: at least four chunks per
// worker, the split parallel reduce uses.  Nothing is timed and nothing
// is re-chosen; a replay reads a static chunk.
//
// A grain_controller is op2::tuner's record of one loop key's choice:
// the chunk it last handed out and how many captures asked for it.
// Thread safety: lock-free; concurrent captures may share a controller.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "hpxlite/execution.hpp"

namespace hpxlite {

class grain_controller {
 public:
  /// probing: no chunk chosen yet; converged: chunk() has chosen one.
  enum class state { probing, converged };

  struct options {
    /// Probing feeds before the chunk locks — the warm-up cap: none,
    /// the first chunk() call fixes it.
    int max_probe_feeds = 0;
  };

  /// The chunk for a range of `n` on `workers` workers:
  /// default_chunk(n, workers), recorded as the current chunk.
  std::size_t chunk(std::size_t n, unsigned workers) {
    const std::size_t c = default_chunk(n, workers);
    chunk_.store(c, std::memory_order_relaxed);
    uses_.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  /// Forgets the choice: back to probing with no uses.
  void reset() {
    chunk_.store(0, std::memory_order_relaxed);
    uses_.store(0, std::memory_order_relaxed);
  }

  state current_state() const {
    return current_chunk() == 0 ? state::probing : state::converged;
  }
  std::size_t current_chunk() const {
    return chunk_.load(std::memory_order_relaxed);
  }
  /// chunk() calls since construction or the last reset().
  std::uint64_t uses() const { return uses_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> chunk_{0};  // 0 = not chosen yet
  std::atomic<std::uint64_t> uses_{0};
};

constexpr const char* to_string(grain_controller::state s) {
  return s == grain_controller::state::probing ? "probing" : "converged";
}

}  // namespace hpxlite
