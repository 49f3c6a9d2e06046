// Execution policies and chunkers (grain-size control).
//
// The paper's listings use exactly this surface:
//
//   hpx::parallel::for_each(par, r.begin(), r.end(), body);
//   hpx::parallel::for_each(par(task), ...);           // -> future<void>
//   static_chunk_size scs(size);
//   hpx::parallel::for_each(par.with(scs), ...);
//
// Grain size ("the amount of time a task takes to execute") is decided
// by a chunker:
//   auto_chunk_size    — the paper's auto-partitioner: sequentially
//                        execute ~1% of the loop, time it, and size
//                        chunks so each takes ~target task time
//   static_chunk_size  — fixed iterations per task
//   dynamic_chunk_size — workers repeatedly grab fixed-size chunks off a
//                        shared counter (load balancing for irregular
//                        bodies)
//   guided_chunk_size  — exponentially decreasing chunks
//
// default_chunk(n, workers) = max(1, n / (4 * workers)) is the one grain
// rule without a probe: reduce's split, and the static chunk a prepared
// op2 loop is given at capture (grain_controller.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <variant>

#include "hpxlite/stop_token.hpp"

namespace hpxlite {

/// max(1, n / (4 * workers)): at least four chunks per worker.
constexpr std::size_t default_chunk(std::size_t n, unsigned workers) {
  const std::size_t c =
      n / (4 * static_cast<std::size_t>(workers == 0 ? 1 : workers));
  return c == 0 ? 1 : c;
}

/// The paper's auto-partitioner.  `measure_fraction` of the iteration
/// space (at least one iteration) is executed sequentially and timed;
/// the chunk size is then chosen so one chunk costs ~`target_task_time`.
struct auto_chunk_size {
  double measure_fraction = 0.01;
  std::chrono::microseconds target_task_time{200};
};

/// Fixed number of iterations per task.
struct static_chunk_size {
  explicit static_chunk_size(std::size_t s) : size(s == 0 ? 1 : s) {}
  std::size_t size;
};

/// Workers pull `size`-iteration chunks off a shared atomic counter.
struct dynamic_chunk_size {
  explicit dynamic_chunk_size(std::size_t s) : size(s == 0 ? 1 : s) {}
  std::size_t size;
};

/// OpenMP-guided-style: each grab takes remaining/(k*workers), floored
/// at `min_size`.
struct guided_chunk_size {
  explicit guided_chunk_size(std::size_t min = 1)
      : min_size(min == 0 ? 1 : min) {}
  std::size_t min_size;
};

using chunk_spec = std::variant<auto_chunk_size, static_chunk_size,
                                dynamic_chunk_size, guided_chunk_size>;

/// Tag selecting the task (asynchronous) flavour of a policy: par(task).
struct task_policy_tag {};
inline constexpr task_policy_tag task{};

class parallel_task_policy;

/// Synchronous parallel execution policy (like hpx::parallel::par).
class parallel_policy {
 public:
  parallel_policy() = default;
  explicit parallel_policy(chunk_spec chunk, stop_token stop = {})
      : chunk_(chunk), stop_(std::move(stop)) {}

  /// par(task) — asynchronous flavour returning futures.
  parallel_task_policy operator()(task_policy_tag) const;

  /// par.with(chunker) — same policy with an explicit grain size.
  parallel_policy with(chunk_spec chunk) const {
    return parallel_policy(chunk, stop_);
  }

  /// par.with(token) — same policy, cancellable: workers poll the token
  /// between chunks and resolve the join future to operation_cancelled.
  parallel_policy with(stop_token stop) const {
    return parallel_policy(chunk_, std::move(stop));
  }

  const chunk_spec& chunk() const { return chunk_; }
  const stop_token& stop() const { return stop_; }

 private:
  chunk_spec chunk_ = auto_chunk_size{};
  stop_token stop_;
};

/// Asynchronous parallel execution policy (like par(task)); algorithms
/// run under it return future<> instead of blocking.
class parallel_task_policy {
 public:
  parallel_task_policy() = default;
  explicit parallel_task_policy(chunk_spec chunk, stop_token stop = {})
      : chunk_(chunk), stop_(std::move(stop)) {}

  parallel_task_policy with(chunk_spec chunk) const {
    return parallel_task_policy(chunk, stop_);
  }

  parallel_task_policy with(stop_token stop) const {
    return parallel_task_policy(chunk_, std::move(stop));
  }

  const chunk_spec& chunk() const { return chunk_; }
  const stop_token& stop() const { return stop_; }

 private:
  chunk_spec chunk_ = auto_chunk_size{};
  stop_token stop_;
};

inline parallel_task_policy parallel_policy::operator()(
    task_policy_tag) const {
  return parallel_task_policy(chunk_, stop_);
}

/// Sequential policy (reference semantics for tests/benchmarks).
class sequenced_policy {
 public:
  constexpr sequenced_policy() = default;
};

inline const parallel_policy par{};
inline constexpr sequenced_policy seq{};

namespace detail {

template <typename Policy>
inline constexpr bool is_task_policy_v =
    std::is_same_v<std::decay_t<Policy>, parallel_task_policy>;

}  // namespace detail

}  // namespace hpxlite
