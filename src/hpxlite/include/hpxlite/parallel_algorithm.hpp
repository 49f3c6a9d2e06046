// Parallel algorithms: for_each, for_loop, transform, reduce,
// transform_reduce — over random-access iterators, driven by the
// execution policies in execution.hpp.
//
// All algorithms share one partitioning engine:
//   1. the chunker turns the iteration count into work chunks,
//   2. each chunk becomes one runtime task,
//   3. a join block counts chunks down and fulfils a future<void> (task
//      policies return it; synchronous policies wait on it, helping).
//
// This file is the hpxlite side of the paper's Section III-A: the OP2
// code generator emits calls to these algorithms instead of
// `#pragma omp parallel for`.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <iterator>
#include <memory>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "hpxlite/execution.hpp"
#include "hpxlite/future.hpp"
#include "hpxlite/scheduler.hpp"

namespace hpxlite::parallel {

namespace detail {

using hpxlite::detail::shared_state;
using hpxlite::detail::unit;

/// Join block shared by all chunk tasks of one algorithm invocation.
struct join_block {
  explicit join_block(std::size_t chunks) : remaining(chunks) {}

  void chunk_done() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish();
    }
  }

  void chunk_failed(std::exception_ptr ep) {
    {
      std::lock_guard<spinlock> lock(error_lock);
      if (!error) {
        error = std::move(ep);
      }
    }
    chunk_done();
  }

  void finish() {
    if (error) {
      state->set_exception(std::move(error));
    } else {
      state->set_value(unit{});
    }
  }

  std::atomic<std::size_t> remaining;
  spinlock error_lock;
  std::exception_ptr error;
  std::shared_ptr<shared_state<void>> state =
      hpxlite::detail::make_pooled_state<void>();
};

/// Decides the static chunk size for `n` iterations under `spec`,
/// executing (and timing) a sequential prefix for auto_chunk_size.
/// `run_prefix(count)` must execute the first `count` iterations and is
/// only called for the auto chunker.  Returns {chunk, prefix_done}.
template <typename RunPrefix>
std::pair<std::size_t, std::size_t> pick_static_chunk(
    const chunk_spec& spec, std::size_t n, unsigned workers,
    RunPrefix&& run_prefix) {
  if (const auto* st = std::get_if<static_chunk_size>(&spec)) {
    return {st->size, 0};
  }
  const auto& ac = std::get<auto_chunk_size>(spec);
  // The paper: "the auto-partitioner algorithm ... estimates the chunk
  // size by sequentially executing 1% of the loop".
  std::size_t probe = static_cast<std::size_t>(
      static_cast<double>(n) * ac.measure_fraction);
  if (probe == 0 || probe > n) {
    // The set is too small for the probe fraction to cover even one
    // iteration — a timed sample would be all overhead and no signal.
    // Skip the probe entirely and run the whole range as one chunk.
    return {n == 0 ? 1 : n, 0};
  }
  const auto t0 = std::chrono::steady_clock::now();
  run_prefix(probe);
  const auto dt = std::chrono::steady_clock::now() - t0;
  const double per_iter_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
      static_cast<double>(probe);
  const double target_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              ac.target_task_time)
                              .count());
  std::size_t chunk =
      per_iter_ns <= 0.0
          ? n
          : static_cast<std::size_t>(target_ns / per_iter_ns);
  if (chunk == 0) {
    chunk = 1;
  }
  // Keep at least one chunk per worker when the loop is big enough.
  const std::size_t rest = n - probe;
  if (rest > workers) {
    const std::size_t per_worker = rest / workers;
    if (chunk > per_worker && per_worker > 0) {
      chunk = per_worker;
    }
  }
  return {chunk, probe};
}

/// Core engine: run body(i_begin, i_end) over [begin, n) as tasks.
/// Returns the join future.  When `stop` is attached, workers poll it
/// before every chunk (and between pull-model claims); a requested stop
/// resolves the join future to operation_cancelled without running the
/// remaining chunks.  Chunks already executing run to completion —
/// cancellation is cooperative, never preemptive.
template <typename ChunkBody>
future<void> run_chunked(const chunk_spec& spec, std::size_t n,
                         ChunkBody body, stop_token stop = {}) {
  if (n == 0) {
    return make_ready_future();
  }
  if (stop.stop_requested()) {
    return make_exceptional_future<void>(
        std::make_exception_ptr(operation_cancelled()));
  }
  runtime& rt = ambient_runtime();
  const unsigned workers = rt.concurrency();

  // Dynamic and guided chunkers share a pull model: `workers` tasks
  // repeatedly claim ranges off an atomic cursor.
  const bool dynamic = std::holds_alternative<dynamic_chunk_size>(spec);
  const bool guided = std::holds_alternative<guided_chunk_size>(spec);
  if (dynamic || guided) {
    struct cursor_block {
      std::atomic<std::size_t> next{0};
    };
    auto cursor = std::make_shared<cursor_block>();
    const std::size_t fixed =
        dynamic ? std::get<dynamic_chunk_size>(spec).size : 0;
    const std::size_t guided_min =
        guided ? std::get<guided_chunk_size>(spec).min_size : 1;
    auto join = std::make_shared<join_block>(workers);
    for (unsigned w = 0; w < workers; ++w) {
      rt.submit([join, cursor, body, n, fixed, guided_min, workers, stop] {
        try {
          for (;;) {
            stop.throw_if_stopped();
            std::size_t want = fixed;
            if (want == 0) {  // guided: proportional to what remains
              const std::size_t done =
                  cursor->next.load(std::memory_order_relaxed);
              const std::size_t rest = done < n ? n - done : 0;
              want = rest / (2 * workers);
              if (want < guided_min) {
                want = guided_min;
              }
            }
            const std::size_t begin =
                cursor->next.fetch_add(want, std::memory_order_relaxed);
            if (begin >= n) {
              break;
            }
            const std::size_t end = begin + want < n ? begin + want : n;
            body(begin, end);
          }
          join->chunk_done();
        } catch (...) {
          join->chunk_failed(std::current_exception());
        }
      });
    }
    return future<void>(join->state);
  }

  // Static / auto chunkers: fixed partition up front.
  auto [chunk, prefix] = pick_static_chunk(
      spec, n, workers, [&](std::size_t count) { body(0, count); });
  const std::size_t rest = n - prefix;
  if (rest == 0) {
    return make_ready_future();
  }
  const std::size_t nchunks = (rest + chunk - 1) / chunk;
  auto join = std::make_shared<join_block>(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = prefix + c * chunk;
    const std::size_t end = begin + chunk < n ? begin + chunk : n;
    rt.submit([join, body, begin, end, stop] {
      try {
        stop.throw_if_stopped();
        body(begin, end);
        join->chunk_done();
      } catch (...) {
        join->chunk_failed(std::current_exception());
      }
    });
  }
  return future<void>(join->state);
}

template <typename Policy>
const chunk_spec& chunk_of(const Policy& p) {
  return p.chunk();
}

}  // namespace detail

// ---------------------------------------------------------------------
// for_each

/// Sequential for_each (sequenced_policy).
template <typename It, typename F>
void for_each(sequenced_policy, It first, It last, F f) {
  for (; first != last; ++first) {
    f(*first);
  }
}

/// Parallel for_each: blocks until all iterations complete (helping run
/// other tasks while it waits).  Fork-join shaped, like the paper's
/// Section III-A1.
template <typename It, typename F>
void for_each(const parallel_policy& policy, It first, It last, F f) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  detail::run_chunked(
      policy.chunk(), n,
      [first, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          f(first[static_cast<std::ptrdiff_t>(i)]);
        }
      },
      policy.stop())
      .get();
}

/// Asynchronous for_each: returns a future<void> that becomes ready when
/// the loop has fully executed (par(task), Section III-A2).
template <typename It, typename F>
future<void> for_each(const parallel_task_policy& policy, It first, It last,
                      F f) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::run_chunked(
      policy.chunk(), n,
      [first, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          f(first[static_cast<std::ptrdiff_t>(i)]);
        }
      },
      policy.stop());
}

// ---------------------------------------------------------------------
// for_loop (index-based convenience, mirrors hpx::for_loop)

template <typename Int, typename F>
void for_loop(sequenced_policy, Int first, Int last, F f) {
  for (Int i = first; i < last; ++i) {
    f(i);
  }
}

template <typename Int, typename F>
void for_loop(const parallel_policy& policy, Int first, Int last, F f) {
  if (last <= first) {
    return;
  }
  const auto n = static_cast<std::size_t>(last - first);
  detail::run_chunked(
      policy.chunk(), n,
      [first, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          f(static_cast<Int>(first + static_cast<Int>(i)));
        }
      },
      policy.stop())
      .get();
}

template <typename Int, typename F>
future<void> for_loop(const parallel_task_policy& policy, Int first, Int last,
                      F f) {
  if (last <= first) {
    return make_ready_future();
  }
  const auto n = static_cast<std::size_t>(last - first);
  return detail::run_chunked(
      policy.chunk(), n,
      [first, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          f(static_cast<Int>(first + static_cast<Int>(i)));
        }
      },
      policy.stop());
}

// ---------------------------------------------------------------------
// transform

template <typename It, typename Out, typename F>
Out transform(sequenced_policy, It first, It last, Out out, F f) {
  for (; first != last; ++first, ++out) {
    *out = f(*first);
  }
  return out;
}

template <typename It, typename Out, typename F>
Out transform(const parallel_policy& policy, It first, It last, Out out,
              F f) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  detail::run_chunked(
      policy.chunk(), n,
      [first, out, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          const auto d = static_cast<std::ptrdiff_t>(i);
          out[d] = f(first[d]);
        }
      },
      policy.stop())
      .get();
  return out + static_cast<std::ptrdiff_t>(n);
}

template <typename It, typename Out, typename F>
future<void> transform(const parallel_task_policy& policy, It first, It last,
                       Out out, F f) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::run_chunked(
      policy.chunk(), n,
      [first, out, f](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i != e; ++i) {
          const auto d = static_cast<std::ptrdiff_t>(i);
          out[d] = f(first[d]);
        }
      },
      policy.stop());
}

// ---------------------------------------------------------------------
// reduce / transform_reduce

template <typename It, typename T, typename Op>
T reduce(sequenced_policy, It first, It last, T init, Op op) {
  for (; first != last; ++first) {
    init = op(std::move(init), *first);
  }
  return init;
}

namespace detail {

/// Shared partial-result engine for reduce/transform_reduce.  `leaf`
/// maps one iteration to a value of T; partials combine with `op`.
/// Combination order is deterministic (by chunk index), so the result
/// is reproducible run-to-run for a fixed worker count and chunking.
template <typename T, typename Op, typename Leaf>
future<T> reduce_chunked(const chunk_spec& spec, std::size_t n, T init, Op op,
                         Leaf leaf, stop_token stop = {}) {
  if (n == 0) {
    return make_ready_future(std::move(init));
  }
  if (stop.stop_requested()) {
    return make_exceptional_future<T>(
        std::make_exception_ptr(operation_cancelled()));
  }
  // Partials indexed by chunk are written without synchronisation: each
  // chunk owns its slot.  We need the chunk count up front, so reduce
  // always uses an up-front static partition (auto/dynamic chunkers are
  // normalised to a static one sized for the worker count).
  runtime& rt = ambient_runtime();
  const unsigned workers = rt.concurrency();
  const auto* st = std::get_if<static_chunk_size>(&spec);
  const std::size_t chunk = st ? st->size : default_chunk(n, workers);
  const std::size_t nchunks = (n + chunk - 1) / chunk;

  struct reduce_block {
    explicit reduce_block(std::size_t k) : partials(k), remaining(k) {}
    std::vector<std::optional<T>> partials;
    std::atomic<std::size_t> remaining;
    spinlock error_lock;
    std::exception_ptr error;
    std::shared_ptr<shared_state<T>> state =
        hpxlite::detail::make_pooled_state<T>();
  };
  auto block = std::make_shared<reduce_block>(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = begin + chunk < n ? begin + chunk : n;
    rt.submit([block, leaf, op, begin, end, c, init, stop] {
      try {
        stop.throw_if_stopped();
        // Seed each chunk from its first element (std::reduce
        // semantics: `init` participates exactly once, at the final
        // combine), so the result does not depend on the chunk count.
        T acc(leaf(begin));
        for (std::size_t i = begin + 1; i != end; ++i) {
          acc = op(std::move(acc), leaf(i));
        }
        block->partials[c].emplace(std::move(acc));
      } catch (...) {
        std::lock_guard<spinlock> lock(block->error_lock);
        if (!block->error) {
          block->error = std::current_exception();
        }
      }
      if (block->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (block->error) {
          block->state->set_exception(std::move(block->error));
          return;
        }
        T total = init;
        for (auto& partial : block->partials) {
          total = op(std::move(total), std::move(*partial));
        }
        block->state->set_value(std::move(total));
      }
    });
  }
  return future<T>(block->state);
}

}  // namespace detail

template <typename It, typename T, typename Op>
T reduce(const parallel_policy& policy, It first, It last, T init, Op op) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::reduce_chunked(
             policy.chunk(), n, std::move(init), op,
             [first](std::size_t i) -> decltype(auto) {
               return first[static_cast<std::ptrdiff_t>(i)];
             },
             policy.stop())
      .get();
}

template <typename It, typename T, typename Op>
future<T> reduce(const parallel_task_policy& policy, It first, It last,
                 T init, Op op) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::reduce_chunked(
      policy.chunk(), n, std::move(init), op,
      [first](std::size_t i) -> decltype(auto) {
        return first[static_cast<std::ptrdiff_t>(i)];
      },
      policy.stop());
}

template <typename It, typename T, typename Reduce, typename Convert>
T transform_reduce(sequenced_policy, It first, It last, T init, Reduce red,
                   Convert conv) {
  for (; first != last; ++first) {
    init = red(std::move(init), conv(*first));
  }
  return init;
}

template <typename It, typename T, typename Reduce, typename Convert>
T transform_reduce(const parallel_policy& policy, It first, It last, T init,
                   Reduce red, Convert conv) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::reduce_chunked(
             policy.chunk(), n, std::move(init), red,
             [first, conv](std::size_t i) {
               return conv(first[static_cast<std::ptrdiff_t>(i)]);
             },
             policy.stop())
      .get();
}

template <typename It, typename T, typename Reduce, typename Convert>
future<T> transform_reduce(const parallel_task_policy& policy, It first,
                           It last, T init, Reduce red, Convert conv) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  return detail::reduce_chunked(
      policy.chunk(), n, std::move(init), red,
      [first, conv](std::size_t i) {
        return conv(first[static_cast<std::ptrdiff_t>(i)]);
      },
      policy.stop());
}

}  // namespace hpxlite::parallel
