// hpxlite::dataflow — delayed function invocation gated on future
// arguments, the mechanism behind the paper's Section III-B (modified
// OP2 API):
//
//   return dataflow(unwrapping([&](op_dat dat){ ... }), dat_future);
//
// Semantics (matching hpx::dataflow / hpx::lcos::local::dataflow):
//   - any argument that is a future/shared_future delays the call until
//     it is ready; non-future arguments pass straight through
//   - the callable receives the *futures themselves*; wrap it in
//     unwrapping(f) to receive the contained values instead
//   - the call is scheduled as a runtime task once the last input
//     arrives ("As soon as the last input argument has been received,
//     the function F is scheduled for execution", Fig 11)
//   - if the callable itself returns a future, the result is unwrapped
//     one level, so chains of dataflow nodes compose without nesting
//
// A dataflow node is ONE pooled operation state: the result's shared
// state, the callable, the argument tuple and one intrusive arm per
// future input (the arm count is a compile-time constant, so the arms
// ride inline) — versus the historical shared-state + frame + one heap
// closure per input.  Arming allocates nothing.
#pragma once

#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "hpxlite/async.hpp"
#include "hpxlite/future.hpp"

namespace hpxlite {

namespace detail {

/// unwrapping(f) adaptor: replaces future arguments by their values at
/// invocation time.  shared_future yields a copy of the value, future
/// is consumed via get().
template <typename F>
struct unwrapping_adaptor {
  F fn;

  template <typename Arg>
  static decltype(auto) unwrap_one(Arg&& arg) {
    if constexpr (is_future_v<Arg>) {
      if constexpr (std::is_void_v<future_value_t<Arg>>) {
        // Void futures contribute no argument; callers use a tag.
        std::forward<Arg>(arg).get();
        return unit{};
      } else {
        return std::forward<Arg>(arg).get();
      }
    } else {
      return std::forward<Arg>(arg);
    }
  }

  template <typename... Args>
  decltype(auto) operator()(Args&&... args) {
    return invoke_filtered(std::forward_as_tuple(std::forward<Args>(args)...),
                           std::index_sequence_for<Args...>{});
  }

 private:
  // Void-future arguments are awaited but dropped from the call, so an
  // unwrapped callable never has to accept placeholder parameters.
  template <typename Tuple, std::size_t... Is>
  decltype(auto) invoke_filtered(Tuple&& tup, std::index_sequence<Is...>) {
    return invoke_drop_units(
        std::tuple_cat(keep_or_drop<Is>(std::forward<Tuple>(tup))...));
  }

  template <std::size_t I, typename Tuple>
  auto keep_or_drop(Tuple&& tup) {
    using elem_t = std::tuple_element_t<I, std::decay_t<Tuple>>;
    if constexpr (is_future_v<elem_t> &&
                  std::is_void_v<future_value_t<elem_t>>) {
      std::get<I>(std::forward<Tuple>(tup)).get();
      return std::tuple<>{};
    } else if constexpr (is_future_v<elem_t>) {
      return std::make_tuple(std::get<I>(std::forward<Tuple>(tup)).get());
    } else {
      return std::forward_as_tuple(std::get<I>(std::forward<Tuple>(tup)));
    }
  }

  template <typename Tuple>
  decltype(auto) invoke_drop_units(Tuple&& tup) {
    return std::apply(fn, std::forward<Tuple>(tup));
  }
};

/// Result type of invoking F on the decayed dataflow arguments.  The
/// stored arguments are MOVED into the call (futures are move-only), so
/// invocability is checked against rvalues.
template <typename F, typename... Ts>
using dataflow_result_t = std::invoke_result_t<F&, std::decay_t<Ts>&&...>;

/// A dataflow node's callable and its stored arguments.
template <typename F, typename Tuple>
struct node_body {
  F fn;
  Tuple args;
};

/// What a node body produced: its value (unit for void) or the
/// exception it threw (operation_cancelled included).
template <typename R>
struct body_outcome {
  std::optional<std::conditional_t<std::is_void_v<R>, unit, R>> value;
  std::exception_ptr error;
};

/// Invokes the body, then destroys the callable and its arguments.
/// Callers publish the outcome only afterwards, so a waiter woken by the
/// publication finds every capture already released.
template <typename R, typename Body>
body_outcome<R> invoke_and_release(std::optional<Body>& body) {
  body_outcome<R> out;
  try {
    if constexpr (std::is_void_v<R>) {
      std::apply(body->fn, std::move(body->args));
      out.value.emplace();
    } else {
      out.value.emplace(std::apply(body->fn, std::move(body->args)));
    }
  } catch (...) {
    out.error = std::current_exception();
  }
  body.reset();
  return out;
}

/// future<future<U>> collapses to future<U>; everything else maps to
/// future<R> (R possibly void).
template <typename R>
struct unwrap_result {
  using type = future<R>;
  template <typename State, typename Body>
  static void fulfil(State& state, std::optional<Body>& body) {
    auto out = invoke_and_release<R>(body);
    if (out.error) {
      // operation_cancelled too: set_stopped(e) is set_error(e).
      state->set_error(std::move(out.error));
    } else {
      state->set_value(std::move(*out.value));
    }
  }
};

template <typename U>
struct unwrap_result<future<U>> {
  using type = future<U>;
  template <typename State, typename Body>
  static void fulfil(State& state, std::optional<Body>& body) {
    auto out = invoke_and_release<future<U>>(body);
    if (!out.error && !out.value->valid()) {
      out.error = std::make_exception_ptr(no_state());
    }
    if (out.error) {
      state->set_error(std::move(out.error));
      return;
    }
    auto inner_state = out.value->release_state();
    inner_state->add_continuation(
        [state, inner_state] {
          try {
            if constexpr (std::is_void_v<U>) {
              inner_state->throw_if_exceptional();
              state->set_value(unit{});
            } else {
              state->set_value(inner_state->take_value());
            }
          } catch (const operation_cancelled&) {
            state->set_stopped(std::current_exception());
          } catch (...) {
            state->set_error(std::current_exception());
          }
        },
        continuation_mode::inline_);
  }
};

template <typename R>
struct dataflow_value {
  using type = R;
};
template <typename U>
struct dataflow_value<future<U>> {
  using type = U;
};

/// Counts the future-typed arguments in Ts.
template <typename... Ts>
inline constexpr std::size_t future_arg_count_v =
    (0 + ... + (is_future_v<Ts> ? 1 : 0));

/// The dataflow operation state: result state, callable, argument
/// tuple, completion countdown and the input arms — one object, one
/// pooled allocation.  `self` is the keepalive that survives from
/// arming until the node body has been scheduled.
template <typename V, typename F, typename... Ts>
struct dataflow_op final {
  static constexpr std::size_t nfutures = future_arg_count_v<Ts...>;

  struct arm final : continuation_node {
    dataflow_op* owner = nullptr;
    arm() {
      fire = &dataflow_op::arm_fire;
      abandon = &dataflow_op::arm_abandon;
      mode = continuation_mode::inline_;
    }
  };

  using body_t = node_body<F, std::tuple<std::decay_t<Ts>...>>;

  shared_state<V> result;
  // Destroyed as soon as the body has run (invoke_and_release).
  std::optional<body_t> body;
  std::atomic<std::size_t> remaining{nfutures};
  launch policy;
  std::array<arm, nfutures == 0 ? 1 : nfutures> arms;
  std::shared_ptr<dataflow_op> self;

  template <typename Fc, typename... Tc>
  dataflow_op(launch policy_, Fc&& f_, Tc&&... args_)
      : body(std::in_place, std::forward<Fc>(f_),
             std::tuple<std::decay_t<Ts>...>(std::forward<Tc>(args_)...)),
        policy(policy_) {
    for (auto& a : arms) {
      a.owner = this;
    }
  }

  static void arm_fire(continuation_node* node) {
    auto* owner = static_cast<arm*>(node)->owner;
    if (owner->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run(std::move(owner->self));
    }
  }

  static void arm_abandon(continuation_node* node) noexcept {
    // An input state died unresolved; unreachable in practice (the held
    // argument futures pin every input), kept defensive: resolve the
    // node exceptionally so downstream consumers are not left hanging.
    auto* owner = static_cast<arm*>(node)->owner;
    if (owner->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      auto keep = std::move(owner->self);
      owner->result.set_error(std::make_exception_ptr(broken_promise()));
    }
  }

  /// Last input arrived: schedule (or run) the body.  `keep` is the
  /// arming keepalive; the submit thunk takes it over, so the op stays
  /// alive through execution even if the consumer drops the future.
  static void run(std::shared_ptr<dataflow_op> keep) {
    if (keep->policy == launch::async) {
      // Prefer the arming worker's own pool (stays valid during a
      // teardown drain); fall back to the default instance, or run
      // inline when no runtime is up.
      runtime* rt = runtime::current();
      if (rt == nullptr && runtime::exists()) {
        rt = &runtime::get();
      }
      if (rt != nullptr) {
        auto thunk = [keep = std::move(keep)]() mutable {
          invoke(std::move(keep));
        };
        static_assert(task_function::stores_inline<decltype(thunk)>,
                      "dataflow body thunk must ride in the task_function "
                      "small buffer");
        rt->submit(std::move(thunk));
        return;
      }
    }
    invoke(std::move(keep));
  }

  static void invoke(std::shared_ptr<dataflow_op> keep) {
    using unwrapper = unwrap_result<dataflow_result_t<F, Ts...>>;
    dataflow_op* op = keep.get();
    // Nested-future unwrapping parks a continuation that must pin this
    // op, so the result state is handed over as an aliased shared_ptr
    // (no allocation — it shares the op's control block).
    shared_state_ptr<V> state(keep, &op->result);
    keep.reset();
    unwrapper::fulfil(state, op->body);
  }
};

}  // namespace detail

/// Wraps `f` so that future arguments are passed as their values.
template <typename F>
auto unwrapping(F&& f) {
  return detail::unwrapping_adaptor<std::decay_t<F>>{std::forward<F>(f)};
}

/// Alias matching hpx::util::unwrapped from the paper's listings.
template <typename F>
auto unwrapped(F&& f) {
  return unwrapping(std::forward<F>(f));
}

/// Schedules f(args...) to run once every future among args is ready.
template <typename F, typename... Ts>
auto dataflow(launch policy, F&& f, Ts&&... args) ->
    typename detail::unwrap_result<detail::dataflow_result_t<F, Ts...>>::type {
  using R = detail::dataflow_result_t<F, Ts...>;
  using unwrapper = detail::unwrap_result<R>;
  using V = typename detail::dataflow_value<R>::type;
  using op_t = detail::dataflow_op<V, std::decay_t<F>, Ts...>;

  auto op = detail::make_pooled<op_t>(policy, std::forward<F>(f),
                                      std::forward<Ts>(args)...);
  // The result alias is created before arming so the op outlives any
  // inline fire triggered while the remaining inputs are still walked.
  detail::shared_state_ptr<V> state(op, &op->result);

  if constexpr (op_t::nfutures == 0) {
    op_t::run(std::move(op));
  } else {
    op->self = op;
    std::size_t idx = 0;
    const auto arm_one = [&](auto& arg) {
      if constexpr (detail::is_future_v<decltype(arg)>) {
        HPXLITE_ASSERT(arg.valid(), "dataflow over an invalid future");
        arg.state()->add_continuation(&op->arms[idx++]);
      }
    };
    std::apply([&](auto&... as) { (arm_one(as), ...); }, op->body->args);
  }
  return typename unwrapper::type(std::move(state));
}

/// Default policy: async (scheduled on the pool once inputs are ready).
template <typename F, typename... Ts,
          typename = std::enable_if_t<
              !std::is_same_v<std::decay_t<F>, launch> &&
              !std::is_same_v<std::decay_t<F>, stop_token>>>
auto dataflow(F&& f, Ts&&... args) {
  return dataflow(launch::async, std::forward<F>(f), std::forward<Ts>(args)...);
}

namespace detail {

/// Fire-time cancellation guard for dataflow nodes: polls the token
/// when the last input arrives, before the wrapped callable runs.  A
/// requested stop resolves the node's future to operation_cancelled
/// without invoking the callable (its kernel never runs); the closure
/// and the argument futures are released before the future resolves.
template <typename F>
struct stop_guarded {
  stop_token stop;
  F fn;

  template <typename... As>
  decltype(auto) operator()(As&&... as) {
    stop.throw_if_stopped();
    return fn(std::forward<As>(as)...);
  }
};

}  // namespace detail

/// Cancellable dataflow: like dataflow(policy, f, args...) but gated on
/// `stop`.  Cancelling after the node has been armed (even before its
/// inputs are ready) prevents the callable from ever running; the
/// returned future resolves to operation_cancelled instead.
template <typename F, typename... Ts>
auto dataflow(launch policy, stop_token stop, F&& f, Ts&&... args) {
  return dataflow(
      policy,
      detail::stop_guarded<std::decay_t<F>>{std::move(stop),
                                            std::decay_t<F>(std::forward<F>(f))},
      std::forward<Ts>(args)...);
}

}  // namespace hpxlite
