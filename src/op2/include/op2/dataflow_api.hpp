// The modified OP2 API of Section III-B: op_dat handles carry futures,
// op_arg_dat1 snapshots them, and op_par_loop becomes a dataflow node
// that fires once every argument future is ready — "dataflow allows
// automatically creating the execution graph which represents a
// dependency tree" (Fig 13/14).
//
// Dependency rules (read/write future chaining):
//   - every loop waits for the last writer of each of its args (RAW)
//   - a writer additionally waits for all readers since that write
//     (WAR), then becomes the new last writer and clears the readers
//   - readers since the last write accumulate, so independent readers
//     overlap freely
//
// This removes the hand-placed new_data.get() calls of §III-A2: the
// paper's Fig 10 problem ("the programmer should put them manually in
// correct place") is solved by the bookkeeping below.
//
// Thread-safety: like OP2 itself, loops are launched from one
// application driver thread; the launched loops execute concurrently.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "hpxlite/dataflow.hpp"
#include "hpxlite/future.hpp"
#include "op2/backpressure.hpp"
#include "op2/fused_loop.hpp"
#include "op2/par_loop.hpp"
#include "op2/tenant.hpp"

namespace op2 {

namespace detail {

/// Future bookkeeping attached to a dat used through the modified API.
struct df_sync {
  hpxlite::shared_future<void> last_write =
      hpxlite::make_ready_future().share();
  std::vector<hpxlite::shared_future<void>> reads_since_write;
};

}  // namespace detail

/// A dat handle for the modified API: the paper's p_q[t] — "each kernel
/// function returns an output argument as a future stored in data[t]".
/// Copying shares both the data and the future bookkeeping.
class op_dat_df {
 public:
  op_dat_df() = default;
  explicit op_dat_df(op_dat dat)
      : dat_(std::move(dat)), sync_(std::make_shared<detail::df_sync>()) {}

  bool valid() const noexcept { return sync_ != nullptr; }
  op_dat& dat() { return dat_; }
  const op_dat& dat() const { return dat_; }

  /// Blocks until every loop launched against this dat has completed
  /// (the final new_data.get() of the application driver).
  void wait() const {
    if (!sync_) {
      return;
    }
    sync_->last_write.wait();
    for (const auto& r : sync_->reads_since_write) {
      r.wait();
    }
  }

  /// Like wait(), but rethrows the failure of any loop launched against
  /// this dat — a loop that exhausted its failure_policy surfaces its
  /// op2::loop_error here, at the driver's synchronisation point.
  void get() const {
    if (!sync_) {
      return;
    }
    sync_->last_write.get();
    for (const auto& r : sync_->reads_since_write) {
      r.get();
    }
  }

  /// Future that is ready once all currently-launched uses complete.
  hpxlite::future<void> ready_future() const {
    std::vector<hpxlite::shared_future<void>> deps;
    if (sync_) {
      deps.push_back(sync_->last_write);
      deps.insert(deps.end(), sync_->reads_since_write.begin(),
                  sync_->reads_since_write.end());
    }
    return hpxlite::when_all(deps);
  }

  const std::shared_ptr<detail::df_sync>& sync() const { return sync_; }

 private:
  op_dat dat_;
  std::shared_ptr<detail::df_sync> sync_;
};

/// Argument of the modified API: the classic descriptor plus the dat's
/// future bookkeeping (absent for globals).
template <typename T>
struct op_arg_df {
  op_arg<T> arg;
  std::shared_ptr<detail::df_sync> sync;
};

/// Modified op_arg_dat — the paper names it op_arg_dat1 (Fig 14):
/// "op_arg_dat is modified to create an argument as a future, which is
/// passed to a function through op_par_loop".
template <typename T>
op_arg_df<T> op_arg_dat1(const op_dat_df& dat, int idx, const op_map& map,
                         int dim, access acc) {
  if (!dat.valid()) {
    throw std::invalid_argument("op_arg_dat1: invalid dat handle");
  }
  return {op_arg_dat<T>(dat.dat(), idx, map, dim, acc), dat.sync()};
}

/// Global argument in the modified API (reductions still supported).
template <typename T>
op_arg_df<T> op_arg_gbl1(T* data, int dim, access acc) {
  return {op_arg_gbl<T>(data, dim, acc), nullptr};
}

namespace detail {

/// One loop of a dataflow node, built by the op_arg_df overload of
/// op2::fuse_loop below (or by the unfused op_par_loop).
template <typename Kernel, typename... T>
struct loop_member_df {
  const char* name;
  Kernel kernel;
  std::tuple<op_arg_df<T>...> args;
};

template <typename M>
struct is_fused_member_df : std::false_type {};

template <typename Kernel, typename... T>
struct is_fused_member_df<loop_member_df<Kernel, T...>> : std::true_type {};

/// The plain loop_member behind a dataflow member (futures stripped;
/// the node body runs the classic launch).
template <typename Kernel, typename... T>
loop_member<Kernel, T...> strip_df(const loop_member_df<Kernel, T...>& m) {
  return std::apply(
      [&](const auto&... a) {
        return loop_member<Kernel, T...>{m.name, m.kernel,
                                         std::make_tuple(a.arg...)};
      },
      m.args);
}

template <typename MDF>
using stripped_t = decltype(strip_df(std::declval<const MDF&>()));

/// A copy of `m` named by `name`.
template <typename M>
M with_name(M m, const std::string& name) {
  m.name = name.c_str();
  return m;
}

/// Schedules the members as ONE dataflow node running an Entry launch
/// (one loop, or a fused group) and returns the shared future of its
/// completion.  Never blocks; the
/// dependency tree is derived from the argument futures.
///
/// Validation runs here, synchronously — a malformed loop (or an
/// illegal fused member list) throws at the call site exactly like the
/// classic API.  The launch descriptor, however, is captured (or
/// replayed) only when the node *fires*: by then every upstream writer
/// has completed, so the capture/replay core observes current dat
/// versions and can rebind the global reduction target this iteration
/// passes (the driver rotates &rms[slot] per invocation) while still
/// reusing the cached frame, plan and reduction scratch across
/// iterations.
template <typename Entry, typename... MDF>
hpxlite::shared_future<void> dataflow_node(
    std::shared_ptr<launch_cache<Entry>> cache, const op_set& set,
    const MDF&... members) {
  const auto validate = [&set](const auto& m) {
    std::apply(
        [&](const auto&... a) {
          auto probe = std::make_tuple(a.arg...);
          validate_args(m.name, set, probe);
        },
        m.args);
  };
  (validate(members), ...);
  if constexpr (Entry::frame_type::fused) {
    validate_fusable(set, strip_df(members)...);
  }

  // Dependency collection per the chaining rules, over the union of the
  // members' arguments.  A dat used by several arguments installs once;
  // written-anywhere wins over read-only.
  std::vector<hpxlite::shared_future<void>> deps;
  std::vector<std::pair<std::shared_ptr<df_sync>, bool>> installs;
  const auto collect = [&](const auto& a) {
    if (!a.sync) {
      return;
    }
    deps.push_back(a.sync->last_write);
    if (writes(a.arg.acc)) {
      deps.insert(deps.end(), a.sync->reads_since_write.begin(),
                  a.sync->reads_since_write.end());
    }
    for (auto& [sync, is_writer] : installs) {
      if (sync == a.sync) {
        is_writer = is_writer || writes(a.arg.acc);
        return;
      }
    }
    installs.emplace_back(a.sync, writes(a.arg.acc));
  };
  (std::apply([&](const auto&... a) { (collect(a), ...); }, members.args),
   ...);

  // Bounded in-flight window (OP2_DATAFLOW_WINDOW): admission of this
  // node blocks the driver until fewer than the configured number of
  // nodes are outstanding, so a long solver run cannot submit its whole
  // dependency tree up front.  The ticket's slot is freed the instant
  // the node resolves (success, error or cancellation) — or when the
  // node is dropped without ever running.
  auto ticket = acquire_dataflow_ticket();

  // The node body is the paper's Fig 13: for_each(par) inside dataflow.
  // The synchronous hpx_foreach executor runs the colour sweep; the
  // dataflow gating above already provides the asynchrony.  Capturing
  // the stripped members by value keeps the dats alive until the node
  // runs (never the df_sync records: they will hold this node's future,
  // and that cycle would keep both alive forever); the names are copied
  // because the caller's strings may not outlive the node.  The cache
  // carries the prepared descriptor across nodes.
  // The submitting thread's failure policy and tenant identity are
  // captured here and re-established inside the body: the node fires on
  // a pool worker, which carries neither thread-local mark.
  hpxlite::future<void> gate = hpxlite::when_all(deps);
  hpxlite::future<void> done = hpxlite::dataflow(
      hpxlite::launch::async,
      [cache, set, ticket, pack = std::make_tuple(strip_df(members)...),
       names = std::array<std::string, sizeof...(MDF)>{members.name...},
       deps = std::move(deps), policy = effective_failure_policy(),
       tenant = current_tenant()](hpxlite::future<void> ready) {
        struct slot_release {
          std::shared_ptr<dataflow_ticket> held;
          ~slot_release() { held->release(); }
        } release{ticket};
        ready.get();
        // when_all signals readiness but not failure: re-observe each
        // dependency so an upstream loop's error propagates down the
        // dependency tree unchanged instead of this loop running on
        // (or retrying against) poisoned inputs.
        for (const auto& d : deps) {
          d.get();
        }
        tenant_scope scope(tenant);
        [&]<std::size_t... I>(std::index_sequence<I...>) {
          run_sync(*cache, backend_registry::shared("hpx_foreach"), policy,
                   set, /*steps=*/1,
                   with_name(std::get<I>(pack), names[I])...);
        }(std::index_sequence_for<MDF...>{});
      },
      std::move(gate));
  hpxlite::shared_future<void> shared = done.share();

  // Install the completion future into every dat argument's
  // bookkeeping: writers replace last_write (and clear readers),
  // readers accumulate.
  for (auto& [sync, is_writer] : installs) {
    if (is_writer) {
      sync->last_write = shared;
      sync->reads_since_write.clear();
    } else {
      sync->reads_since_write.push_back(shared);
    }
  }
  return shared;
}

}  // namespace detail

/// Modified-API member of a fused launch (futures attached).
template <typename Kernel, typename... T>
detail::loop_member_df<Kernel, T...> fuse_loop(Kernel kernel,
                                               const char* name,
                                               op_arg_df<T>... args) {
  return {name, std::move(kernel), std::make_tuple(std::move(args)...)};
}

/// Modified-API op_par_loop: schedules the loop as a dataflow node and
/// returns a shared future for its completion (see dataflow_node).
template <typename Kernel, typename... T>
hpxlite::shared_future<void> op_par_loop(Kernel kernel, const char* name,
                                         const op_set& set,
                                         op_arg_df<T>... args) {
  return detail::dataflow_node(
      detail::site_cache<detail::single_entry<Kernel, T...>>(), set,
      fuse_loop(std::move(kernel), name, std::move(args)...));
}

/// Fused dataflow node: the member loops become ONE node in the
/// dependency tree — one op-state, one admission ticket, one fire —
/// that waits on the union of the members' dependency futures, runs
/// the fused launch, and then becomes the last writer / a reader of
/// each member dat exactly as if the members were separate nodes
/// issued back-to-back.  Legality is checked synchronously through the
/// fusion planner, so an illegal member list throws at the call site
/// with the planner's explanation.
template <typename... MDF,
          typename = std::enable_if_t<
              (detail::is_fused_member_df<MDF>::value && ...)>>
hpxlite::shared_future<void> op_par_loop_fused(fused_handle& handle,
                                               const op_set& set,
                                               MDF... members) {
  static_assert(sizeof...(MDF) >= 1,
                "op_par_loop_fused needs at least one member");
  using entry =
      detail::launch_entry<detail::fused_frame_for<detail::stripped_t<MDF>...>,
                           detail::stripped_t<MDF>...>;
  return detail::dataflow_node(handle.cache<entry>(), set, members...);
}

}  // namespace op2
