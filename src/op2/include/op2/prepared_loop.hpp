// The capture/replay core — one launch lifecycle for single loops,
// fused groups and dataflow nodes.
//
// The classic op_par_loop entry point pays, on *every* invocation:
// argument validation, conflict collection, a plan-cache lookup, raw
// pointer binding, write-set collection, reduction-scratch allocation,
// and the std::function closures of the erased launch.  For a solver
// that executes the same handful of loops thousands of times (Airfoil:
// 5 loops × 1000 iterations) all of that is pure launch overhead.
//
// This layer caches the finished product: a `launch_entry` holds the
// validated frame — a loop_frame for one loop, or a fused_frame for a
// fused group (op2/fused_loop.hpp) — its plan, the erased loop_launch,
// the preallocated per-worker reduction slots and the chunk chosen at
// capture.  The first invocation at a call site *captures* the
// entry; subsequent invocations *replay* it — re-emplacing each kernel
// (fresh by-value lambda captures), rebinding global-argument pointers
// (dataflow passes a different &rms[slot] per iteration), and
// dispatching the already-erased launch.  op_par_loop,
// op_par_loop_async, op_par_loop_fused and the dataflow node bodies all
// take the same route: hold_entry (replay or capture), then dispatch.
// A sequential replay performs no heap allocation and no plan-cache
// lookup; the launch_overhead microbenchmark gates both properties in
// check.sh.
//
// A cached entry is replayed only while it is provably current:
//   - the runtime epoch matches (every op2::init/finalize bumps it —
//     backend, threads, block_size, static_chunk, failure policy and
//     worker-pool layout are all epoch-scoped),
//   - the iteration set still has the size and resize-version the
//     plan was built for (op_set::resize bumps the version even when
//     a later resize returns the set to its captured size),
//   - every dat argument still has the storage version its raw views
//     were bound against (op_dat::resize bumps it),
//   - the same (member names, set, dat/map/idx/dim/acc) argument
//     identity is requested, and
//   - the fault injector is idle (armed invocations carry one-shot
//     fire state that must never be cached) and config.prepared_loops
//     is on (OP2_PREPARED=off is the control arm).
// Anything else falls back to a one-shot build, which is always
// correct:
//   OP2_PREPARED=off/faults  every member runs one-shot and unfused
//                            (named fault arming keys on member names)
//   busy / stale entry       the frame is rebuilt and run uncached
// An entry is busy while a previous dispatch of it is still in flight
// (async overlap of one call site with itself), via a lock-free
// in_flight flag.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <utility>

#include "op2/fusion.hpp"
#include "op2/par_loop.hpp"
#include "op2/tuner.hpp"

namespace op2 {

namespace detail {

/// Type-erased face of a call-site cache, so runtime teardown
/// (op2::finalize) and loop_handle::invalidate can drop entries — and
/// the dats/plans they pin — without knowing the kernel type.
class prepared_cache_base {
 public:
  virtual ~prepared_cache_base() = default;
  virtual void clear() = 0;
};

/// Registers a cache with the global registry clear_prepared_caches()
/// walks (weak references; a dead cache is pruned, not kept alive).
void register_prepared_cache(std::shared_ptr<prepared_cache_base> cache);

/// Structural identity of one argument, pointer-compared on replay.
/// Global arguments deliberately exclude the data pointer: rebinding a
/// different reduction target is a supported replay-time operation.
struct arg_key {
  const void* dat = nullptr;
  const void* map = nullptr;
  int idx = 0;
  int dim = 0;
  access acc = OP_READ;
  bool global = false;

  friend bool operator==(const arg_key&, const arg_key&) = default;
};

template <typename T>
arg_key make_arg_key(const op_arg<T>& a) {
  arg_key k;
  k.idx = a.idx;
  k.dim = a.dim;
  k.acc = a.acc;
  if (a.is_global()) {
    k.global = true;
    return k;
  }
  k.dat = a.dat.id();
  if (a.is_indirect()) {
    k.map = a.map.id();
  }
  return k;
}

template <typename T>
std::uint64_t arg_version(const op_arg<T>& a) {
  return a.is_global() ? 0 : a.dat.version();
}

/// One captured launch: everything needed to replay the members M...
/// as one `Frame`.  Member names and argument keys sit in flat arrays,
/// so the replay identity check allocates nothing.
template <typename Frame, typename... M>
struct launch_entry {
  using frame_type = Frame;
  static constexpr std::size_t nmembers = sizeof...(M);
  static constexpr std::size_t nargs = (0 + ... + M::arity);
  using key_array = std::array<arg_key, nargs>;
  using version_array = std::array<std::uint64_t, nargs>;

  std::array<std::string, nmembers> names;
  const void* set_id = nullptr;
  int set_size = 0;
  std::uint64_t set_version = 0;
  std::uint64_t epoch = 0;
  key_array keys{};
  version_array dat_versions{};
  std::shared_ptr<Frame> frame;
  loop_launch launch;
  /// The static chunk chosen at capture (op2/tuner.hpp), mirrored into
  /// the profiling columns; 0 when the launch keeps the configured
  /// chunker (tuner off, a backend that ignores chunk specs, or an
  /// explicit chunker).
  std::size_t chosen_chunk = 0;
  /// Fused frames only: the stable id stamped on the profiling row
  /// (op_timing_output's fgroup column), and the OP2_TILE element count
  /// (0 = untiled).
  std::uint64_t group_id = 0;
  int tile = 0;
  /// True while a dispatch of this entry is executing; a second
  /// overlapping invocation of the same call site must not share the
  /// frame's kernel slots and reduction scratch, so it runs one-shot.
  std::atomic<bool> in_flight{false};

  template <typename Names>
  bool same_site(const Names& other, const void* set,
                 const key_array& k) const {
    return set_id == set && keys == k &&
           std::equal(names.begin(), names.end(), other.begin());
  }
};

template <typename Kernel, typename... T>
using single_entry =
    launch_entry<loop_frame<Kernel, T...>, loop_member<Kernel, T...>>;

/// The members' argument keys and dat versions, flattened in order.
template <typename Entry, typename... M>
void fill_keys(typename Entry::key_array& keys,
               typename Entry::version_array& versions, const M&... members) {
  std::size_t i = 0;
  const auto add = [&](const auto& a) {
    keys[i] = make_arg_key(a);
    versions[i] = arg_version(a);
    ++i;
  };
  (std::apply([&](const auto&... a) { (add(a), ...); }, members.args), ...);
}

/// Clears an entry's in_flight flag on scope exit (exception-safe).
/// release() disarms the guard once responsibility for clearing the
/// flag has moved elsewhere (the async path's completion continuation).
template <typename Entry>
struct flight_guard {
  std::shared_ptr<Entry> entry;

  flight_guard() = default;
  explicit flight_guard(std::shared_ptr<Entry> e) : entry(std::move(e)) {}
  flight_guard(flight_guard&&) noexcept = default;
  flight_guard& operator=(flight_guard&&) = delete;
  void release() { entry.reset(); }
  ~flight_guard() {
    if (entry) {
      entry->in_flight.store(false, std::memory_order_release);
    }
  }
};

/// Small fixed-capacity cache keyed by (member names, set, argument
/// identity).  One cache exists per entry type and owner: the implicit
/// caches are per <Kernel, T...> instantiation (every lambda is its own
/// type, so lambda call sites get a private cache; function-pointer
/// kernels of one signature share a cache and distinguish themselves by
/// loop name), and each loop_handle owns its own.  Capacity 8 covers a
/// call site cycling through a handful of sets/dats — the sharded
/// Airfoil driver replays one textual call site against a different
/// owned set per shard; beyond that a round-robin victim is evicted —
/// replay degrades to recapture, never to wrong results.
template <typename Entry>
class launch_cache final : public prepared_cache_base {
 public:
  std::shared_ptr<Entry> find(
      const std::array<const char*, Entry::nmembers>& names,
      const void* set_id, const typename Entry::key_array& keys) {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    for (const auto& e : entries_) {
      if (e && e->same_site(names, set_id, keys)) {
        return e;
      }
    }
    return nullptr;
  }

  void store(std::shared_ptr<Entry> e) {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    for (auto& slot : entries_) {
      if (slot && slot->same_site(e->names, e->set_id, e->keys)) {
        slot = std::move(e);  // replace a stale same-identity entry
        return;
      }
    }
    for (auto& slot : entries_) {
      if (!slot) {
        slot = std::move(e);
        return;
      }
    }
    entries_[victim_] = std::move(e);
    victim_ = (victim_ + 1) % entries_.size();
  }

  void clear() override {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    for (auto& slot : entries_) {
      slot.reset();
    }
    victim_ = 0;
  }

 private:
  hpxlite::spinlock lock_;
  std::array<std::shared_ptr<Entry>, 8> entries_{};
  std::size_t victim_ = 0;
};

/// The implicit per-instantiation cache behind call sites without a
/// handle.  Registered once with the teardown registry; lives for the
/// process.
template <typename Entry>
const std::shared_ptr<launch_cache<Entry>>& site_cache() {
  static const std::shared_ptr<launch_cache<Entry>> cache = [] {
    auto c = std::make_shared<launch_cache<Entry>>();
    register_prepared_cache(c);
    return c;
  }();
  return cache;
}

/// True while `e` may be replayed for (set, args) as they stand now.
/// The captured shard window must match the ambient one: the erased
/// closures baked clamping + fence-gating in at capture, so replaying
/// them under a different shard_context (or outside any shard_scope)
/// would run the wrong iteration window.  Per-shard sets make per-shard
/// entries distinct anyway; this check catches the rest.
template <typename Entry>
bool entry_valid(const Entry& e, const op_set& set,
                 const typename Entry::version_array& versions) {
  return e.epoch == prepared_epoch() && e.set_size == set.size() &&
         e.set_version == set.version() && e.dat_versions == versions &&
         e.launch.shard == current_shard_context();
}

/// Captures a fresh entry for the members over `set`.
template <typename Entry, typename... M>
std::shared_ptr<Entry> capture_entry(
    loop_executor& exec, const typename Entry::key_array& keys,
    const typename Entry::version_array& versions, const op_set& set,
    M... members) {
  using Frame = typename Entry::frame_type;
  auto e = std::make_shared<Entry>();
  e->names = {std::string(members.name)...};
  e->keys = keys;
  e->dat_versions = versions;
  // build validates first — only afterwards is it safe to query the
  // set (an invalid set must throw here, not crash).
  e->frame = Frame::build(set, std::move(members)...);
  e->set_id = set.id();
  e->set_size = set.size();
  e->set_version = set.version();
  e->epoch = prepared_epoch();
  e->launch = erase_frame(e->frame);
  // The grain is chosen once, here: a static chunk sized for the
  // loop's widest colour, kept by every replay.
  if (tuner::applicable(exec)) {
    std::size_t widest = 0;
    for (const auto& blocks : e->launch.plan->color_blocks) {
      widest = std::max(widest, blocks.size());
    }
    e->chosen_chunk =
        tuner::acquire(e->launch.name, static_cast<std::size_t>(e->set_size))
            ->chunk(widest, current_config().threads);
    e->launch.chunk = hpxlite::static_chunk_size(e->chosen_chunk);
  }
  if constexpr (Frame::fused) {
    e->group_id = fusion::next_fused_group_id();
    e->tile = parse_tile_spec(current_config().tile);
  }
  // Replays must record without a string-keyed lookup, so the slot is
  // pinned at capture regardless of whether profiling is on right now.
  // Deliberate: slots are never erased (stable addresses), so this is
  // process-lifetime memory bounded by the number of distinct loop
  // names — a handful of map nodes for any real application.
  e->launch.prof = profiling::acquire_slot(e->launch.name);
  profiling::record_capture(e->launch.name);
  return e;
}

/// Mirrors the capture's chunk choice into the profiling columns (a
/// no-op while profiling is off or when no chunk was chosen).
template <typename Entry>
void record_chunk(const Entry& e) {
  if (e.chosen_chunk != 0) {
    profiling::record_tuner(e.launch.prof, e.chosen_chunk, "converged");
  }
}

/// Replay or capture: the entry for this invocation, held in flight, or
/// an empty guard when the cached entry is busy (async overlap of one
/// call site with itself) and the invocation must run one-shot.  The
/// members are consumed only when an entry is returned.
template <typename Entry, typename... M>
flight_guard<Entry> hold_entry(launch_cache<Entry>& cache,
                               loop_executor& exec,
                               const failure_policy& policy,
                               const op_set& set, M&... members) {
  const std::array<const char*, sizeof...(M)> names{members.name...};
  typename Entry::key_array keys{};
  typename Entry::version_array versions{};
  fill_keys<Entry>(keys, versions, members...);
  if (auto e = cache.find(names, set.id(), keys);
      e && entry_valid(*e, set, versions)) {
    bool expected = false;
    if (!e->in_flight.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
      return {};
    }
    flight_guard<Entry> held(e);
    e->frame->rebind(members...);
    if (policy.enabled()) {
      // The rollback snapshot targets may include rebound globals.
      e->launch.writes = collect_write_targets(*e->frame);
    }
    profiling::record_replay(e->launch.prof);
    record_chunk(*e);
    return held;
  }
  auto e = capture_entry<Entry>(exec, keys, versions, set,
                                std::move(members)...);
  e->in_flight.store(true, std::memory_order_release);
  flight_guard<Entry> held(e);
  cache.store(e);
  record_chunk(*e);
  return held;
}

/// Synchronous dispatch of a held entry.
template <typename Entry>
void dispatch(loop_executor& exec, Entry& e, const failure_policy& policy,
              int steps) {
  if constexpr (Entry::frame_type::fused) {
    // Written only while the entry is held in flight, read by the
    // erased closures.
    e.frame->steps = steps;
    e.frame->tile = e.tile;
    profiling::record_fusion(e.launch.prof, e.group_id, Entry::nmembers,
                             static_cast<std::uint64_t>(e.tile));
  }
  run_loop_protected(exec, e.launch, policy);
}

/// Synchronous launch of the members as one frame of Entry's kind,
/// `steps` times over (steps > 1 only for fused frames): replay or
/// capture the cached entry, else run one-shot.  The body of
/// op_par_loop, op_par_loop_fused and every dataflow node.
template <typename Entry, typename... M>
void run_sync(launch_cache<Entry>& cache, loop_executor& exec,
              const failure_policy& policy, const op_set& set, int steps,
              M... members) {
  using Frame = typename Entry::frame_type;
  const config& cfg = current_config();
  if constexpr (Frame::fused) {
    if (!cfg.fuse) {
      // OP2_FUSE=off control arm: the members run as individual
      // prepared loops in program order — bit-identical to the fused
      // schedule (same per-element program order, same reduction merge
      // order).
      for (int s = 0; s < steps; ++s) {
        (run_sync(*site_cache<launch_entry<typename M::frame, M>>(), exec,
                  policy, set, 1, members),
         ...);
      }
      return;
    }
  }
  if (!cfg.prepared_loops || fault_injector::active()) {
    for (int s = 0; s < steps; ++s) {
      (run_loop_protected(exec, erase_frame(M::frame::build(set, members)),
                          policy),
       ...);
    }
    return;
  }
  if (auto held = hold_entry(cache, exec, policy, set, members...);
      held.entry) {
    dispatch(exec, *held.entry, policy, steps);
    return;
  }
  auto frame = Frame::build(set, std::move(members)...);
  if constexpr (Frame::fused) {
    frame->steps = steps;
    frame->tile = parse_tile_spec(cfg.tile);
  }
  run_loop_protected(exec, erase_frame(std::move(frame)), policy);
}

/// Asynchronous launch of one loop: like run_sync, but the entry stays
/// in flight until the returned future is ready.
template <typename Entry, typename M>
hpxlite::future<void> run_async(launch_cache<Entry>& cache,
                                loop_executor& exec,
                                const failure_policy& policy,
                                const op_set& set, M member) {
  const auto one_shot = [&] {
    return launch_loop_protected(
        exec, erase_frame(M::frame::build(set, std::move(member))), policy);
  };
  if (!current_config().prepared_loops || fault_injector::active()) {
    return one_shot();
  }
  auto held = hold_entry(cache, exec, policy, set, member);
  if (!held.entry) {
    return one_shot();
  }
  const auto e = held.entry;
  auto done = launch_loop_protected(exec, e->launch, policy);
  auto chained = done.then([e](hpxlite::future<void>&& f) {
    e->in_flight.store(false, std::memory_order_release);
    f.get();  // rethrows the loop's failure, if any
  });
  // The continuation now owns clearing in_flight; disarm the guard.
  held.release();
  return chained;
}

}  // namespace detail

/// Explicit per-call-site launch cache, for generated code and
/// hand-written drivers, serving single and fused launches alike:
///
///   static op2::loop_handle handle;
///   op2::op_par_loop(handle, kernel, "name", set, args...);
///
/// The handle owns the cache, so two textual call sites never share
/// replay state even when their kernel types coincide.  invalidate()
/// drops every captured entry (forcing recapture on next use); the
/// runtime also invalidates implicitly on init/finalize, dat/set
/// resizes, and configuration changes.
class loop_handle {
 public:
  loop_handle() = default;
  loop_handle(const loop_handle&) = delete;
  loop_handle& operator=(const loop_handle&) = delete;

  /// Drops all captured descriptors; the next invocation re-captures.
  void invalidate() {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    if (cache_) {
      cache_->clear();
    }
  }

  /// The typed cache for this site, created on first use.
  template <typename Entry>
  std::shared_ptr<detail::launch_cache<Entry>> cache() {
    using cache_t = detail::launch_cache<Entry>;
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    if (!cache_ || type_ != &typeid(cache_t)) {
      auto c = std::make_shared<cache_t>();
      detail::register_prepared_cache(c);
      cache_ = c;
      type_ = &typeid(cache_t);
    }
    return std::static_pointer_cast<cache_t>(cache_);
  }

 private:
  hpxlite::spinlock lock_;
  std::shared_ptr<detail::prepared_cache_base> cache_;
  const std::type_info* type_ = nullptr;
};

/// Classic OP2 API (unchanged Airfoil.cpp): synchronous parallel loop
/// under the configured backend.  The first invocation at a call site
/// captures a prepared descriptor; repeat invocations replay it
/// allocation-free (see the header comment for the invalidation
/// rules).  For asynchronous executors (hpx_async / hpx_dataflow) this
/// degenerates to launch-then-wait; use op_par_loop_async / the
/// dataflow API to actually overlap loops.
template <typename Kernel, typename... T>
void op_par_loop(Kernel kernel, const char* name, const op_set& set,
                 op_arg<T>... args) {
  detail::run_sync(*detail::site_cache<detail::single_entry<Kernel, T...>>(),
                   current_executor(), effective_failure_policy(), set, 1,
                   detail::loop_member<Kernel, T...>{
                       name, std::move(kernel), {std::move(args)...}});
}

/// §III-A2 API: returns a future for the loop's completion; the caller
/// is responsible for placing .get() before dependent loops (the
/// paper's Fig 10 shows the hand-placed new_data.get() calls).  Under a
/// synchronous executor the loop runs inline and the future is ready.
/// Prepared semantics match op_par_loop; while a replayed launch is in
/// flight, an overlapping invocation of the same site runs one-shot.
template <typename Kernel, typename... T>
hpxlite::future<void> op_par_loop_async(Kernel kernel, const char* name,
                                        const op_set& set, op_arg<T>... args) {
  return detail::run_async(
      *detail::site_cache<detail::single_entry<Kernel, T...>>(),
      current_executor(), effective_failure_policy(), set,
      detail::loop_member<Kernel, T...>{name, std::move(kernel),
                                        {std::move(args)...}});
}

/// Handle-explicit flavours (what the code generator emits).
template <typename Kernel, typename... T>
void op_par_loop(loop_handle& handle, Kernel kernel, const char* name,
                 const op_set& set, op_arg<T>... args) {
  detail::run_sync(*handle.cache<detail::single_entry<Kernel, T...>>(),
                   current_executor(), effective_failure_policy(), set, 1,
                   detail::loop_member<Kernel, T...>{
                       name, std::move(kernel), {std::move(args)...}});
}

template <typename Kernel, typename... T>
hpxlite::future<void> op_par_loop_async(loop_handle& handle, Kernel kernel,
                                        const char* name, const op_set& set,
                                        op_arg<T>... args) {
  return detail::run_async(
      *handle.cache<detail::single_entry<Kernel, T...>>(), current_executor(),
      effective_failure_policy(), set,
      detail::loop_member<Kernel, T...>{name, std::move(kernel),
                                        {std::move(args)...}});
}

}  // namespace op2
