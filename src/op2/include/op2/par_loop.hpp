// op_par_loop — the OP2 parallel-loop engine.
//
// Every backend executes the same block-structured schedule the paper's
// Fig 5/6 show (the generated `blockIdx` loop):
//
//   for each colour c:                    (one colour if conflict-free)
//     parallel over blocks of colour c:
//       for each element in block: kernel(arg pointers...)
//
// and they differ only in *how* the "parallel over blocks" runs.  That
// "how" is a pluggable op2::loop_executor (see op2/loop_executor.hpp):
// this header builds the typed loop frame, erases it into a
// loop_launch, and hands it to the executor the active configuration
// names.  The built-in executors live in src/op2/src/backends/:
//   seq           plain loop (test oracle)
//   forkjoin      fork_join_team::parallel_for — implicit global
//                 barrier per colour (the OpenMP baseline)
//   hpx_foreach   hpxlite::parallel::for_each(par[.with(chunk)]) — same
//                 barrier shape, HPX grain-size control (§III-A1)
//   hpx_async     async/for_each(par(task)); op_par_loop_async returns
//                 a future; no barrier (§III-A2)
//   hpx_dataflow  op_par_loop in dataflow_api.hpp gates the same body
//                 on argument futures (§III-B)
//
// Global reductions (OP_INC/OP_MIN/OP_MAX) accumulate into per-worker
// slots preallocated in the frame — one cache-line-strided slot per
// hpxlite worker, per fork-join team member, plus one lock-guarded
// overflow slot for foreign threads — reset before each invocation and
// tree-merged at loop end.  No global lock is taken on the hot
// per-chunk path, so two concurrently-launched reducing loops no longer
// serialise against each other; only the single final combine of the
// merged partial into the caller's global buffer is serialised (see
// global_merge_lock), because two loops may finalise into the same
// global concurrently.
//
// The frame built here (loop_frame, or a fused_frame of several from
// op2/fused_loop.hpp) is what the capture/replay core in
// op2/prepared_loop.hpp caches: capture builds the frame and erases it
// into a loop_launch once, replay re-runs only the erased closures.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hpxlite/config.hpp"
#include "hpxlite/fork_join_team.hpp"
#include "hpxlite/future.hpp"
#include "hpxlite/scheduler.hpp"
#include "hpxlite/spinlock.hpp"
#include "hpxlite/watchdog.hpp"
#include "op2/arg.hpp"
#include "op2/fault.hpp"
#include "op2/loop_executor.hpp"
#include "op2/plan.hpp"
#include "op2/profiling.hpp"
#include "op2/runtime.hpp"

namespace op2 {

namespace detail {

/// Raw-pointer view of one op_arg, precomputed once per loop capture.
template <typename T>
struct bound_arg {
  T* base = nullptr;          // dat storage
  const int* map_table = nullptr;
  int map_dim = 0;
  int idx = 0;
  int dim = 0;
  access acc = OP_READ;
  T* gbl = nullptr;           // global argument storage
};

template <typename T>
bound_arg<T> bind_arg(op_arg<T>& a) {
  bound_arg<T> b;
  b.dim = a.dim;
  b.acc = a.acc;
  if (a.is_global()) {
    b.gbl = a.gbl;
    return b;
  }
  b.base = a.dat.template data<T>().data();
  if (a.is_indirect()) {
    b.map_table = a.map.table().data();
    b.map_dim = a.map.dim();
    b.idx = a.idx;
  }
  return b;
}

/// Identity element of a global reduction: 0 for OP_INC, +inf/-inf
/// analogues for OP_MIN/OP_MAX.
template <typename T>
T reduction_identity(access acc) {
  if constexpr (std::is_arithmetic_v<T>) {
    if (acc == access::min) {
      return std::numeric_limits<T>::max();
    }
    if (acc == access::max) {
      return std::numeric_limits<T>::lowest();
    }
  }
  return T{};
}

/// Combines one partial value into an accumulator under the reduction's
/// access mode (the merge OP2 does from its thread-private buffers).
template <typename T>
T reduction_combine(access acc, T a, T v) {
  switch (acc) {
    case access::min:
      return v < a ? v : a;
    case access::max:
      return v > a ? v : a;
    default:  // OP_INC
      return a + v;
  }
}

/// Serialises the final combine of a loop's merged reduction partial
/// into the caller's global buffer.  Per-worker slot accumulation and
/// the tree merge are private to one frame and stay lock-free; only
/// this last read-modify-write can race — an async replay overlapping
/// a one-shot of the same call site, or two different loops reducing
/// into one shared accumulator, both finalise into the same gbl
/// pointer concurrently.  Taken once per reduction argument per loop
/// completion, never per chunk, so it is not a throughput bottleneck.
inline hpxlite::spinlock& global_merge_lock() {
  static hpxlite::spinlock lock;
  return lock;
}

/// Preallocated per-worker accumulation buffers for one global
/// reduction argument (empty for every other argument kind).  Slot i
/// occupies elements [i*stride, i*stride + dim); stride rounds dim up
/// to whole cache lines so concurrent workers never false-share.
template <typename T>
struct reduction_slots {
  std::vector<T> buf;
  std::size_t stride = 0;
};

template <typename T>
reduction_slots<T> make_reduction_slots(const op_arg<T>& a,
                                        unsigned nslots) {
  reduction_slots<T> s;
  if (a.is_global() && is_reduction(a.acc)) {
    const std::size_t bytes =
        static_cast<std::size_t>(a.dim) * sizeof(T);
    const std::size_t lines =
        (bytes + hpxlite::cache_line_size - 1) / hpxlite::cache_line_size;
    s.stride =
        (lines * hpxlite::cache_line_size + sizeof(T) - 1) / sizeof(T);
    s.buf.assign(s.stride * nslots, reduction_identity<T>(a.acc));
  }
  return s;
}

/// The pointer the kernel sees for argument `b` at iteration-set
/// element `i`: direct args index by i, indirect args go through the
/// map, globals pass the caller's buffer — or the executing worker's
/// reduction slot when `slot` is non-null.  Runs once per argument per
/// element, so it is forced inline: left to its heuristics, GCC 12
/// splits it and calls the map-indexing half out of line from large
/// element loops (the fused traversal, many-argument indirect loops),
/// which made Airfoil's indirect and fused loops 10-50% slower.
template <typename T>
[[gnu::always_inline]] inline T* arg_pointer(const bound_arg<T>& b, T* slot,
                                             int i) {
  if (b.gbl != nullptr) {
    return slot != nullptr ? slot : b.gbl;
  }
  const int e = b.map_table != nullptr
                    ? b.map_table[static_cast<std::size_t>(i) *
                                      static_cast<std::size_t>(b.map_dim) +
                                  static_cast<std::size_t>(b.idx)]
                    : i;
  return b.base + static_cast<std::size_t>(e) * static_cast<std::size_t>(b.dim);
}

template <typename Kernel, typename... T>
struct loop_frame;

template <typename Kernel, typename... T>
std::shared_ptr<loop_frame<Kernel, T...>> make_frame(const char* name,
                                                     const op_set& set,
                                                     Kernel kernel,
                                                     op_arg<T>... args);

/// One loop invocation as the caller issued it: a single op_par_loop,
/// or one member of a fused launch (built by op2::fuse_loop).
template <typename Kernel, typename... T>
struct loop_member {
  using frame = loop_frame<Kernel, T...>;
  static constexpr std::size_t arity = sizeof...(T);
  const char* name;
  Kernel kernel;
  std::tuple<op_arg<T>...> args;
};

/// Adds the region `arg` writes to a loop's write set: the dat, or the
/// global buffer for a reduction.  Deduplication is on the base
/// pointer: two arguments over one base collapse to one target
/// covering the widest span, so a narrower alias (e.g. a global
/// reduction into the first element of a buffer another argument
/// writes in full) cannot shadow the full region out of the rollback
/// snapshot.
template <typename T>
void add_write_target(std::vector<write_target>& targets, op_arg<T>& arg) {
  if (!writes(arg.acc)) {
    return;
  }
  write_target t;
  if (arg.is_global()) {
    t.data = reinterpret_cast<std::byte*>(arg.gbl);
    t.bytes = static_cast<std::size_t>(arg.dim) * sizeof(*arg.gbl);
    t.name = "<global>";
  } else {
    const auto raw = arg.dat.raw_bytes();
    t.data = raw.data();
    t.bytes = raw.size();
    t.name = arg.dat.name();
  }
  for (auto& existing : targets) {
    if (existing.data == t.data) {
      if (t.bytes > existing.bytes) {
        existing.bytes = t.bytes;
        existing.name = t.name;
      }
      return;
    }
  }
  targets.push_back(std::move(t));
}

/// Everything one loop needs, bundled so the async/dataflow backends —
/// and the prepared-loop cache — can keep it alive beyond the call
/// site.  The op_arg tuple holds the op_dat shared handles; bound_
/// holds the raw views; the reduction slots are allocated once here and
/// reused (reset + merged) by every invocation.
template <typename Kernel, typename... T>
struct loop_frame {
  static constexpr bool fused = false;
  std::string name;
  op_set set;
  /// Engaged for the frame's whole life; replays re-emplace it so
  /// capturing-lambda kernels (not copy-assignable) pick up fresh
  /// by-value captures without rebuilding the frame.
  std::optional<Kernel> kernel;
  std::tuple<op_arg<T>...> args;
  std::tuple<bound_arg<T>...> bound;
  std::shared_ptr<const op_plan> plan;
  bool direct_loop = false;   // no indirect argument at all
  bool has_reduction = false; // any global OP_INC/OP_MIN/OP_MAX arg
  /// Reduction-slot layout: hpxlite workers claim [0, hpx_slots),
  /// fork-join team members claim [hpx_slots, hpx_slots + team_slots),
  /// and any other thread shares the final lock-guarded slot.
  unsigned hpx_slots = 0;
  unsigned team_slots = 0;
  unsigned nslots = 1;
  mutable std::tuple<reduction_slots<T>...> scratch;
  mutable hpxlite::spinlock external_lock;

  loop_frame(std::string name_, op_set set_, std::optional<Kernel> kernel_,
             std::tuple<op_arg<T>...> args_,
             std::tuple<bound_arg<T>...> bound_,
             std::shared_ptr<const op_plan> plan_, bool direct_loop_,
             bool has_reduction_, unsigned hpx_slots_, unsigned team_slots_,
             unsigned nslots_, std::tuple<reduction_slots<T>...> scratch_)
      : name(std::move(name_)),
        set(std::move(set_)),
        kernel(std::move(kernel_)),
        args(std::move(args_)),
        bound(std::move(bound_)),
        plan(std::move(plan_)),
        direct_loop(direct_loop_),
        has_reduction(has_reduction_),
        hpx_slots(hpx_slots_),
        team_slots(team_slots_),
        nslots(nslots_),
        scratch(std::move(scratch_)) {}

  void run_block(int block) const {
    const auto bi = static_cast<std::size_t>(block);
    run_range(plan->offset[bi], plan->offset[bi] + plan->nelems[bi]);
  }

  void run_range(int begin, int end) const {
    const runner r(*this);
    for (int i = begin; i < end; ++i) {
      r(i);
    }
  }

  /// Resets every reduction slot to its identity value (called by
  /// loop_launch::begin_invocation before any chunk runs).
  void reset_scratch() const {
    std::apply(
        [this](const auto&... b) {
          std::apply([&](auto&... s) { (reset_one(b, s), ...); }, scratch);
        },
        bound);
  }

  /// Pairwise tree merge of the slots, then one combine of the result
  /// into the caller's global (loop_launch::finalize, after the last
  /// chunk); that final combine is serialised under global_merge_lock
  /// against other loops finalising into the same global.  On one slot
  /// this degenerates to the sequential gbl = combine(gbl, partial)
  /// the seed performed.
  void merge_scratch() const {
    std::apply(
        [this](const auto&... b) {
          std::apply([&](auto&... s) { (merge_one(b, s), ...); }, scratch);
        },
        bound);
  }

  /// The capture/replay core's frame interface (fused_frame has the
  /// same three): build from the caller's member, refresh a cached frame
  /// for a replay, and list the write set.
  static std::shared_ptr<loop_frame> build(const op_set& set,
                                           loop_member<Kernel, T...> m) {
    return std::apply(
        [&](auto&... a) {
          return make_frame(m.name, set, std::move(m.kernel), std::move(a)...);
        },
        m.args);
  }

  /// Re-emplaces the kernel (fresh by-value captures) and rebinds the
  /// global-argument pointers: the cached frame may hold &rms from a
  /// previous iteration while the caller now passes another target (the
  /// dataflow driver rotates reduction slots).
  void rebind(loop_member<Kernel, T...>& m) {
    kernel.emplace(std::move(m.kernel));
    [&]<std::size_t... Is>(std::index_sequence<Is...>) {
      (rebind_one(std::get<Is>(args), std::get<Is>(bound),
                  std::get<Is>(m.args)),
       ...);
    }(std::index_sequence_for<T...>{});
  }

  void collect_writes(std::vector<write_target>& out) {
    std::apply([&out](auto&... a) { (add_write_target(out, a), ...); }, args);
  }

 private:
  /// Unlocks the shared overflow slot on scope exit (exception-safe:
  /// a throwing kernel must not leave the external slot locked).
  struct slot_guard {
    hpxlite::spinlock* lock = nullptr;
    ~slot_guard() {
      if (lock != nullptr) {
        lock->unlock();
      }
    }
  };

  unsigned acquire_slot(slot_guard& guard) const {
    if (const unsigned w = hpxlite::runtime::worker_index();
        w < hpx_slots) {
      return w;
    }
    if (const unsigned t = hpxlite::fork_join_team::this_worker_index();
        t < team_slots) {
      return hpx_slots + t;
    }
    // Foreign thread (e.g. the caller of a synchronous seq loop): the
    // shared slot, serialised for the duration of this chunk.
    external_lock.lock();
    guard.lock = &external_lock;
    return nslots - 1;
  }

 public:
  /// Resolves the reduction slot and the per-argument pointer tuple
  /// once, then invokes the kernel per element — the body of run_range,
  /// factored out so a fused launch (op2/fused_loop.hpp) can build one
  /// runner per member frame and interleave their elements inside a
  /// single traversal without re-resolving anything per element.
  /// Move-only: it may hold the external overflow-slot lock for the
  /// duration of the range.
  class runner {
   public:
    explicit runner(const loop_frame& f) : frame_(&f) {
      const unsigned slot = f.has_reduction ? f.acquire_slot(guard_) : 0;
      ptrs_ = f.slot_ptrs(slot, std::index_sequence_for<T...>{});
    }
    runner(const runner&) = delete;
    runner& operator=(const runner&) = delete;
    runner(runner&& other) noexcept
        : frame_(other.frame_), ptrs_(other.ptrs_) {
      guard_.lock = other.guard_.lock;
      other.guard_.lock = nullptr;
    }
    runner& operator=(runner&&) = delete;

    void operator()(int i) const {
      frame_->invoke(i, ptrs_, std::index_sequence_for<T...>{});
    }

   private:
    const loop_frame* frame_;
    slot_guard guard_;
    std::tuple<T*...> ptrs_;
  };

 private:
  template <std::size_t I>
  auto slot_ptr(unsigned slot) const {
    auto& s = std::get<I>(scratch);
    return s.buf.empty() ? decltype(s.buf.data()){nullptr}
                         : s.buf.data() + slot * s.stride;
  }

  template <std::size_t... Is>
  auto slot_ptrs(unsigned slot, std::index_sequence<Is...>) const {
    return std::make_tuple(slot_ptr<Is>(slot)...);
  }

  template <typename Ptrs, std::size_t... Is>
  void invoke(int i, const Ptrs& ptrs, std::index_sequence<Is...>) const {
    (*kernel)(arg_pointer(std::get<Is>(bound), std::get<Is>(ptrs), i)...);
  }

  template <typename U>
  static void rebind_one(op_arg<U>& cached, bound_arg<U>& view,
                         const op_arg<U>& fresh) {
    if (cached.gbl != nullptr) {
      cached.gbl = fresh.gbl;
      view.gbl = fresh.gbl;
    }
  }

  template <typename U>
  static void reset_one(const bound_arg<U>& b, reduction_slots<U>& s) {
    if (!s.buf.empty()) {
      std::fill(s.buf.begin(), s.buf.end(), reduction_identity<U>(b.acc));
    }
  }

  template <typename U>
  void merge_one(const bound_arg<U>& b, reduction_slots<U>& s) const {
    if (s.buf.empty()) {
      return;
    }
    for (unsigned step = 1; step < nslots; step *= 2) {
      for (unsigned i = 0; i + step < nslots; i += 2 * step) {
        U* dst = s.buf.data() + i * s.stride;
        const U* src = s.buf.data() + (i + step) * s.stride;
        for (int d = 0; d < b.dim; ++d) {
          dst[d] = reduction_combine(b.acc, dst[d], src[d]);
        }
      }
    }
    // Another loop may be finalising into the same global right now;
    // this read-modify-write must not lose its update.
    std::lock_guard<hpxlite::spinlock> lock(global_merge_lock());
    for (int d = 0; d < b.dim; ++d) {
      b.gbl[d] = reduction_combine(b.acc, b.gbl[d], s.buf[d]);
    }
  }
};

/// What validation learns about a loop's argument list, shared by the
/// one-shot path, the prepared capture, and the dataflow API (which
/// validates synchronously at node-insertion time but builds the frame
/// only when the node fires).
struct loop_shape {
  std::vector<plan_indirection> conflicts;
  bool any_indirect = false;
  bool has_reduction = false;
};

/// Validates args against the iteration set and collects the
/// conflicting indirections the plan needs.  Throws
/// std::invalid_argument on every malformed-loop case the classic API
/// rejects.
template <typename... T>
loop_shape validate_args(const char* name, const op_set& set,
                         std::tuple<op_arg<T>...>& arg_tuple) {
  if (!set.valid()) {
    throw std::invalid_argument(std::string("op_par_loop '") + name +
                                "': invalid iteration set");
  }
  loop_shape shape;
  std::apply(
      [&](auto&... a) {
        const auto check = [&](auto& arg) {
          if (arg.is_global()) {
            if (is_reduction(arg.acc)) {
              shape.has_reduction = true;
            }
            return;
          }
          // A dat whose set was resized but whose storage was not
          // refitted would hand the kernel out-of-bounds pointers.
          if (arg.dat.raw_bytes().size() !=
              arg.dat.entries() * arg.dat.element_size()) {
            throw std::invalid_argument(
                std::string("op_par_loop '") + name + "': dat '" +
                arg.dat.name() +
                "' storage does not match its set's size (after "
                "op_set::resize, call op_dat::resize on every dat of "
                "the set)");
          }
          if (arg.is_indirect()) {
            shape.any_indirect = true;
            if (arg.map.from() != set) {
              throw std::invalid_argument(
                  std::string("op_par_loop '") + name + "': map '" +
                  arg.map.name() + "' is not from the iteration set");
            }
            if (writes(arg.acc)) {
              shape.conflicts.push_back({arg.map, arg.idx, arg.dat.id()});
            }
          } else if (arg.dat.set() != set) {
            throw std::invalid_argument(
                std::string("op_par_loop '") + name + "': direct dat '" +
                arg.dat.name() + "' does not live on the iteration set");
          }
        };
        (check(a), ...);
      },
      arg_tuple);
  return shape;
}

/// Validates args, builds/fetches the plan, binds raw views, and
/// allocates the per-worker reduction slots — the whole capture cost.
template <typename Kernel, typename... T>
std::shared_ptr<loop_frame<Kernel, T...>> make_frame(const char* name,
                                                     const op_set& set,
                                                     Kernel kernel,
                                                     op_arg<T>... args) {
  auto arg_tuple = std::make_tuple(std::move(args)...);
  const loop_shape shape = validate_args(name, set, arg_tuple);

  // Bind raw views before moving the tuple: the pointers target the
  // dats' shared heap storage, so they stay valid across the move.
  auto bound = std::apply(
      [](auto&... a) { return std::make_tuple(bind_arg(a)...); }, arg_tuple);
  auto plan = get_plan(set, current_config().block_size, shape.conflicts);

  // Slot layout for this runtime configuration.  runtime::exists()
  // first: runtime::get() would spin up a worker pool as a side effect.
  const unsigned hpx_slots =
      hpxlite::runtime::exists()
          ? static_cast<unsigned>(hpxlite::runtime::get().concurrency())
          : 0;
  const hpxlite::fork_join_team* team = team_if_active();
  const unsigned team_slots =
      team != nullptr ? static_cast<unsigned>(team->size()) : 0;
  const unsigned nslots = hpx_slots + team_slots + 1;

  auto scratch = std::apply(
      [nslots](const auto&... a) {
        return std::make_tuple(make_reduction_slots(a, nslots)...);
      },
      arg_tuple);

  // The optional wrapper keeps capturing-lambda kernels usable (no
  // default-constructible requirement) while letting replays re-emplace.
  return std::make_shared<loop_frame<Kernel, T...>>(
      std::string(name), set, std::optional<Kernel>(std::move(kernel)),
      std::move(arg_tuple), std::move(bound), std::move(plan),
      !shape.any_indirect, shape.has_reduction, hpx_slots, team_slots,
      nslots, std::move(scratch));
}

/// The chunk spec the hpx backends hand to for_each: the configured
/// static chunk, or the paper's auto-partitioner.
inline hpxlite::chunk_spec configured_chunk() {
  const auto& cfg = current_config();
  if (!cfg.chunker.empty()) {
    // OP2_CHUNK / config::chunker: full grammar, validated at init.
    return parse_chunk_spec(cfg.chunker);
  }
  if (cfg.static_chunk > 0) {
    return hpxlite::static_chunk_size(cfg.static_chunk);
  }
  return hpxlite::auto_chunk_size{};
}

/// The loop's deduplicated write set (see add_write_target): every dat
/// a non-OP_READ dat argument targets, plus every global argument buffer
/// the loop updates — exactly the state run_loop_protected must
/// snapshot/restore.  A fused frame lists its members' sets in order.
template <typename Frame>
std::vector<write_target> collect_write_targets(Frame& frame) {
  std::vector<write_target> targets;
  frame.collect_writes(targets);
  return targets;
}

/// Erases a typed frame (loop_frame or fused_frame) into the launch
/// descriptor executors consume.  The run_block/run_range closures share
/// ownership of the frame, so any copy of the launch keeps the loop's
/// data (dats, plan, kernel) alive — asynchronous executors just capture
/// the launch by value.  The closures also carry the resilience hooks:
/// a watchdog heartbeat per chunk, and the fault-injection fire points
/// when this invocation is armed (so injected faults originate inside
/// the backend's real parallel region; corrupt faults fire at dispatch
/// level once the whole loop completes, because a chunk-level fire races
/// with later chunks that legitimately rewrite the target).
template <typename Frame>
loop_launch erase_frame(std::shared_ptr<Frame> frame) {
  loop_launch d;
  d.name = frame->name;
  d.plan = frame->plan;
  d.set_size = frame->set.size();
  d.direct = frame->direct_loop;
  d.chunk = configured_chunk();
  if (frame->has_reduction) {
    d.begin_invocation = [frame] { frame->reset_scratch(); };
    d.finalize = [frame] { frame->merge_scratch(); };
  }
  if (profiling::enabled()) {
    d.prof = profiling::acquire_slot(d.name);
  }
  // Write targets feed the rollback snapshot and the corrupt fault;
  // skip the collection entirely on the zero-cost default path.  The
  // effective policy (not the global config) decides: a job running
  // under a per-job QoS scope needs the snapshot even when the
  // process-wide policy is off.
  if (effective_failure_policy().enabled() || fault_injector::active()) {
    d.writes = collect_write_targets(*frame);
  }
  d.fault = fault_injector::arm(d.name);
  const shard_context shard = current_shard_context();
  if (!shard.active && !d.fault) {
    // The common case: the closures capture only the frame, so they fit
    // std::function's inline buffer and copying the launch allocates
    // nothing.
    d.run_block = [frame](int b) {
      hpxlite::watchdog::pulse();
      frame->run_block(b);
    };
    d.run_range = [frame](int b, int e) {
      hpxlite::watchdog::pulse();
      frame->run_range(b, e);
    };
    return d;
  }
  // Loops issued inside a shard_scope get clamping + fence-gating baked
  // into the erased closures: iteration past `iterate_end` is dropped
  // (the halo suffix owned by other shards), and any chunk crossing
  // `interior_end` first waits the shard's halo-exchange fence.  Doing
  // it here — not in a backend — means EVERY executor runs shard loops
  // correctly: the seq floor and each degradation-ladder rung reuse the
  // same closures, so rollback/retry/rung-down compose with sharding.
  if (shard.active) {
    d.shard = shard;
  }
  const auto run = [frame, shard, fault = d.fault](int b, int e) {
    hpxlite::watchdog::pulse();
    if (fault) {
      fire_fault_pre(*fault);
    }
    if (shard.active) {
      e = std::min(e, shard.iterate_end);
      if (b >= e) {
        return;
      }
      if (e > shard.interior_end) {
        shard.gate();
      }
    }
    frame->run_range(b, e);
  };
  d.run_block = [frame, run](int blk) {
    const auto bi = static_cast<std::size_t>(blk);
    const int b = frame->plan->offset[bi];
    run(b, b + frame->plan->nelems[bi]);
  };
  d.run_range = run;
  return d;
}

}  // namespace detail

}  // namespace op2

// The capture/replay core and the public op_par_loop /
// op_par_loop_async entry points.  Tail-included so either header can
// be included first.
#include "op2/prepared_loop.hpp"
