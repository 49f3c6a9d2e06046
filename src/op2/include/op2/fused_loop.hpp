// Fused loops — one launch replaying several kernel bodies per element.
//
// A chain of direct loops over the same set (Airfoil: `update` followed
// by the next iteration's `save_soln`) traverses the same dats
// back-to-back: each loop streams the whole working set through the
// cache once.  A *fused* launch interleaves the member kernels
// element-contiguously —
//
//   for each element i:  k1(i); k2(i); ... kN(i);
//
// — one traversal instead of N, so every dat shared between the members
// is touched while still cache-resident.  Legality is decided by the
// fusion planner (op2/fusion.hpp): every member must be direct over the
// launch set, and no member may touch a global another member reduces
// into.  op_par_loop_fused validates the member list through the
// planner at capture time and throws (with the plan's explanation) when
// the chain cannot fuse into a single group.
//
// Time-step tiling (op_par_loop_fused_steps + OP2_TILE) extends the
// same idea across solver iterations: for a pure element-local chain,
// running S steps of the chain tile-by-tile —
//
//   for each tile:  for each step:  run the chain over the tile
//
// — keeps one tile's working set hot across all S steps (~S× DRAM
// traffic reduction) and is bit-identical to the step-major order
// because no element depends on any other.  Chains with global
// reductions are rejected for steps > 1 (the accumulation order would
// become tile-major).
//
// A fused group is one more frame kind for the capture/replay core
// (op2/prepared_loop.hpp): it captures once (member frames, shared
// direct plan, erased launch, chosen chunk, profiling slot), replays
// allocation-free and falls back exactly as a single loop does, except
// that OP2_FUSE=off runs the members as individual prepared loops.
// Loops issued inside a shard_scope fuse within the span: erase_frame
// bakes in the same clamp + fence gate as for single loops.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "op2/fusion.hpp"
#include "op2/par_loop.hpp"

namespace op2 {

namespace detail {

template <typename M>
struct is_fused_member : std::false_type {};

template <typename Kernel, typename... T>
struct is_fused_member<loop_member<Kernel, T...>> : std::true_type {};

/// Opaque identity tokens for the planner: the runtime keys legality on
/// object identity (dat/map ids, global buffer addresses), rendered as
/// strings so the same planner serves codegen (variable names).
inline std::string ptr_token(const void* p) {
  return std::to_string(reinterpret_cast<std::uintptr_t>(p));
}

template <typename T>
fusion::arg_desc describe_arg(const op_arg<T>& a) {
  fusion::arg_desc d;
  d.acc = a.acc;
  if (a.is_global()) {
    d.gbl = ptr_token(a.gbl);
    return d;
  }
  d.dat = ptr_token(a.dat.id());
  if (a.is_indirect()) {
    d.map = ptr_token(a.map.id());
  }
  return d;
}

template <typename Kernel, typename... T>
fusion::loop_desc describe_member(const op_set& set,
                                  const loop_member<Kernel, T...>& m) {
  fusion::loop_desc d;
  d.name = m.name;
  d.set = ptr_token(set.id());
  std::apply(
      [&d](const auto&... a) { (d.args.push_back(describe_arg(a)), ...); },
      m.args);
  return d;
}

/// Runs the member list through the fusion planner and throws — with
/// the plan's per-loop explanations — unless everything fuses into one
/// legal group.  fused_frame::build calls it, so it runs at capture and
/// for one-shot builds; replays reuse the verdict because the cache key
/// pins the exact argument identity it was made for.
template <typename... M>
void validate_fusable(const op_set& set, const M&... members) {
  std::vector<fusion::loop_desc> descs;
  descs.reserve(sizeof...(M));
  (descs.push_back(describe_member(set, members)), ...);
  for (const auto& d : descs) {
    if (!d.direct()) {
      throw std::invalid_argument(
          std::string("op_par_loop_fused: member '") + d.name +
          "' has indirect arguments — only direct loops fuse");
    }
  }
  fusion::fusion_plan plan = fusion::plan_fusion(std::move(descs));
  if (plan.groups.size() != 1) {
    throw std::invalid_argument(
        "op_par_loop_fused: member loops cannot legally fuse into one "
        "launch\n" +
        plan.describe());
  }
}

template <typename Kernel, typename... T>
bool member_has_reduction(const loop_member<Kernel, T...>& m) {
  return std::apply(
      [](const auto&... a) {
        return ((a.is_global() && is_reduction(a.acc)) || ...);
      },
      m.args);
}

/// Time-step tiling reorders execution tile-major; only a pure
/// element-local chain is bit-identical under that reordering, so a
/// multi-step launch rejects members with global reductions.
template <typename... M>
void validate_steps(int steps, const M&... members) {
  if (steps < 1) {
    throw std::invalid_argument("op_par_loop_fused: steps must be >= 1");
  }
  if (steps > 1 && (member_has_reduction(members) || ...)) {
    throw std::invalid_argument(
        "op_par_loop_fused: time-step tiling (steps > 1) requires a pure "
        "element-local chain — a global reduction would accumulate in "
        "tile order, not step order");
  }
}

/// The fused counterpart of loop_frame: the member frames plus the
/// schedule knobs (steps, tile), traversed element-contiguously.
template <typename... Frames>
struct fused_frame {
  static constexpr bool fused = true;
  static constexpr bool direct_loop = true;  // only direct members fuse
  std::string name;  // member names joined with '+'
  op_set set;
  std::tuple<std::shared_ptr<Frames>...> frames;
  /// The shared direct plan (all members are direct over `set`, so
  /// every member frame holds this same plan).
  std::shared_ptr<const op_plan> plan;
  bool has_reduction = false;
  /// Per-dispatch schedule: written only while the owning entry is held
  /// in flight (or before the first dispatch), read by the erased
  /// closures — the same publication discipline as the kernel
  /// re-emplace on replay.
  int steps = 1;
  int tile = 0;  // elements per tile; 0 = the whole range is one tile

  void run_block(int block) const {
    const auto bi = static_cast<std::size_t>(block);
    run_range(plan->offset[bi], plan->offset[bi] + plan->nelems[bi]);
  }

  void run_range(int begin, int end) const {
    if (tile <= 0 || tile >= end - begin) {
      for (int s = 0; s < steps; ++s) {
        run_tile(begin, end);
      }
      return;
    }
    for (int t0 = begin; t0 < end; t0 += tile) {
      const int t1 = std::min(t0 + tile, end);
      for (int s = 0; s < steps; ++s) {
        run_tile(t0, t1);
      }
    }
  }

  /// One traversal of [begin, end) invoking every member kernel per
  /// element, in member order.  Each member's runner resolves its
  /// reduction slot and argument pointers once for the whole tile.
  void run_tile(int begin, int end) const {
    std::apply(
        [begin, end](const auto&... f) {
          auto runners = std::make_tuple(
              typename std::decay_t<decltype(*f)>::runner(*f)...);
          std::apply(
              [begin, end](const auto&... r) {
                for (int i = begin; i < end; ++i) {
                  (r(i), ...);
                }
              },
              runners);
        },
        frames);
  }

  /// Member order on reset and merge keeps reduction results bitwise
  /// identical to running the members as separate loops.
  void reset_scratch() const {
    std::apply([](const auto&... f) { (f->reset_scratch(), ...); }, frames);
  }
  void merge_scratch() const {
    std::apply([](const auto&... f) { (f->merge_scratch(), ...); }, frames);
  }

  /// The capture/replay core's frame interface, as on loop_frame.
  /// build checks the member list through the fusion planner first, so
  /// an illegal list throws before any frame is made.
  template <typename... M>
  static std::shared_ptr<fused_frame> build(const op_set& set, M... members) {
    validate_fusable(set, members...);
    const std::array<const char*, sizeof...(M)> names{members.name...};
    auto fused = std::make_shared<fused_frame>();
    fused->name = names[0];
    for (std::size_t i = 1; i < names.size(); ++i) {
      fused->name += '+';
      fused->name += names[i];
    }
    fused->set = set;
    fused->frames =
        std::make_tuple(M::frame::build(set, std::move(members))...);
    fused->plan = std::get<0>(fused->frames)->plan;
    fused->has_reduction = std::apply(
        [](const auto&... f) { return (f->has_reduction || ...); },
        fused->frames);
    return fused;
  }

  template <typename... M>
  void rebind(M&... members) {
    std::apply([&](auto&... f) { (f->rebind(members), ...); }, frames);
  }

  void collect_writes(std::vector<write_target>& out) {
    std::apply([&out](auto&... f) { (f->collect_writes(out), ...); },
               frames);
  }
};

template <typename... M>
using fused_frame_for = fused_frame<typename M::frame...>;

template <typename... M>
void run_fused(loop_handle& handle, const op_set& set, int steps,
               M... members) {
  static_assert(sizeof...(M) >= 1,
                "op_par_loop_fused needs at least one member");
  validate_steps(steps, members...);
  using entry = launch_entry<fused_frame_for<M...>, M...>;
  run_sync(*handle.cache<entry>(), current_executor(),
           effective_failure_policy(), set, steps, std::move(members)...);
}

}  // namespace detail

/// Builds one member of a fused launch:
///
///   op2::op_par_loop_fused(handle, cells,
///       op2::fuse_loop(update, "update", args...),
///       op2::fuse_loop(save_soln, "save_soln", args...));
template <typename Kernel, typename... T>
detail::loop_member<Kernel, T...> fuse_loop(Kernel kernel, const char* name,
                                            op_arg<T>... args) {
  return {name, std::move(kernel), std::make_tuple(std::move(args)...)};
}

/// A fused launch caches through an ordinary loop_handle.
using fused_handle = loop_handle;

/// Runs the member loops as ONE fused launch: a single traversal of
/// `set` invoking every member kernel per element, in member order.
/// Legality (all members direct over `set`, no global reduced by one
/// member touched by another) is checked through the fusion planner at
/// capture; an illegal member list throws std::invalid_argument with
/// the planner's explanation.  Results are bit-identical to calling
/// op_par_loop per member in order — OP2_FUSE=off does exactly that.
template <typename... M,
          typename = std::enable_if_t<
              (detail::is_fused_member<M>::value && ...)>>
void op_par_loop_fused(fused_handle& handle, const op_set& set,
                       M... members) {
  detail::run_fused(handle, set, /*steps=*/1, std::move(members)...);
}

/// Time-step-tiled flavour: runs `steps` repetitions of the fused chain
/// tile-by-tile (OP2_TILE sizes the tile; untiled when off), so each
/// tile's working set stays cache-hot across all the steps.  Requires a
/// pure element-local chain (no global reductions) — bit-identical to
/// running the chain `steps` times, in any tile order.
template <typename... M,
          typename = std::enable_if_t<
              (detail::is_fused_member<M>::value && ...)>>
void op_par_loop_fused_steps(fused_handle& handle, const op_set& set,
                             int steps, M... members) {
  detail::run_fused(handle, set, steps, std::move(members)...);
}

}  // namespace op2
