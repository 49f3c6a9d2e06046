// The Airfoil loop table: each of the five loops of one iteration
// (save_soln, adt_calc, res_calc, bres_calc, update) written once —
// kernel, loop name, iteration set and argument list.  Every driver
// (run_classic / run_async / run_dataflow, run_job, the shard stages,
// bench/figures/loop_breakdown) launches from here; what a driver adds
// is only the launch verb and where it waits:
//
//   loops::adt_calc(d).run(h)          synchronous, prepared via handle h
//   loops::adt_calc(d).run_async(h)    §III-A2 future (Fig 10)
//   loops::adt_calc(d).run()           site-cached launch; with
//                                      dats<op_dat_df> a dataflow node
//                                      returning its shared future (Fig 14)
//   loops::update(d, &rms).member()    one member of op_par_loop_fused
//
// The argument builders are templated on the dat handle: dats<op_dat>
// yields the classic op_arg_dat descriptors, dats<op_dat_df> the
// modified API's op_arg_dat1.  The optional `name` overrides the loop
// name (the shard driver's per-shard "adt_calc@s3").
#pragma once

#include <tuple>
#include <type_traits>
#include <utility>

#include "airfoil/kernels.hpp"
#include "airfoil/solver.hpp"
#include "op2/op2.hpp"

namespace airfoil::loops {

/// A sim's dats as `Dat` handles (op2::op_dat or op2::op_dat_df); the
/// sets and maps are read from the sim, which must outlive this.
template <typename Dat>
struct dats {
  explicit dats(const sim& s_)
      : s(s_), x(s_.p_x), bound(s_.p_bound), q(s_.p_q), qold(s_.p_qold),
        adt(s_.p_adt), res(s_.p_res) {}

  const sim& s;
  Dat x, bound, q, qold, adt, res;
};

/// One loop of the table with its arguments built; the launch verbs
/// hand them to the op2 entry point the driver picks.
template <typename Kernel, typename... Args>
struct loop {
  Kernel kernel;
  const char* name;
  const op2::op_set& set;
  std::tuple<Args...> args;

  decltype(auto) run() && {
    return std::apply(
        [&](Args&... a) {
          return op2::op_par_loop(kernel, name, set, std::move(a)...);
        },
        args);
  }
  void run(op2::loop_handle& h) && {
    std::apply(
        [&](Args&... a) {
          op2::op_par_loop(h, kernel, name, set, std::move(a)...);
        },
        args);
  }
  hpxlite::future<void> run_async(op2::loop_handle& h) && {
    return std::apply(
        [&](Args&... a) {
          return op2::op_par_loop_async(h, kernel, name, set,
                                        std::move(a)...);
        },
        args);
  }
  auto member() && {
    return std::apply(
        [&](Args&... a) {
          return op2::fuse_loop(kernel, name, std::move(a)...);
        },
        args);
  }
};

template <typename Kernel, typename... Args>
loop<Kernel, Args...> make_loop(Kernel kernel, const char* name,
                                const op2::op_set& set, Args... args) {
  return {kernel, name, set, {std::move(args)...}};
}

template <typename T, typename Dat>
auto arg(const Dat& dat, int idx, const op2::op_map& map, int dim,
         op2::access acc) {
  if constexpr (std::is_same_v<Dat, op2::op_dat_df>) {
    return op2::op_arg_dat1<T>(dat, idx, map, dim, acc);
  } else {
    return op2::op_arg_dat<T>(dat, idx, map, dim, acc);
  }
}

template <typename Dat>
auto gbl(double* data, int dim, op2::access acc) {
  if constexpr (std::is_same_v<Dat, op2::op_dat_df>) {
    return op2::op_arg_gbl1<double>(data, dim, acc);
  } else {
    return op2::op_arg_gbl<double>(data, dim, acc);
  }
}

// --- the table ------------------------------------------------------------

using op2::OP_ID, op2::OP_INC, op2::OP_READ, op2::OP_RW, op2::OP_WRITE;

template <typename Dat>
auto save_soln(const dats<Dat>& d, const char* name = "save_soln") {
  return make_loop(airfoil::save_soln, name, d.s.cells,
                   arg<double>(d.q, -1, OP_ID, 4, OP_READ),
                   arg<double>(d.qold, -1, OP_ID, 4, OP_WRITE));
}

template <typename Dat>
auto adt_calc(const dats<Dat>& d, const char* name = "adt_calc") {
  return make_loop(airfoil::adt_calc, name, d.s.cells,
                   arg<double>(d.x, 0, d.s.pcell, 2, OP_READ),
                   arg<double>(d.x, 1, d.s.pcell, 2, OP_READ),
                   arg<double>(d.x, 2, d.s.pcell, 2, OP_READ),
                   arg<double>(d.x, 3, d.s.pcell, 2, OP_READ),
                   arg<double>(d.q, -1, OP_ID, 4, OP_READ),
                   arg<double>(d.adt, -1, OP_ID, 1, OP_WRITE));
}

template <typename Dat>
auto res_calc(const dats<Dat>& d, const char* name = "res_calc") {
  return make_loop(airfoil::res_calc, name, d.s.edges,
                   arg<double>(d.x, 0, d.s.pedge, 2, OP_READ),
                   arg<double>(d.x, 1, d.s.pedge, 2, OP_READ),
                   arg<double>(d.q, 0, d.s.pecell, 4, OP_READ),
                   arg<double>(d.q, 1, d.s.pecell, 4, OP_READ),
                   arg<double>(d.adt, 0, d.s.pecell, 1, OP_READ),
                   arg<double>(d.adt, 1, d.s.pecell, 1, OP_READ),
                   arg<double>(d.res, 0, d.s.pecell, 4, OP_INC),
                   arg<double>(d.res, 1, d.s.pecell, 4, OP_INC));
}

template <typename Dat>
auto bres_calc(const dats<Dat>& d, const char* name = "bres_calc") {
  return make_loop(airfoil::bres_calc, name, d.s.bedges,
                   arg<double>(d.x, 0, d.s.pbedge, 2, OP_READ),
                   arg<double>(d.x, 1, d.s.pbedge, 2, OP_READ),
                   arg<double>(d.q, 0, d.s.pbecell, 4, OP_READ),
                   arg<double>(d.adt, 0, d.s.pbecell, 1, OP_READ),
                   arg<double>(d.res, 0, d.s.pbecell, 4, OP_INC),
                   arg<int>(d.bound, -1, OP_ID, 1, OP_READ));
}

/// `rms` receives the stage's sum of squared residual updates.
template <typename Dat>
auto update(const dats<Dat>& d, double* rms, const char* name = "update") {
  return make_loop(airfoil::update, name, d.s.cells,
                   arg<double>(d.qold, -1, OP_ID, 4, OP_READ),
                   arg<double>(d.q, -1, OP_ID, 4, OP_WRITE),
                   arg<double>(d.res, -1, OP_ID, 4, OP_RW),
                   arg<double>(d.adt, -1, OP_ID, 1, OP_READ),
                   gbl<Dat>(rms, 1, OP_INC));
}

}  // namespace airfoil::loops
