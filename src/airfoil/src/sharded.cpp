#include "airfoil/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "airfoil/kernels.hpp"
#include "airfoil/loops.hpp"
#include "hpxlite/async.hpp"
#include "op2/runtime.hpp"

namespace airfoil {

namespace {

/// Adds the staged edge fluxes into the residual in ascending GLOBAL
/// edge order, skipping halo-cell targets (their owner computes the
/// same flux from the same bits).  Per owned cell this replays exactly
/// the sequential accumulation sequence: every incident edge is local
/// (edges follow any owned cell), the global order is preserved by
/// edge_apply, and within one edge cell1 is bumped before cell2, as
/// res_calc does.
void apply_res_stage(shard_domain& sh) {
  auto res = sh.local.p_res.data<double>();
  const auto stage = sh.p_res_stage.data<double>();
  const auto& pecell = sh.local.pecell;
  for (const int l : sh.edge_apply) {
    const int c1 = pecell.at(l, 0);
    const int c2 = pecell.at(l, 1);
    if (c1 < sh.nowned) {
      for (int n = 0; n < 4; ++n) {
        res[static_cast<std::size_t>(4 * c1 + n)] +=
            stage[static_cast<std::size_t>(8 * l + n)];
      }
    }
    if (c2 < sh.nowned) {
      for (int n = 0; n < 4; ++n) {
        res[static_cast<std::size_t>(4 * c2 + n)] +=
            stage[static_cast<std::size_t>(8 * l + 4 + n)];
      }
    }
  }
}

/// Boundary-edge flavour: local bedges are already in ascending global
/// order and their cell is always owned.  Wall edges staged +0.0 for
/// components 0/3, a bitwise no-op on a residual (see bres_calc_stage).
void apply_bres_stage(shard_domain& sh) {
  auto res = sh.local.p_res.data<double>();
  const auto stage = sh.p_bres_stage.data<double>();
  const auto& pbecell = sh.local.pbecell;
  const int nbedge = sh.local.bedges.size();
  for (int e = 0; e < nbedge; ++e) {
    const int c = pbecell.at(e, 0);
    for (int n = 0; n < 4; ++n) {
      res[static_cast<std::size_t>(4 * c + n)] +=
          stage[static_cast<std::size_t>(4 * e + n)];
    }
  }
}

/// One shard's share of one RK stage (optionally preceded by
/// save_soln).  Runs on a worker task; the shard_scopes install the
/// iterate windows and the halo fence the erased loop closures clamp
/// and gate on — under hpx_shard the interior spans run while the
/// exchange is still in flight.
///
/// With fuse_next_save, the closing update additionally absorbs the
/// NEXT iteration's save_soln as a fused launch within the owned span.
/// Hoisting the save ahead of the intervening halo exchange is legal:
/// save_soln touches only owned q (read) and owned qold (write), while
/// the exchange reads owned q and writes halo q — disjoint from qold
/// and read-read on q.  Fusion never crosses the fence itself: both
/// members run under the same fence-free owned_ctx, and the prepared
/// entry re-validates the shard window on every replay.
void run_stage(shard_sim& d, shard_domain& sh, bool with_save,
               bool fuse_next_save) {
  using op2::op_arg_dat;
  using op2::OP_ID;
  using op2::OP_READ;
  using op2::OP_WRITE;

  auto& s = sh.local;
  const int nlocal_cells = s.cells.size();
  const int nlocal_edges = s.edges.size();
  const int nlocal_bedges = s.bedges.size();
  op2::shard_fence& fence = d.xq->fence(sh.shard);

  // Owned-only window for the direct loops; no fence (they never read
  // the halo, so they overlap the in-flight exchange).
  const op2::shard_context owned_ctx{true, sh.shard, sh.nowned, sh.nowned,
                                     nullptr};
  // All local cells, gate when crossing into the halo suffix.
  const op2::shard_context cells_ctx{true, sh.shard, sh.nowned, nlocal_cells,
                                     &fence};
  // All local edges, gate when crossing into the boundary suffix.
  const op2::shard_context edges_ctx{true, sh.shard, sh.interior_edges,
                                     nlocal_edges, &fence};
  // bedges never touch the halo: full window, no fence.
  const op2::shard_context bedges_ctx{true, sh.shard, nlocal_bedges,
                                      nlocal_bedges, nullptr};

  const loops::dats<op2::op_dat> ld(s);
  if (with_save) {
    op2::shard_scope scope(owned_ctx);
    loops::save_soln(ld, sh.n_save.c_str()).run();
  }
  {
    // Redundant adt compute on halo cells (the suffix) replaces an adt
    // exchange — adt is a pure function of x and the freshly-exchanged
    // q, so the replica is bit-identical to the owner's.
    op2::shard_scope scope(cells_ctx);
    loops::adt_calc(ld, sh.n_adt.c_str()).run();
  }
  {
    // Direct OP_WRITE into the per-edge stage slots: conflict-free, so
    // hpx_shard splits it interior/boundary around the fence.
    op2::shard_scope scope(edges_ctx);
    op2::op_par_loop(res_calc_stage, sh.n_res.c_str(), s.edges,
                     op_arg_dat<double>(s.p_x, 0, s.pedge, 2, OP_READ),
                     op_arg_dat<double>(s.p_x, 1, s.pedge, 2, OP_READ),
                     op_arg_dat<double>(s.p_q, 0, s.pecell, 4, OP_READ),
                     op_arg_dat<double>(s.p_q, 1, s.pecell, 4, OP_READ),
                     op_arg_dat<double>(s.p_adt, 0, s.pecell, 1, OP_READ),
                     op_arg_dat<double>(s.p_adt, 1, s.pecell, 1, OP_READ),
                     op_arg_dat<double>(sh.p_res_stage, -1, OP_ID, 8,
                                        OP_WRITE));
  }
  {
    op2::shard_scope scope(bedges_ctx);
    op2::op_par_loop(bres_calc_stage, sh.n_bres.c_str(), s.bedges,
                     op_arg_dat<double>(s.p_x, 0, s.pbedge, 2, OP_READ),
                     op_arg_dat<double>(s.p_x, 1, s.pbedge, 2, OP_READ),
                     op_arg_dat<double>(s.p_q, 0, s.pbecell, 4, OP_READ),
                     op_arg_dat<double>(s.p_adt, 0, s.pbecell, 1, OP_READ),
                     op_arg_dat<double>(sh.p_bres_stage, -1, OP_ID, 4,
                                        OP_WRITE),
                     op_arg_dat<int>(s.p_bound, -1, OP_ID, 1, OP_READ));
  }
  apply_res_stage(sh);
  apply_bres_stage(sh);

  sh.rms = 0.0;
  {
    op2::shard_scope scope(owned_ctx);
    if (fuse_next_save) {
      // One handle serves every shard: the per-shard loop names and
      // owned sets make per-shard entries in the fused cache (capacity
      // 8; more shards than that recapture — correct, just colder).
      static op2::fused_handle h_fused;
      op2::op_par_loop_fused(
          h_fused, s.cells,
          loops::update(ld, &sh.rms, sh.n_update.c_str()).member(),
          loops::save_soln(ld, sh.n_save.c_str()).member());
    } else {
      loops::update(ld, &sh.rms, sh.n_update.c_str()).run();
    }
  }
}

/// Launches one task per shard and joins (the main thread blocks, the
/// workers run the shard loops; a worker blocked in a fence helps).
void run_stage_all(shard_sim& d, bool with_save, bool fuse_next_save) {
  std::vector<hpxlite::future<void>> tasks;
  tasks.reserve(d.shards.size());
  for (auto& sh : d.shards) {
    tasks.push_back(hpxlite::async([&d, &sh, with_save, fuse_next_save] {
      run_stage(d, sh, with_save, fuse_next_save);
    }));
  }
  for (auto& t : tasks) {
    t.get();
  }
}

}  // namespace

shard_sim make_shard_sim(const op2::mesh& m, int nshards, int halo_depth) {
  if (nshards <= 0) {
    throw std::invalid_argument("make_shard_sim: nshards must be >= 1");
  }
  const auto& pcell = m.map("pcell");
  const auto& pedge = m.map("pedge");
  const auto& pecell = m.map("pecell");
  const auto& pbedge = m.map("pbedge");
  const auto& pbecell = m.map("pbecell");
  const auto x = m.dat("p_x").data<double>();
  const auto bound = m.dat("p_bound").data<int>();
  const int ncell = m.set("cells").size();
  const int nedge = m.set("edges").size();
  const int nbedge = m.set("bedges").size();

  // RCB over cell centroids, deterministic across platforms (id
  // tie-break, op2/partition.hpp).
  const auto parts = op2::partition_rcb(cell_centroids(m), nshards);

  shard_sim d;
  d.global_cells = ncell;
  d.hp = std::make_unique<op2::halo_partition>(
      op2::build_halo_partition(parts, pecell, halo_depth));
  d.shards.resize(static_cast<std::size_t>(nshards));

  for (int r = 0; r < nshards; ++r) {
    auto& sh = d.shards[static_cast<std::size_t>(r)];
    const auto& part = d.hp->shards[static_cast<std::size_t>(r)];
    sh.shard = r;
    sh.nowned = part.owned_count();
    sh.global_cell = part.owned;
    sh.global_cell.insert(sh.global_cell.end(), part.halo.begin(),
                          part.halo.end());

    // Every edge incident to >= 1 owned cell is local: interior edges
    // (both cells owned) first, boundary edges after, each ascending by
    // global id.  The non-owned cell of a boundary edge is adjacent to
    // an owned one via this very pecell row, so it is in the depth-1
    // halo — the layout invariant the fence windows rest on.
    std::vector<int> boundary;
    for (int e = 0; e < nedge; ++e) {
      const bool o0 =
          parts.part_of[static_cast<std::size_t>(pecell.at(e, 0))] == r;
      const bool o1 =
          parts.part_of[static_cast<std::size_t>(pecell.at(e, 1))] == r;
      if (!o0 && !o1) {
        continue;
      }
      if (o0 && o1) {
        sh.global_edge.push_back(e);
      } else {
        boundary.push_back(e);
      }
    }
    sh.interior_edges = static_cast<int>(sh.global_edge.size());
    sh.global_edge.insert(sh.global_edge.end(), boundary.begin(),
                          boundary.end());
    const int nledge = static_cast<int>(sh.global_edge.size());
    // The apply permutation: local edge ids in ascending global order
    // (a merge of the two sorted runs).
    sh.edge_apply.resize(static_cast<std::size_t>(nledge));
    std::iota(sh.edge_apply.begin(), sh.edge_apply.end(), 0);
    std::sort(sh.edge_apply.begin(), sh.edge_apply.end(), [&](int a, int b) {
      return sh.global_edge[static_cast<std::size_t>(a)] <
             sh.global_edge[static_cast<std::size_t>(b)];
    });

    for (int e = 0; e < nbedge; ++e) {
      if (parts.part_of[static_cast<std::size_t>(pbecell.at(e, 0))] == r) {
        sh.global_bedge.push_back(e);
      }
    }

    // Local nodes: the corners of every local cell (x is static, so
    // replicas never need exchanging).
    std::vector<int> my_nodes;
    for (const int c : sh.global_cell) {
      for (int k = 0; k < 4; ++k) {
        my_nodes.push_back(pcell.at(c, k));
      }
    }
    std::sort(my_nodes.begin(), my_nodes.end());
    my_nodes.erase(std::unique(my_nodes.begin(), my_nodes.end()),
                   my_nodes.end());
    std::unordered_map<int, int> local_of_node;
    local_of_node.reserve(my_nodes.size());
    for (std::size_t i = 0; i < my_nodes.size(); ++i) {
      local_of_node.emplace(my_nodes[i], static_cast<int>(i));
    }
    const auto local_cell = [&](int c) {
      return part.local_of[static_cast<std::size_t>(c)];
    };

    // Assemble the local op2 mesh.
    op2::mesh lm;
    lm.sets.emplace("nodes", op2::op_decl_set(
                                 static_cast<int>(my_nodes.size()), "nodes"));
    lm.sets.emplace("cells",
                    op2::op_decl_set(
                        static_cast<int>(sh.global_cell.size()), "cells"));
    lm.sets.emplace("edges", op2::op_decl_set(nledge, "edges"));
    lm.sets.emplace("bedges",
                    op2::op_decl_set(
                        static_cast<int>(sh.global_bedge.size()), "bedges"));

    std::vector<int> lp;
    lp.reserve(sh.global_cell.size() * 4);
    for (const int c : sh.global_cell) {
      for (int k = 0; k < 4; ++k) {
        lp.push_back(local_of_node.at(pcell.at(c, k)));
      }
    }
    lm.maps.emplace("pcell",
                    op2::op_decl_map(lm.sets.at("cells"), lm.sets.at("nodes"),
                                     4, lp, "pcell"));
    lp.clear();
    for (const int e : sh.global_edge) {
      lp.push_back(local_of_node.at(pedge.at(e, 0)));
      lp.push_back(local_of_node.at(pedge.at(e, 1)));
    }
    lm.maps.emplace("pedge",
                    op2::op_decl_map(lm.sets.at("edges"), lm.sets.at("nodes"),
                                     2, lp, "pedge"));
    lp.clear();
    for (const int e : sh.global_edge) {
      lp.push_back(local_cell(pecell.at(e, 0)));
      lp.push_back(local_cell(pecell.at(e, 1)));
    }
    lm.maps.emplace("pecell",
                    op2::op_decl_map(lm.sets.at("edges"), lm.sets.at("cells"),
                                     2, lp, "pecell"));
    lp.clear();
    for (const int e : sh.global_bedge) {
      lp.push_back(local_of_node.at(pbedge.at(e, 0)));
      lp.push_back(local_of_node.at(pbedge.at(e, 1)));
    }
    lm.maps.emplace("pbedge",
                    op2::op_decl_map(lm.sets.at("bedges"),
                                     lm.sets.at("nodes"), 2, lp, "pbedge"));
    lp.clear();
    for (const int e : sh.global_bedge) {
      lp.push_back(local_cell(pbecell.at(e, 0)));
    }
    lm.maps.emplace("pbecell",
                    op2::op_decl_map(lm.sets.at("bedges"),
                                     lm.sets.at("cells"), 1, lp, "pbecell"));

    std::vector<double> lx;
    lx.reserve(my_nodes.size() * 2);
    for (const int n : my_nodes) {
      lx.push_back(x[static_cast<std::size_t>(2 * n)]);
      lx.push_back(x[static_cast<std::size_t>(2 * n + 1)]);
    }
    lm.dats.emplace("p_x", op2::op_decl_dat<double>(
                               lm.sets.at("nodes"), 2, "double",
                               std::span<const double>(lx), "p_x"));
    std::vector<int> lbound;
    lbound.reserve(sh.global_bedge.size());
    for (const int e : sh.global_bedge) {
      lbound.push_back(bound[static_cast<std::size_t>(e)]);
    }
    lm.dats.emplace("p_bound", op2::op_decl_dat<int>(
                                   lm.sets.at("bedges"), 1, "int",
                                   std::span<const int>(lbound), "p_bound"));

    sh.local = make_sim(std::move(lm));

    sh.p_res_stage =
        op2::op_decl_dat<double>(sh.local.edges, 8, "double", "p_res_stage");
    sh.p_bres_stage = op2::op_decl_dat<double>(sh.local.bedges, 4, "double",
                                               "p_bres_stage");

    const std::string tag = "@s" + std::to_string(r);
    sh.n_save = "save_soln" + tag;
    sh.n_adt = "adt_calc" + tag;
    sh.n_res = "res_calc" + tag;
    sh.n_bres = "bres_calc" + tag;
    sh.n_update = "update" + tag;
  }

  std::vector<op2::op_dat> qs;
  qs.reserve(d.shards.size());
  for (const auto& sh : d.shards) {
    qs.push_back(sh.local.p_q);
  }
  d.xq = std::make_unique<op2::halo_exchanger>(d.hp.get(), std::move(qs));
  return d;
}

run_result run_sharded(shard_sim& d, int niter) {
  run_result out;
  out.rms_history.reserve(static_cast<std::size_t>(niter));
  const auto t0 = std::chrono::steady_clock::now();

  // Iteration 0 saves standalone; every later save runs fused with the
  // previous iteration's k=1 update (see run_stage), so the k=0 stages
  // after that skip their save.
  bool need_save = true;
  for (int iter = 0; iter < niter; ++iter) {
    for (int k = 0; k < 2; ++k) {
      // Owner q -> halo replicas; the fences re-arm here and complete
      // on the progress thread while the shard tasks run.
      d.xq->exchange();
      const bool fuse_save = k == 1 && iter + 1 < niter;
      run_stage_all(d, /*with_save=*/k == 0 && need_save, fuse_save);
      if (fuse_save) {
        need_save = false;
      }
    }
    // Deterministic rms reduction: shard partials in shard order.
    double rms = 0.0;
    for (const auto& sh : d.shards) {
      rms += sh.rms;
    }
    out.rms_history.push_back(
        std::sqrt(rms / static_cast<double>(d.global_cells)));
  }

  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

std::vector<double> gather_q(const shard_sim& d) {
  std::vector<double> q(static_cast<std::size_t>(d.global_cells) * 4, 0.0);
  for (const auto& sh : d.shards) {
    const auto lq = sh.local.p_q.data<double>();
    for (int c = 0; c < sh.nowned; ++c) {
      const auto g = static_cast<std::size_t>(
          sh.global_cell[static_cast<std::size_t>(c)]);
      for (int n = 0; n < 4; ++n) {
        q[4 * g + static_cast<std::size_t>(n)] =
            lq[static_cast<std::size_t>(4 * c + n)];
      }
    }
  }
  return q;
}

void scatter_q(shard_sim& d, std::span<const double> q) {
  if (q.size() != static_cast<std::size_t>(d.global_cells) * 4) {
    throw std::invalid_argument("scatter_q: field size mismatch");
  }
  for (auto& sh : d.shards) {
    auto lq = sh.local.p_q.data<double>();
    for (std::size_t l = 0; l < sh.global_cell.size(); ++l) {
      const auto g = static_cast<std::size_t>(sh.global_cell[l]);
      for (int n = 0; n < 4; ++n) {
        lq[4 * l + static_cast<std::size_t>(n)] =
            q[4 * g + static_cast<std::size_t>(n)];
      }
    }
  }
}

run_result run_sharded(sim& s, int niter) {
  const auto& cfg = op2::current_config();
  auto d = make_shard_sim(s.mesh, op2::effective_shards(cfg),
                          cfg.halo_depth);
  // Seed from the caller's current field so warm starts behave like the
  // other drivers (which evolve s in place).
  scatter_q(d, s.p_q.data<double>());
  auto out = run_sharded(d, niter);
  const auto q = gather_q(d);
  auto sq = s.p_q.data<double>();
  std::copy(q.begin(), q.end(), sq.begin());
  return out;
}

}  // namespace airfoil
