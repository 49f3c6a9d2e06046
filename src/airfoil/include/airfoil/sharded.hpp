// Shard-aware Airfoil — the op2 shard core (op2/shard.hpp +
// op2/exchange.hpp) driven end to end: N runtime shards in ONE
// process, each owning an RCB slice of the cells plus a read-only halo,
// with q exchanged through the pluggable transport as an hpxlite future
// that overlaps interior computation.  This is the single-process
// rehearsal of the paper's full-scale MPI+HPX execution shape.
//
// Scheme (cells decomposed by op2::build_halo_partition over pecell):
//
//   cells   partitioned by RCB over centroids; local order is
//           [owned, ascending global id | halo, ascending], so the
//           owned prefix doubles as the iterate window for direct
//           loops (save_soln / update touch owned cells only).
//   edges   EVERY edge incident to >= 1 owned cell is replicated
//           locally — the flux of a cut edge is computed redundantly
//           on both sides, which eliminates the residual reduction
//           (there is ONE exchanged field: q).  Local order is
//           interior edges (both cells owned) first, boundary edges
//           (one cell in the halo) after, each ascending by global id,
//           so [0, interior_edges) is the exchange-independent span.
//   bedges  owned by their cell's owner; never touch the halo.
//
// save_soln, adt_calc and update come from the loop table
// (airfoil/loops.hpp) under per-shard names ("adt_calc@s3"), launched
// inside the shard's window (op2::shard_scope).
//
// Bit-exactness: res_calc/bres_calc are replaced by their *_stage
// flavours (airfoil/kernels.hpp), which write per-edge flux slots
// instead of accumulating through the map.  A serial apply pass per
// shard then adds the slots in ascending GLOBAL edge id — skipping
// halo-cell targets, whose owners compute the same flux from the same
// bits — so every owned cell sees exactly the sequential accumulation
// order and hpx_shard(N) reproduces the seq flow field bit for bit.
// The rms monitor is reduced per shard and summed in shard order; it
// is deterministic but associates differently from seq, so tests
// compare it with a tolerance (two-tier contract).
//
// Per iteration:  exchange q -> fences armed
//                 per shard, concurrently:
//                   save_soln (owned)           | overlaps exchange
//                   adt_calc  interior | gate | halo
//                   res_calc_stage  interior | gate | boundary
//                   bres_calc_stage (all local, no fence)
//                   apply res stage, apply bres stage (serial, gid order)
//                   update (owned, rms partial)
//                 join; second exchange before the second RK stage.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "airfoil/mesh.hpp"
#include "airfoil/solver.hpp"
#include "op2/exchange.hpp"
#include "op2/shard.hpp"

namespace airfoil {

/// One shard's private universe: a self-contained sim over its local
/// sub-mesh plus the staging state the deterministic apply needs.
struct shard_domain {
  sim local;                      // private sub-mesh + solution state
  int shard = 0;
  int nowned = 0;                 // local cells [0, nowned) are owned
  int interior_edges = 0;         // local edges [0, interior_edges)
                                  // touch owned cells only
  std::vector<int> global_cell;   // local cell  -> global cell id
  std::vector<int> global_edge;   // local edge  -> global edge id
  std::vector<int> global_bedge;  // local bedge -> global bedge id
  /// Local edge ids in ascending global-edge order — the apply
  /// permutation that reproduces the sequential accumulation order.
  std::vector<int> edge_apply;
  op2::op_dat p_res_stage;        // edges,  dim 8: +f for cell1, -f for cell2
  op2::op_dat p_bres_stage;       // bedges, dim 4
  double rms = 0.0;               // this shard's update() partial
  /// Per-shard loop names ("adt_calc@s3"): stable storage for the
  /// const char* op_par_loop keeps, and the handle OP2_FAULT targets a
  /// single shard's loop by ("bres_calc@s1:throw").
  std::string n_save, n_adt, n_res, n_bres, n_update;
};

/// A sharded simulation: the cell decomposition, one domain per shard,
/// and the halo exchanger for q.  hp/xq live behind unique_ptr so the
/// addresses the exchanger and the fences hand out stay stable when a
/// shard_sim is moved.
struct shard_sim {
  std::unique_ptr<op2::halo_partition> hp;
  std::vector<shard_domain> shards;
  std::unique_ptr<op2::halo_exchanger> xq;
  int global_cells = 0;
};

/// Decomposes `m` (a mesh from generate_mesh) into `nshards` owner/halo
/// domains (RCB over cell centroids, halo via pecell adjacency).
/// Deterministic: same mesh + same arguments -> same layout, on any
/// platform (see op2/partition.hpp).
shard_sim make_shard_sim(const op2::mesh& m, int nshards, int halo_depth = 1);

/// Runs `niter` iterations across all shards, two halo exchanges per
/// iteration, loops under the currently configured op2 backend (the
/// overlap schedule needs hpx_shard; any backend is correct).
run_result run_sharded(shard_sim& d, int niter);

/// Gathers the owned q values back into a global field (4 per cell).
std::vector<double> gather_q(const shard_sim& d);

/// Seeds every shard's local q (owned and halo) from a global field.
void scatter_q(shard_sim& d, std::span<const double> q);

/// Convenience driver used by run_with_backend when the executor
/// advertises `sharded` capabilities: decomposes s.mesh per the current
/// config (shards / halo_depth), seeds from s.p_q, runs, and scatters
/// the owned q back into s.  Only p_q is written back; qold/adt/res
/// are per-shard scratch.
run_result run_sharded(sim& s, int niter);

}  // namespace airfoil
