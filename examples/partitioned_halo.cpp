// Distributed-execution substrate demo: partition the Airfoil mesh's
// cells across P shards with recursive coordinate bisection, give each
// shard an owner/halo decomposition (op2::build_halo_partition), and run
// an edge sweep shard by shard on private [owned | halo] copies with an
// explicit halo exchange before every step — the structure OP2's MPI
// mode layers under the OpenMP/HPX node-level parallelism the paper
// studies.  The partitioned result is verified against the
// single-domain sweep.
//
//   ./examples/partitioned_halo [nparts]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "airfoil/mesh.hpp"
#include "op2/op2.hpp"

namespace {

/// One edge sweep: every edge in `edges` adds a quarter of the
/// across-edge cell difference into both of its cells (a diffusion
/// step).  `slot` maps a global cell id to its index in value/delta.
template <class Slot>
void sweep(const op2::op_map& pecell, const std::vector<int>& edges,
           Slot slot, const std::vector<double>& value,
           std::vector<double>& delta) {
  for (const int e : edges) {
    const auto a = static_cast<std::size_t>(slot(pecell.at(e, 0)));
    const auto b = static_cast<std::size_t>(slot(pecell.at(e, 1)));
    const double f = 0.25 * (value[a] - value[b]);
    delta[a] -= f;
    delta[b] += f;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nparts = argc > 1 ? std::atoi(argv[1]) : 4;
  auto mesh = airfoil::generate_mesh({80, 20});
  const auto& pecell = mesh.map("pecell");
  const int ncell = mesh.set("cells").size();
  const int nedge = mesh.set("edges").size();

  // Partition cells geometrically by centroid; each shard owns its
  // cells and replicates the depth-1 halo its edges reach.
  const auto centroids = airfoil::cell_centroids(mesh);
  const auto cell_parts = op2::partition_rcb(centroids, nparts);
  const auto hp = op2::build_halo_partition(cell_parts, pecell, 1);

  // Every edge touching an owned cell runs on that shard (a cut edge
  // runs on both sides), in ascending global order, so each owned cell
  // accumulates exactly the single-domain sequence of contributions.
  std::vector<std::vector<int>> shard_edges(static_cast<std::size_t>(nparts));
  for (int e = 0; e < nedge; ++e) {
    const int p0 = cell_parts.part_of[static_cast<std::size_t>(pecell.at(e, 0))];
    const int p1 = cell_parts.part_of[static_cast<std::size_t>(pecell.at(e, 1))];
    shard_edges[static_cast<std::size_t>(p0)].push_back(e);
    if (p1 != p0) {
      shard_edges[static_cast<std::size_t>(p1)].push_back(e);
    }
  }

  std::printf("partitioned %d cells / %d edges into %d shards "
              "(imbalance %.3f, edge cut %d)\n",
              ncell, nedge, nparts, op2::imbalance(cell_parts),
              op2::edge_cut(pecell, cell_parts));
  for (int p = 0; p < nparts; ++p) {
    const auto& part = hp.shards[static_cast<std::size_t>(p)];
    std::printf("  shard %d: %4d owned, %4d halo cells, %d import links, "
                "%5zu edges\n",
                p, part.owned_count(), part.halo_count(),
                static_cast<int>(part.imports.size()),
                shard_edges[static_cast<std::size_t>(p)].size());
  }

  // Initial field: a smooth bump.
  std::vector<double> value(static_cast<std::size_t>(ncell));
  for (int c = 0; c < ncell; ++c) {
    value[static_cast<std::size_t>(c)] =
        std::sin(centroids[static_cast<std::size_t>(2 * c)]) +
        0.5 * centroids[static_cast<std::size_t>(2 * c + 1)];
  }

  // Reference: single-domain sweeps.
  std::vector<double> ref = value;
  {
    std::vector<int> all_edges(static_cast<std::size_t>(nedge));
    std::iota(all_edges.begin(), all_edges.end(), 0);
    std::vector<double> delta(static_cast<std::size_t>(ncell));
    for (int step = 0; step < 10; ++step) {
      std::fill(delta.begin(), delta.end(), 0.0);
      sweep(pecell, all_edges, [](int c) { return c; }, ref, delta);
      for (int c = 0; c < ncell; ++c) {
        ref[static_cast<std::size_t>(c)] += delta[static_cast<std::size_t>(c)];
      }
    }
  }

  // Partitioned: each shard holds a private [owned | halo] copy.  Before
  // each step the exchange copies every import link's cells from their
  // owner's copy; then each shard sweeps its edges and updates only the
  // cells it owns.
  std::vector<std::vector<double>> local(static_cast<std::size_t>(nparts));
  for (int p = 0; p < nparts; ++p) {
    const auto& part = hp.shards[static_cast<std::size_t>(p)];
    auto& v = local[static_cast<std::size_t>(p)];
    v.resize(static_cast<std::size_t>(part.local_count()));
    for (int l = 0; l < part.local_count(); ++l) {
      v[static_cast<std::size_t>(l)] =
          value[static_cast<std::size_t>(part.global_of(l))];
    }
  }
  for (int step = 0; step < 10; ++step) {
    for (int p = 0; p < nparts; ++p) {
      const auto& part = hp.shards[static_cast<std::size_t>(p)];
      auto& mine = local[static_cast<std::size_t>(p)];
      for (const auto& link : part.imports) {
        const auto peer = static_cast<std::size_t>(link.peer);
        for (const int g : link.elements) {
          const auto gi = static_cast<std::size_t>(g);
          mine[static_cast<std::size_t>(part.local_of[gi])] = local[peer][
              static_cast<std::size_t>(hp.shards[peer].local_of[gi])];
        }
      }
    }
    for (int p = 0; p < nparts; ++p) {
      const auto& part = hp.shards[static_cast<std::size_t>(p)];
      auto& v = local[static_cast<std::size_t>(p)];
      std::vector<double> delta(v.size(), 0.0);
      sweep(pecell, shard_edges[static_cast<std::size_t>(p)],
            [&](int c) { return part.local_of[static_cast<std::size_t>(c)]; },
            v, delta);
      for (int l = 0; l < part.owned_count(); ++l) {
        v[static_cast<std::size_t>(l)] += delta[static_cast<std::size_t>(l)];
      }
    }
  }

  double max_err = 0.0;
  for (int p = 0; p < nparts; ++p) {
    const auto& part = hp.shards[static_cast<std::size_t>(p)];
    for (int l = 0; l < part.owned_count(); ++l) {
      const auto g = static_cast<std::size_t>(part.global_of(l));
      max_err = std::max(
          max_err, std::fabs(local[static_cast<std::size_t>(p)]
                                  [static_cast<std::size_t>(l)] -
                             ref[g]));
    }
  }
  std::printf("partitioned vs single-domain after 10 sweeps: max |diff| = "
              "%.3e %s\n",
              max_err, max_err < 1e-12 ? "(exact)" : "(MISMATCH)");
  return max_err < 1e-12 ? 0 : 1;
}
