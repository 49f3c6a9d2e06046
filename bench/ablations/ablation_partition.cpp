// Ablation: partition quality — RCB vs naive block partitioning on the
// Airfoil mesh across rank counts: edge cut (communication proxy),
// imbalance, and the largest halo.  The substrate quality of OP2's
// distributed mode (not benchmarked in the paper, which is single node;
// included for completeness of the reproduced system).
#include <algorithm>
#include <cstdio>

#include "airfoil/mesh.hpp"
#include "op2/op2.hpp"

namespace {

/// Largest halo of a depth-1 owner/halo decomposition of the cells.
int max_halo(const op2::partitioning& cells, const op2::op_map& pecell) {
  int m = 0;
  for (const auto& part :
       op2::build_halo_partition(cells, pecell, 1).shards) {
    m = std::max(m, part.halo_count());
  }
  return m;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: partitioning quality (RCB vs block) ===\n");
  auto mesh = airfoil::generate_mesh({400, 100});
  const auto& pecell = mesh.map("pecell");
  const int ncell = mesh.set("cells").size();
  const int nedge = mesh.set("edges").size();
  const auto centroids = airfoil::cell_centroids(mesh);

  std::printf("%d cells, %d edges\n", ncell, nedge);
  std::printf("%8s | %12s %10s %10s | %12s %10s %10s\n", "parts",
              "rcb_cut", "rcb_imb", "rcb_halo", "block_cut", "block_imb",
              "block_halo");
  for (const int nparts : {2, 4, 8, 16, 32}) {
    const auto rcb = op2::partition_rcb(centroids, nparts);
    const auto blk = op2::partition_block(ncell, nparts);
    std::printf("%8d | %12d %10.3f %10d | %12d %10.3f %10d\n", nparts,
                op2::edge_cut(pecell, rcb), op2::imbalance(rcb),
                max_halo(rcb, pecell), op2::edge_cut(pecell, blk),
                op2::imbalance(blk), max_halo(blk, pecell));
  }
  std::printf("\nexpected: RCB cut grows ~sqrt(parts); block partitioning "
              "cuts whole mesh rows, larger halos at high part counts\n");
  return 0;
}
