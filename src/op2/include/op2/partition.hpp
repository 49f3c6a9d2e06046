// Mesh partitioning — the substrate OP2's distributed (MPI) execution
// rests on ("Originally, OpenMP is used for loop parallelization in
// OP2 on a single node and on distributed nodes, where it is used in
// conjunction with MPI").  The paper's evaluation is single-node, so
// partitioning is not benchmarked against it, but a credible OP2
// reproduction ships it: geometric recursive coordinate bisection,
// partition quality metrics and partition-grouping renumbering.  The
// owner/halo decomposition built on a partitioning is
// op2::build_halo_partition (op2/shard.hpp).
//
// Determinism invariant: every function in this header is a PURE
// function of its arguments — no RNG, no iteration over unordered
// containers, and partition_rcb breaks coordinate ties by element id so
// its median splits are total orders (not left to nth_element's
// implementation-defined tie handling).  Two calls with the same input
// produce the same partitioning on any platform.  Shard layouts
// (op2/shard.hpp) and golden tests rely on this;
// tests/op2/test_shard_partition.cpp pins it.
#pragma once

#include <span>
#include <vector>

#include "op2/map.hpp"

namespace op2 {

/// A partitioning of a set's elements into `nparts` parts.
struct partitioning {
  int nparts = 0;
  std::vector<int> part_of;  // part index per element

  int size() const { return static_cast<int>(part_of.size()); }
};

/// Recursive coordinate bisection over 2D element coordinates
/// (xy[2*e], xy[2*e+1]): recursively split the widest axis at the
/// median, distributing parts proportionally.  nparts need not be a
/// power of two.  Balanced to within one element per split.
/// Deterministic: equal coordinates are ordered by element id, so the
/// result is the unique lexicographic-median assignment.
partitioning partition_rcb(std::span<const double> xy, int nparts);

/// Trivial block partitioning (contiguous ranges) — the baseline RCB
/// is compared against.
partitioning partition_block(int nelem, int nparts);

/// Number of map rows whose targets span more than one part — the
/// communication volume proxy (edge cut) for a map into a partitioned
/// set.
int edge_cut(const op_map& m, const partitioning& parts);

/// Load balance: max part size / ideal part size (1.0 = perfect).
double imbalance(const partitioning& parts);

/// Permutation (perm[old] = new) grouping elements by part, preserving
/// relative order inside each part — the renumbering that makes each
/// part's data contiguous.
std::vector<int> partition_order(const partitioning& parts);

}  // namespace op2
