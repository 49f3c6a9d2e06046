#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "airfoil/mesh.hpp"
#include "op2/partition.hpp"
#include "op2/renumber.hpp"

namespace {

using namespace op2;

/// Coordinates of a regular w x h grid of points.
std::vector<double> grid_coords(int w, int h) {
  std::vector<double> xy;
  xy.reserve(static_cast<std::size_t>(w) * static_cast<std::size_t>(h) * 2);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      xy.push_back(static_cast<double>(i));
      xy.push_back(static_cast<double>(j));
    }
  }
  return xy;
}

TEST(PartitionRcb, CoversAllElementsWithValidParts) {
  const auto xy = grid_coords(16, 16);
  const auto p = partition_rcb(xy, 7);
  EXPECT_EQ(p.nparts, 7);
  EXPECT_EQ(p.size(), 256);
  std::set<int> used;
  for (const int part : p.part_of) {
    ASSERT_GE(part, 0);
    ASSERT_LT(part, 7);
    used.insert(part);
  }
  EXPECT_EQ(used.size(), 7u);  // every part non-empty
}

TEST(PartitionRcb, BalancedForPowersOfTwo) {
  const auto xy = grid_coords(32, 16);  // 512 elements
  for (const int nparts : {2, 4, 8, 16}) {
    const auto p = partition_rcb(xy, nparts);
    EXPECT_LE(imbalance(p), 1.01) << nparts << " parts";
  }
}

TEST(PartitionRcb, ReasonableBalanceForOddCounts) {
  const auto xy = grid_coords(30, 10);  // 300 elements
  for (const int nparts : {3, 5, 7, 9}) {
    const auto p = partition_rcb(xy, nparts);
    EXPECT_LE(imbalance(p), 1.10) << nparts << " parts";
  }
}

TEST(PartitionRcb, SinglePartTrivial) {
  const auto xy = grid_coords(4, 4);
  const auto p = partition_rcb(xy, 1);
  for (const int part : p.part_of) {
    ASSERT_EQ(part, 0);
  }
}

TEST(PartitionRcb, SpatialCoherence) {
  // RCB parts are spatially compact: for a 2-way split of a wide strip,
  // the x coordinate alone must determine the part.
  const auto xy = grid_coords(64, 4);
  const auto p = partition_rcb(xy, 2);
  // Elements with x < 31 all in one part, x > 32 in the other.
  const int left_part = p.part_of[0];
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_EQ(p.part_of[static_cast<std::size_t>(j * 64 + i)], left_part);
    }
    for (int i = 34; i < 64; ++i) {
      ASSERT_NE(p.part_of[static_cast<std::size_t>(j * 64 + i)], left_part);
    }
  }
}

TEST(PartitionRcb, Validation) {
  const auto xy = grid_coords(4, 4);
  EXPECT_THROW(partition_rcb(xy, 0), std::invalid_argument);
  EXPECT_THROW(partition_rcb(xy, 17), std::invalid_argument);
  const std::vector<double> odd{1.0, 2.0, 3.0};
  EXPECT_THROW(partition_rcb(odd, 2), std::invalid_argument);
}

TEST(PartitionBlock, ContiguousAndBalanced) {
  const auto p = partition_block(10, 3);
  EXPECT_EQ(p.part_of, (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}));
  EXPECT_LE(imbalance(p), 1.21);
}

TEST(EdgeCut, RcbBeatsRandomOnAirfoilMesh) {
  const auto mesh = airfoil::generate_mesh({40, 10});
  const auto& pecell = mesh.map("pecell");
  const auto& pcell = mesh.map("pcell");
  const auto x = mesh.dat("p_x").data<double>();
  const int ncell = mesh.set("cells").size();

  // Cell centroids drive the geometric partitioner.
  std::vector<double> centroids(static_cast<std::size_t>(ncell) * 2);
  for (int c = 0; c < ncell; ++c) {
    double cx = 0.0;
    double cy = 0.0;
    for (int k = 0; k < 4; ++k) {
      const auto n = static_cast<std::size_t>(pcell.at(c, k));
      cx += 0.25 * x[2 * n];
      cy += 0.25 * x[2 * n + 1];
    }
    centroids[static_cast<std::size_t>(2 * c)] = cx;
    centroids[static_cast<std::size_t>(2 * c + 1)] = cy;
  }
  const auto rcb = partition_rcb(centroids, 8);

  partitioning random_parts;
  random_parts.nparts = 8;
  random_parts.part_of.resize(static_cast<std::size_t>(ncell));
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, 7);
  for (auto& p : random_parts.part_of) {
    p = pick(rng);
  }

  const int rcb_cut = edge_cut(pecell, rcb);
  const int random_cut = edge_cut(pecell, random_parts);
  EXPECT_LT(rcb_cut, random_cut / 4);  // geometric locality pays off
  EXPECT_GT(rcb_cut, 0);               // but some edges must cross
}

TEST(EdgeCut, ZeroWhenOnePart) {
  const auto mesh = airfoil::generate_mesh({8, 4});
  const auto& pecell = mesh.map("pecell");
  partitioning one;
  one.nparts = 1;
  one.part_of.assign(static_cast<std::size_t>(mesh.set("cells").size()), 0);
  EXPECT_EQ(edge_cut(pecell, one), 0);
}

TEST(EdgeCut, SizeMismatchRejected) {
  const auto mesh = airfoil::generate_mesh({8, 4});
  partitioning wrong;
  wrong.nparts = 2;
  wrong.part_of.assign(3, 0);
  EXPECT_THROW(edge_cut(mesh.map("pecell"), wrong), std::invalid_argument);
}

TEST(PartitionOrder, GroupsByPartStably) {
  partitioning p;
  p.nparts = 3;
  p.part_of = {2, 0, 1, 0, 2, 1};
  const auto perm = partition_order(p);
  EXPECT_TRUE(is_permutation(perm));
  // Part 0 elements (1, 3) come first in original order, then part 1
  // (2, 5), then part 2 (0, 4).
  EXPECT_EQ(perm[1], 0);
  EXPECT_EQ(perm[3], 1);
  EXPECT_EQ(perm[2], 2);
  EXPECT_EQ(perm[5], 3);
  EXPECT_EQ(perm[0], 4);
  EXPECT_EQ(perm[4], 5);
}

}  // namespace
