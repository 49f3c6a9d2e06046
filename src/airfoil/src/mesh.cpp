#include "airfoil/mesh.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "airfoil/constants.hpp"

namespace airfoil {

namespace {

/// Smooth sin^2 bump between [begin, end], zero elsewhere.
double bump(double x, const mesh_params& p) {
  if (x <= p.bump_begin || x >= p.bump_end) {
    return 0.0;
  }
  const double t = (x - p.bump_begin) / (p.bump_end - p.bump_begin);
  const double s = std::sin(M_PI * t);
  return p.bump_height * s * s;
}

}  // namespace

op2::mesh generate_mesh(const mesh_params& p) {
  if (p.imax < 2 || p.jmax < 2) {
    throw std::invalid_argument("generate_mesh: need imax, jmax >= 2");
  }
  const int imax = p.imax;
  const int jmax = p.jmax;
  const int nnode = (imax + 1) * (jmax + 1);
  const int ncell = imax * jmax;
  const int nedge = (imax - 1) * jmax + imax * (jmax - 1);
  const int nbedge = 2 * imax + 2 * jmax;

  const auto node = [imax](int i, int j) { return j * (imax + 1) + i; };
  const auto cell = [imax](int i, int j) { return j * imax + i; };

  // Node coordinates: x uniform, y graded between the bumped lower wall
  // and the flat upper wall.
  std::vector<double> x(static_cast<std::size_t>(nnode) * 2);
  for (int j = 0; j <= jmax; ++j) {
    for (int i = 0; i <= imax; ++i) {
      const double xc = p.length * static_cast<double>(i) /
                        static_cast<double>(imax);
      const double yb = bump(xc, p);
      const double frac = static_cast<double>(j) / static_cast<double>(jmax);
      const auto n = static_cast<std::size_t>(node(i, j));
      x[2 * n + 0] = xc;
      x[2 * n + 1] = yb + (p.height - yb) * frac;
    }
  }

  // Cell corner nodes, counter-clockwise (adt_calc walks them in order).
  std::vector<int> pcell(static_cast<std::size_t>(ncell) * 4);
  for (int j = 0; j < jmax; ++j) {
    for (int i = 0; i < imax; ++i) {
      const auto c = static_cast<std::size_t>(cell(i, j));
      pcell[4 * c + 0] = node(i, j);
      pcell[4 * c + 1] = node(i + 1, j);
      pcell[4 * c + 2] = node(i + 1, j + 1);
      pcell[4 * c + 3] = node(i, j + 1);
    }
  }

  // Interior edges.  Normal (dy,-dx) with d = x1-x2 points cell1→cell2.
  std::vector<int> pedge;
  std::vector<int> pecell;
  pedge.reserve(static_cast<std::size_t>(nedge) * 2);
  pecell.reserve(static_cast<std::size_t>(nedge) * 2);
  // Vertical faces between c(i-1,j) and c(i,j).
  for (int j = 0; j < jmax; ++j) {
    for (int i = 1; i < imax; ++i) {
      pedge.push_back(node(i, j + 1));
      pedge.push_back(node(i, j));
      pecell.push_back(cell(i - 1, j));
      pecell.push_back(cell(i, j));
    }
  }
  // Horizontal faces between c(i,j-1) and c(i,j).
  for (int j = 1; j < jmax; ++j) {
    for (int i = 0; i < imax; ++i) {
      pedge.push_back(node(i, j));
      pedge.push_back(node(i + 1, j));
      pecell.push_back(cell(i, j - 1));
      pecell.push_back(cell(i, j));
    }
  }

  // Boundary edges, outward normals; lower wall is the "airfoil".
  std::vector<int> pbedge;
  std::vector<int> pbecell;
  std::vector<int> bound;
  pbedge.reserve(static_cast<std::size_t>(nbedge) * 2);
  pbecell.reserve(static_cast<std::size_t>(nbedge));
  bound.reserve(static_cast<std::size_t>(nbedge));
  for (int i = 0; i < imax; ++i) {  // bottom (wall)
    pbedge.push_back(node(i + 1, 0));
    pbedge.push_back(node(i, 0));
    pbecell.push_back(cell(i, 0));
    bound.push_back(bound_wall);
  }
  for (int i = 0; i < imax; ++i) {  // top (far field)
    pbedge.push_back(node(i, jmax));
    pbedge.push_back(node(i + 1, jmax));
    pbecell.push_back(cell(i, jmax - 1));
    bound.push_back(bound_farfield);
  }
  for (int j = 0; j < jmax; ++j) {  // left (far field)
    pbedge.push_back(node(0, j));
    pbedge.push_back(node(0, j + 1));
    pbecell.push_back(cell(0, j));
    bound.push_back(bound_farfield);
  }
  for (int j = 0; j < jmax; ++j) {  // right (far field)
    pbedge.push_back(node(imax, j + 1));
    pbedge.push_back(node(imax, j));
    pbecell.push_back(cell(imax - 1, j));
    bound.push_back(bound_farfield);
  }

  op2::mesh m;
  m.sets.emplace("nodes", op2::op_decl_set(nnode, "nodes"));
  m.sets.emplace("cells", op2::op_decl_set(ncell, "cells"));
  m.sets.emplace("edges", op2::op_decl_set(nedge, "edges"));
  m.sets.emplace("bedges", op2::op_decl_set(nbedge, "bedges"));

  const auto& nodes_s = m.sets.at("nodes");
  const auto& cells_s = m.sets.at("cells");
  const auto& edges_s = m.sets.at("edges");
  const auto& bedges_s = m.sets.at("bedges");

  m.maps.emplace("pcell",
                 op2::op_decl_map(cells_s, nodes_s, 4, pcell, "pcell"));
  m.maps.emplace("pedge",
                 op2::op_decl_map(edges_s, nodes_s, 2, pedge, "pedge"));
  m.maps.emplace("pecell",
                 op2::op_decl_map(edges_s, cells_s, 2, pecell, "pecell"));
  m.maps.emplace("pbedge",
                 op2::op_decl_map(bedges_s, nodes_s, 2, pbedge, "pbedge"));
  m.maps.emplace("pbecell",
                 op2::op_decl_map(bedges_s, cells_s, 1, pbecell, "pbecell"));

  m.dats.emplace("p_x", op2::op_decl_dat<double>(
                            nodes_s, 2, "double",
                            std::span<const double>(x), "p_x"));
  m.dats.emplace("p_bound", op2::op_decl_dat<int>(
                                bedges_s, 1, "int",
                                std::span<const int>(bound), "p_bound"));
  return m;
}

op2::mesh generate_mesh_with_cells(int target_cells) {
  if (target_cells < 16) {
    throw std::invalid_argument("generate_mesh_with_cells: too few cells");
  }
  mesh_params p;
  // Keep the default 4:1 aspect: imax = 4*jmax, so cells = 4*jmax^2.
  int jmax = static_cast<int>(
      std::lround(std::sqrt(static_cast<double>(target_cells) / 4.0)));
  if (jmax < 2) {
    jmax = 2;
  }
  p.jmax = jmax;
  p.imax = 4 * jmax;
  return generate_mesh(p);
}

std::vector<double> cell_centroids(const op2::mesh& m) {
  const auto& pcell = m.map("pcell");
  const auto x = m.dat("p_x").data<double>();
  const int ncell = m.set("cells").size();
  std::vector<double> centroids(static_cast<std::size_t>(ncell) * 2, 0.0);
  for (int c = 0; c < ncell; ++c) {
    for (int k = 0; k < 4; ++k) {
      const auto node = static_cast<std::size_t>(pcell.at(c, k));
      centroids[static_cast<std::size_t>(2 * c)] += 0.25 * x[2 * node];
      centroids[static_cast<std::size_t>(2 * c + 1)] +=
          0.25 * x[2 * node + 1];
    }
  }
  return centroids;
}

}  // namespace airfoil
