// Structured-quad channel mesh generator for the Airfoil benchmark.
//
// The original benchmark reads `new_grid.dat`, a quadrilateral mesh
// around a NACA airfoil produced by a MATLAB generator we do not have.
// This generator builds the closest synthetic equivalent: an imax×jmax
// quad channel whose lower wall carries a smooth bump (the "airfoil"),
// expressed through exactly the same unstructured representation —
// four sets (nodes/cells/edges/bedges), the four maps the five loops
// indirect through (pcell/pedge/pecell/pbedge+pbecell) and the bound
// markers.  The runtime comparison only depends on that representation,
// not on the geometry being a licensed NACA profile.
//
// Orientation conventions (required by res_calc's sign structure): for
// an edge with nodes (x1, x2) and cells (cell1, cell2), the face normal
// (dy, -dx) with d = x1 - x2 points from cell1 toward cell2; boundary
// edges orient the normal outward.
#pragma once

#include <vector>

#include "op2/mesh_io.hpp"

namespace airfoil {

struct mesh_params {
  int imax = 200;   // cells in x
  int jmax = 50;    // cells in y
  double length = 4.0;
  double height = 2.0;
  double bump_height = 0.08;   // lower-wall "airfoil" bump
  double bump_begin = 1.5;     // bump extent in x
  double bump_end = 2.5;
};

/// Generates the mesh: sets "nodes"/"cells"/"edges"/"bedges", maps
/// "pcell" (cells→nodes, 4), "pedge" (edges→nodes, 2), "pecell"
/// (edges→cells, 2), "pbedge" (bedges→nodes, 2), "pbecell"
/// (bedges→cells, 1); dats "p_x" (nodes, 2, double) and "p_bound"
/// (bedges, 1, int).
op2::mesh generate_mesh(const mesh_params& params);

/// Convenience: a mesh with ~`target_cells` cells at the default 4:1
/// aspect ratio — used by the weak-scaling harness, which grows the
/// problem with the thread count.
op2::mesh generate_mesh_with_cells(int target_cells);

/// Cell centroids (x, y interleaved, 2 per cell): the mean of each
/// cell's four `pcell` corners in `p_x`, summed in corner order, so the
/// coordinates (and the RCB decomposition built on them) are
/// bit-reproducible.
std::vector<double> cell_centroids(const op2::mesh& m);

}  // namespace airfoil
