#include "op2/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace op2 {

namespace {

/// Recursively assigns parts [part_begin, part_end) to the elements in
/// `elems` (indices into xy), splitting the widest axis at a weighted
/// median so parts receive proportional element counts.
void rcb_recurse(std::span<const double> xy, std::vector<int>& elems,
                 std::size_t lo, std::size_t hi, int part_begin,
                 int part_end, std::vector<int>& part_of) {
  const int nparts = part_end - part_begin;
  if (nparts == 1) {
    for (std::size_t i = lo; i != hi; ++i) {
      part_of[static_cast<std::size_t>(elems[i])] = part_begin;
    }
    return;
  }
  // Widest axis over this element subset.
  double min_x = 1e300;
  double max_x = -1e300;
  double min_y = 1e300;
  double max_y = -1e300;
  for (std::size_t i = lo; i != hi; ++i) {
    const auto e = static_cast<std::size_t>(elems[i]);
    min_x = std::min(min_x, xy[2 * e]);
    max_x = std::max(max_x, xy[2 * e]);
    min_y = std::min(min_y, xy[2 * e + 1]);
    max_y = std::max(max_y, xy[2 * e + 1]);
  }
  const int axis = (max_x - min_x) >= (max_y - min_y) ? 0 : 1;

  // Split parts (and elements proportionally) into two halves.
  const int left_parts = nparts / 2;
  const std::size_t count = hi - lo;
  const std::size_t left_count =
      count * static_cast<std::size_t>(left_parts) /
      static_cast<std::size_t>(nparts);
  const auto mid =
      elems.begin() + static_cast<std::ptrdiff_t>(lo + left_count);
  // (coordinate, element id) lexicographic: the id tie-break makes the
  // median split a total order, so the assignment is the mathematically
  // unique one — identical across libstdc++ versions and platforms, not
  // just across runs of one binary.  Shard layouts and golden tests
  // key off this invariant (see partition.hpp).
  std::nth_element(elems.begin() + static_cast<std::ptrdiff_t>(lo), mid,
                   elems.begin() + static_cast<std::ptrdiff_t>(hi),
                   [&](int a, int b) {
                     const double xa = xy[2 * static_cast<std::size_t>(a) +
                                          static_cast<std::size_t>(axis)];
                     const double xb = xy[2 * static_cast<std::size_t>(b) +
                                          static_cast<std::size_t>(axis)];
                     if (xa != xb) {
                       return xa < xb;
                     }
                     return a < b;
                   });
  rcb_recurse(xy, elems, lo, lo + left_count, part_begin,
              part_begin + left_parts, part_of);
  rcb_recurse(xy, elems, lo + left_count, hi, part_begin + left_parts,
              part_end, part_of);
}

}  // namespace

partitioning partition_rcb(std::span<const double> xy, int nparts) {
  if (nparts <= 0) {
    throw std::invalid_argument("partition_rcb: nparts must be >= 1");
  }
  if (xy.size() % 2 != 0) {
    throw std::invalid_argument("partition_rcb: xy must hold 2D pairs");
  }
  const auto nelem = static_cast<int>(xy.size() / 2);
  partitioning p;
  p.nparts = nparts;
  p.part_of.assign(static_cast<std::size_t>(nelem), 0);
  if (nelem == 0) {
    return p;
  }
  if (nparts > nelem) {
    throw std::invalid_argument(
        "partition_rcb: more parts than elements");
  }
  std::vector<int> elems(static_cast<std::size_t>(nelem));
  std::iota(elems.begin(), elems.end(), 0);
  rcb_recurse(xy, elems, 0, static_cast<std::size_t>(nelem), 0, nparts,
              p.part_of);
  return p;
}

partitioning partition_block(int nelem, int nparts) {
  if (nparts <= 0 || nelem < 0) {
    throw std::invalid_argument("partition_block: bad arguments");
  }
  partitioning p;
  p.nparts = nparts;
  p.part_of.resize(static_cast<std::size_t>(nelem));
  for (int e = 0; e < nelem; ++e) {
    p.part_of[static_cast<std::size_t>(e)] = static_cast<int>(
        (static_cast<long>(e) * nparts) / std::max(nelem, 1));
  }
  return p;
}

int edge_cut(const op_map& m, const partitioning& parts) {
  if (parts.size() != m.to().size()) {
    throw std::invalid_argument(
        "edge_cut: partitioning does not cover the map's target set");
  }
  int cut = 0;
  for (int e = 0; e < m.from().size(); ++e) {
    const int first = parts.part_of[static_cast<std::size_t>(m.at(e, 0))];
    for (int j = 1; j < m.dim(); ++j) {
      if (parts.part_of[static_cast<std::size_t>(m.at(e, j))] != first) {
        ++cut;
        break;
      }
    }
  }
  return cut;
}

double imbalance(const partitioning& parts) {
  if (parts.nparts == 0 || parts.part_of.empty()) {
    return 1.0;
  }
  std::vector<int> sizes(static_cast<std::size_t>(parts.nparts), 0);
  for (const int p : parts.part_of) {
    sizes.at(static_cast<std::size_t>(p)) += 1;
  }
  const int max_size = *std::max_element(sizes.begin(), sizes.end());
  const double ideal = static_cast<double>(parts.part_of.size()) /
                       static_cast<double>(parts.nparts);
  return static_cast<double>(max_size) / ideal;
}

std::vector<int> partition_order(const partitioning& parts) {
  const auto n = parts.part_of.size();
  // Counting sort by part: offsets via prefix sum, stable within part.
  std::vector<int> counts(static_cast<std::size_t>(parts.nparts) + 1, 0);
  for (const int p : parts.part_of) {
    counts.at(static_cast<std::size_t>(p) + 1) += 1;
  }
  for (std::size_t p = 1; p < counts.size(); ++p) {
    counts[p] += counts[p - 1];
  }
  std::vector<int> perm(n);
  for (std::size_t e = 0; e < n; ++e) {
    auto& cursor = counts[static_cast<std::size_t>(parts.part_of[e])];
    perm[e] = cursor;
    ++cursor;
  }
  return perm;
}

}  // namespace op2
