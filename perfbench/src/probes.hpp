// Layer probes the traced run adds: calls into one layer's public
// functions, timed directly from the benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "airfoil/solver.hpp"

namespace perfbench {

/// STREAM triad a[i] = b[i] + s * c[i] on `threads` threads over three
/// arrays of `array_bytes` each; best of several passes, in GB/s
/// (24 bytes moved per element, computed).
double triad_gbs(std::uint64_t array_bytes, unsigned threads);

/// Median latency of hpxlite::async([]{}).get() on a `threads`-worker
/// pool, microseconds.
double spawn_us(unsigned threads);

/// Median cost of one steady (prepared, replayed) one-block
/// op_par_loop launched to completion on `backend`, microseconds.
double replay_us(const std::string& backend, unsigned threads);

/// op2::build_plan timed directly for the three indirect Airfoil loops'
/// iteration sets and conflicts (adt_calc has none).
struct plan_probe {
  double build_ms = 0.0;  // median over repetitions
  int ncolors = 0;
};
std::map<std::string, plan_probe> plan_probes(const airfoil::sim& s);

/// Computed bytes one call of each Airfoil kernel moves: set size x
/// (argument dims x element size, counted twice for RW/INC) plus the
/// map indices it reads.
std::map<std::string, double> kernel_bytes(const airfoil::sim& s);

}  // namespace perfbench
