// Ablation: cross-loop fusion and time-step tiling on a direct
// element-local chain — the fusion planner's reason to exist.  Three
// kernels stream three 4-component dats (a read-only, b and c updated
// in place):
//
//   k1   b = 0.25 a + 0.75 b       k2   c = c + 0.5 b
//   k3   b = b + 0.125 c
//
// run as an S-step chain over N elements.  The working set is sized to
// overflow the last-level cache (tiling has nothing to win when the
// whole problem is LLC-resident) while one tile stays L2-resident.
// All three arms execute the IDENTICAL per-element operation sequence;
// only the traversal order differs:
//
//   unfused      S steps x 3 op_par_loop — every kernel is its own
//                pass over the arrays (3S sweeps of DRAM traffic)
//   fused        S steps x 1 op_par_loop_fused — one traversal runs
//                all three kernels per element (S sweeps)
//   fused+tiled  1 op_par_loop_fused_steps(S) with a fixed tile —
//                every step of the chain runs over one cache-resident
//                tile before advancing (~1 sweep)
//
// The arms run in kRounds interleaved rounds (arm order rotates each
// round), so a stretch of host noise lands on every arm alike, and each
// arm is judged by its median over the rounds.  scripts/check.sh runs
// this as a HARD GATE: fused must beat unfused and fused+tiled must beat
// fused in median wall time, with every checksum bit-identical, or the
// binary exits non-zero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "op2/op2.hpp"

namespace {

constexpr int kDim = 4;
constexpr int kElems = 1 << 23;  // 3 dats x 32 B x 8M = 768 MiB working set
constexpr int kSteps = 6;
constexpr int kTile = 1 << 14;  // 3 dats x 32 B x 16384 = 1.5 MiB: L2-resident
constexpr int kRounds = 7;

void k1(const double* a, double* b) {
  for (int d = 0; d < kDim; ++d) {
    b[d] = 0.25 * a[d] + 0.75 * b[d];
  }
}
void k2(const double* b, double* c) {
  for (int d = 0; d < kDim; ++d) {
    c[d] = c[d] + 0.5 * b[d];
  }
}
void k3(const double* c, double* b) {
  for (int d = 0; d < kDim; ++d) {
    b[d] = b[d] + 0.125 * c[d];
  }
}

struct chain_sim {
  op2::op_set elems;
  op2::op_dat d_a, d_b, d_c;
};

chain_sim make_chain() {
  chain_sim s;
  s.elems = op2::op_decl_set(kElems, "elems");
  {  // scoped so each init image is freed before the next is built
    std::vector<double> a(static_cast<std::size_t>(kElems) * kDim);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = 1.0 + 1e-6 * static_cast<double>(i % 1024);
    }
    s.d_a = op2::op_decl_dat<double>(s.elems, kDim, "double",
                                     std::span<const double>(a), "a");
  }
  {
    std::vector<double> b(static_cast<std::size_t>(kElems) * kDim, 0.5);
    s.d_b = op2::op_decl_dat<double>(s.elems, kDim, "double",
                                     std::span<const double>(b), "b");
  }
  {
    std::vector<double> c(static_cast<std::size_t>(kElems) * kDim, 0.0);
    s.d_c = op2::op_decl_dat<double>(s.elems, kDim, "double",
                                     std::span<const double>(c), "c");
  }
  return s;
}

/// Bitwise-stable summary of the chain's final state: ordered sum over
/// b then c.  Every arm applies the identical per-element sequence, so
/// equal bits here means the traversal reorder moved nothing.
double chain_checksum(chain_sim& s) {
  double sum = 0.0;
  for (const double v : s.d_b.data<double>()) {
    sum += v;
  }
  for (const double v : s.d_c.data<double>()) {
    sum += v;
  }
  return sum;
}

struct arm {
  const char* name;
  op2::config cfg;
  std::function<void(chain_sim&)> body;
  std::vector<double> seconds;  // one per round
  std::vector<double> checksums;
};

void run_round(arm& a) {
  op2::init(a.cfg);
  auto s = make_chain();
  const auto t0 = std::chrono::steady_clock::now();
  a.body(s);
  const auto t1 = std::chrono::steady_clock::now();
  a.seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
  a.checksums.push_back(chain_checksum(s));
  op2::finalize();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

void unfused_body(chain_sim& s) {
  static op2::loop_handle h1, h2, h3;
  for (int step = 0; step < kSteps; ++step) {
    op2::op_par_loop(h1, k1, "k1", s.elems,
        op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, kDim, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_RW));
    op2::op_par_loop(h2, k2, "k2", s.elems,
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, kDim, op2::OP_RW));
    op2::op_par_loop(h3, k3, "k3", s.elems,
        op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, kDim, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_RW));
  }
}

void fused_members(chain_sim& s, op2::fused_handle& h, int steps) {
  op2::op_par_loop_fused_steps(h, s.elems, steps,
      op2::fuse_loop(k1, "k1",
          op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, kDim, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_RW)),
      op2::fuse_loop(k2, "k2",
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, kDim, op2::OP_RW)),
      op2::fuse_loop(k3, "k3",
          op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, kDim, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, kDim, op2::OP_RW)));
}

void fused_body(chain_sim& s) {
  static op2::fused_handle h;
  for (int step = 0; step < kSteps; ++step) {
    fused_members(s, h, 1);
  }
}

void tiled_body(chain_sim& s) {
  static op2::fused_handle h;
  fused_members(s, h, kSteps);
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: cross-loop fusion and time-step tiling ===\n");
  std::printf("seq, %d elements, 3-kernel chain, %d steps, tile %d "
              "(%d tiles), %d interleaved rounds\n",
              kElems, kSteps, kTile, (kElems + kTile - 1) / kTile, kRounds);

  const auto base = op2::make_config("seq", 1, 128);
  auto tiled_cfg = base;
  tiled_cfg.tile = std::to_string(kTile);
  std::vector<arm> arms{{"unfused", base, unfused_body, {}, {}},
                        {"fused", base, fused_body, {}, {}},
                        {"fused+tiled", tiled_cfg, tiled_body, {}, {}}};
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < arms.size(); ++k) {
      run_round(arms[(k + static_cast<std::size_t>(round)) % arms.size()]);
    }
  }
  const double unfused = median(arms[0].seconds);
  const double fused = median(arms[1].seconds);
  const double tiled = median(arms[2].seconds);
  std::printf("%12s %14s %9s\n", "arm", "median_wall_ms", "sweeps");
  const char* sweeps[] = {"18", "6", "~1"};
  for (std::size_t k = 0; k < arms.size(); ++k) {
    std::printf("%12s %14.2f %9s\n", arms[k].name,
                1e3 * median(arms[k].seconds), sweeps[k]);
  }
  std::printf("fusion speedup: %.2fx   tiling speedup: %.2fx\n",
              unfused / fused, fused / tiled);

  // Reordering the traversal must never move the arithmetic.
  const double ref = arms[0].checksums.front();
  for (const auto& a : arms) {
    for (const double c : a.checksums) {
      if (c != ref || !std::isfinite(c)) {
        std::printf("FAIL: arms disagree on the result (unfused %.17g, "
                    "%s %.17g)\n",
                    ref, a.name, c);
        return 1;
      }
    }
  }
  // The gates: one traversal must beat three, and a cache-resident
  // tile walked S times must beat S full sweeps.
  if (fused >= unfused) {
    std::printf("FAIL: fused (%.2f ms) did not beat unfused (%.2f ms)\n",
                1e3 * fused, 1e3 * unfused);
    return 1;
  }
  if (tiled >= fused) {
    std::printf("FAIL: fused+tiled (%.2f ms) did not beat fused "
                "(%.2f ms)\n",
                1e3 * tiled, 1e3 * fused);
    return 1;
  }
  std::printf("PASS: fused < unfused and fused+tiled < fused\n");
  return 0;
}
