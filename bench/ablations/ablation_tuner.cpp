// Ablation: the capture-time chunk against fixed static chunks, on the
// real airfoil loops.
//
// A prepared loop on a chunk-honouring backend is given one static
// chunk when it is captured, max(1, n / (4 * workers)) blocks for its
// widest colour of n blocks (op2/tuner.hpp), and keeps it.  This binary
// checks both halves of that claim:
//
//   deterministic — after one warm run_classic call every airfoil loop,
//                   the iteration-0 standalone save_soln included,
//                   reports a converged chunk with zero probing feeds,
//                   and the measured runs leave every chunk unchanged;
//   timing        — the chosen arm (OP2_TUNER=on) against static:4,
//                   static:16 and static:64 in kRounds interleaved
//                   rounds (arm order rotates each round): the chosen
//                   arm's median must be no slower than the fastest
//                   static arm's median times kMargin.
//
// kMargin = 1.15, from the measured spread.  On the 4-core development
// VM (hpx_foreach, 3 workers, 400x100 mesh, 20 runs of this binary) the
// ratio of the chosen median to the fastest static median read 0.97 to
// 1.10 (median 1.03, standard deviation 0.035), and an arm's
// interquartile range was 9% of its median (median over arms and runs):
// the three arms are within noise of each other, and taking the fastest
// of three static medians biases the ratio upwards.  1.15 sits 3.5
// standard deviations above the median ratio; a real grain regression
// still fails it — static:64 reads 1.29-1.43x the fastest static arm.
//
// Exit code: non-zero if either half fails.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "op2/tuner.hpp"

namespace {

constexpr unsigned kWorkers = 3;
constexpr int kBlock = 128;
constexpr int kIters = 40;
constexpr int kRounds = 11;
constexpr double kMargin = 1.15;

struct arm {
  const char* name;
  op2::tuner_mode mode;
  std::size_t static_chunk;
  std::vector<double> ms_per_iter;
};

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The chosen chunks of this configuration's airfoil loops.
std::map<std::string, op2::tuner::entry_info> chosen() {
  std::map<std::string, op2::tuner::entry_info> out;
  for (const auto& e : op2::tuner::snapshot()) {
    if (e.backend == "hpx_foreach" && e.threads == kWorkers) {
      out[e.loop] = e;
    }
  }
  return out;
}

/// Deterministic half: warm once, then every loop must already hold a
/// converged chunk that the measured runs do not move.
bool check_fixed_chunks(airfoil::sim& s) {
  op2::tuner::reset();
  op2::init(op2::config{op2::backend::hpx_foreach, kWorkers, kBlock, 0});
  airfoil::run_classic(s, 1);
  const auto warm = chosen();
  airfoil::reset_solution(s);
  airfoil::run_classic(s, kIters);
  const auto after = chosen();
  op2::finalize();

  std::printf("%18s %8s %10s %12s\n", "loop", "chunk", "state",
              "probe_feeds");
  bool ok = true;
  for (const auto& [loop, e] : warm) {
    const auto later = after.find(loop);
    const bool good =
        e.chunk > 0 && e.state == hpxlite::grain_controller::state::converged &&
        e.total_probe_feeds == 0 && later != after.end() &&
        later->second.chunk == e.chunk;
    std::printf("%18s %8zu %10s %12llu%s\n", loop.c_str(), e.chunk,
                hpxlite::to_string(e.state),
                static_cast<unsigned long long>(e.total_probe_feeds),
                good ? "" : "   <- NOT FIXED AFTER WARM-UP");
    ok = ok && good;
  }
  for (const char* loop :
       {"save_soln", "adt_calc", "res_calc", "bres_calc", "update"}) {
    if (warm.count(loop) == 0) {
      std::printf("%18s   <- NO CHUNK AFTER WARM-UP\n", loop);
      ok = false;
    }
  }
  return ok;
}

double run_round(arm& a, airfoil::sim& s) {
  op2::config cfg{op2::backend::hpx_foreach, kWorkers, kBlock,
                  a.static_chunk};
  cfg.tuner = a.mode;
  op2::init(cfg);
  airfoil::run_classic(s, 1);  // capture
  airfoil::reset_solution(s);
  const auto r = airfoil::run_classic(s, kIters);
  op2::finalize();
  return 1e3 * r.seconds / kIters;
}

}  // namespace

int main() {
  figures::print_header(
      "Ablation: capture-time chunk vs static chunks",
      "[real] Airfoil 400x100 on this machine, hpx_foreach, 3 workers, "
      "interleaved rounds");
  auto s = airfoil::make_sim(airfoil::generate_mesh({400, 100}));

  const bool fixed = check_fixed_chunks(s);

  std::vector<arm> arms{{"chosen", op2::tuner_mode::on, 0, {}},
                        {"static:4", op2::tuner_mode::off, 4, {}},
                        {"static:16", op2::tuner_mode::off, 16, {}},
                        {"static:64", op2::tuner_mode::off, 64, {}}};
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < arms.size(); ++k) {
      auto& a = arms[(k + static_cast<std::size_t>(round)) % arms.size()];
      a.ms_per_iter.push_back(run_round(a, s));
    }
  }

  std::printf("\n%12s %10s %10s %10s\n", "arm", "median", "q1", "q3");
  double best_static = 1e300;
  for (const auto& a : arms) {
    const double med = quantile(a.ms_per_iter, 0.5);
    std::printf("%12s %10.3f %10.3f %10.3f  ms/iter\n", a.name, med,
                quantile(a.ms_per_iter, 0.25), quantile(a.ms_per_iter, 0.75));
    if (a.mode == op2::tuner_mode::off) {
      best_static = std::min(best_static, med);
    }
  }
  const double ratio = quantile(arms[0].ms_per_iter, 0.5) / best_static;
  std::printf("chosen / fastest static median: %.3f (margin %.2f)\n", ratio,
              kMargin);

  if (!fixed) {
    std::printf("FAIL: every airfoil loop must hold a fixed chunk with 0 "
                "probing feeds after the warm run\n");
    return 1;
  }
  if (ratio > kMargin) {
    std::printf("FAIL: the chosen chunk is slower than the fastest static "
                "chunk beyond the %.2f margin\n",
                kMargin);
    return 1;
  }
  std::printf("OK: fixed chunks after warm-up, chosen within %.2fx of the "
              "fastest static chunk\n",
              kMargin);
  return 0;
}
