#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "hpxlite/async.hpp"
#include "op2/op2.hpp"

namespace perfbench {

double triad_gbs(std::uint64_t array_bytes, unsigned threads) {
  scoped_span s("mem-triad");
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  threads = std::max(1u, threads);
  const auto each = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads;
        const std::size_t hi = n * (t + 1) / threads;
        body(lo, hi);
      });
    }
    for (auto& th : pool) {
      th.join();
    }
  };
  // First touch on the same threads that run the triad.
  each([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const double t0 = now_s();
    each([&](std::size_t lo, std::size_t hi) {
      const double scalar = 3.0;
      for (std::size_t i = lo; i < hi; ++i) {
        a[i] = b[i] + scalar * c[i];
      }
    });
    const double secs = now_s() - t0;
    best = std::max(best, 24.0 * static_cast<double>(n) / secs / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

double spawn_us(unsigned threads) {
  scoped_span s("hpxlite::async");
  op2::init(op2::make_config("hpx_foreach", threads));
  std::vector<double> us;
  for (int batch = 0; batch < 21; ++batch) {
    constexpr int kPer = 200;
    const double t0 = now_s();
    for (int i = 0; i < kPer; ++i) {
      hpxlite::async([] {}).get();
    }
    us.push_back(1e6 * (now_s() - t0) / kPer);
  }
  op2::finalize();
  return median(us);
}

namespace {

void bump_kernel(double* x) { x[0] += 1.0; }

}  // namespace

double replay_us(const std::string& backend, unsigned threads) {
  scoped_span s("replay/" + backend);
  op2::init(op2::make_config(backend, threads));
  // One block: fewer elements than the plan's block size.
  auto set = op2::op_decl_set(64, "replay_probe");
  auto x = op2::op_decl_dat<double>(set, 1, "double", "replay_x");
  op2::loop_handle h;
  const auto launch = [&] {
    op2::op_par_loop(h, bump_kernel, "replay_probe", set,
                     op2::op_arg_dat<double>(x, -1, op2::OP_ID, 1, op2::OP_RW));
  };
  for (int i = 0; i < 50; ++i) {
    launch();
  }
  std::vector<double> us;
  for (int batch = 0; batch < 21; ++batch) {
    constexpr int kPer = 100;
    const double t0 = now_s();
    for (int i = 0; i < kPer; ++i) {
      launch();
    }
    us.push_back(1e6 * (now_s() - t0) / kPer);
  }
  h.invalidate();
  op2::finalize();
  return median(us);
}

std::map<std::string, plan_probe> plan_probes(const airfoil::sim& s) {
  struct loop {
    const char* name;
    op2::op_set set;
    std::vector<op2::plan_indirection> conflicts;
  };
  const void* res = s.p_res.id();
  const std::vector<loop> loops = {
      {"adt_calc", s.cells, {}},
      {"res_calc", s.edges, {{s.pecell, 0, res}, {s.pecell, 1, res}}},
      {"bres_calc", s.bedges, {{s.pbecell, 0, res}}},
  };
  std::map<std::string, plan_probe> out;
  for (const auto& l : loops) {
    std::vector<double> ms;
    plan_probe p;
    for (int rep = 0; rep < 5; ++rep) {
      scoped_span sp(std::string("op2::build_plan/") + l.name);
      const auto plan = op2::build_plan(l.set, 128, l.conflicts);
      ms.push_back(1e3 * sp.stop());
      p.ncolors = plan.ncolors;
    }
    p.build_ms = median(ms);
    out[l.name] = p;
  }
  return out;
}

std::map<std::string, double> kernel_bytes(const airfoil::sim& s) {
  const double d = sizeof(double);
  const double i = sizeof(int);
  const auto n = [](const op2::op_set& set) {
    return static_cast<double>(set.size());
  };
  return {
      // q read, qold written
      {"save_soln", n(s.cells) * (4 * d + 4 * d)},
      // 4 nodes x 2 coords read through pcell, q read, adt written
      {"adt_calc", n(s.cells) * (4 * 2 * d + 4 * d + 1 * d + 4 * i)},
      // x (2 nodes), q and adt (2 cells) read; res (2 cells) inc
      {"res_calc", n(s.edges) * (2 * 2 * d + 2 * 4 * d + 2 * 1 * d +
                                 2 * 2 * 4 * d + (2 + 2) * i)},
      // x (2 nodes), q and adt (1 cell), bound read; res (1 cell) inc
      {"bres_calc", n(s.bedges) * (2 * 2 * d + 4 * d + 1 * d + 1 * i +
                                   2 * 4 * d + (2 + 1) * i)},
      // qold, adt read; q written; res read and zeroed
      {"update", n(s.cells) * (4 * d + 1 * d + 4 * d + 2 * 4 * d)},
  };
}

}  // namespace perfbench
