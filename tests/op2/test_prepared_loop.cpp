// Prepared-loop pipeline: capture-once/replay-many launch descriptors.
//
// Covers the lifecycle contract:
//   - the first invocation at a call site captures, repeats replay
//     (observed through the profiling captures/replays counters);
//   - a resized dat, a resized set, a changed block_size and a changed
//     static_chunk each force a re-capture, at a single-loop site and at
//     a fused site alike;
//   - OP2_PREPARED / config::prepared_loops force the one-shot path
//     (the control arm), and loop_handle::invalidate drops a descriptor;
//   - globals are rebound per replay (results land in the caller's
//     current pointer, not the captured one), single and fused;
//   - backend x loop equivalence matrix: replayed results match the
//     one-shot path under every registered backend, for the classic,
//     async and dataflow APIs;
//   - two concurrently replaying reduction loops don't corrupt each
//     other's accumulators (the per-loop/per-worker slot design that
//     replaced the global reduction lock);
//   - two loops finalising concurrently into the SAME global — two
//     distinct loops sharing one accumulator, and an async replay
//     overlapping its own call site (replay + one-shot fallback) —
//     lose no updates (the serialised final combine).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "op2/op2.hpp"

namespace {

using namespace op2;

// OP2-style kernels (pointer per argument).
void scale_add(const double* in, double* out, double* acc) {
  out[0] = 2.0 * in[0] + 1.0;
  acc[0] += out[0] * out[0];
}

void edge_gather(const double* a, const double* b, double* out) {
  out[0] += 0.25 * (a[0] + b[0]);
}

void sum_to(const double* x, double* acc) { acc[0] += x[0]; }

void sum_sq(const double* x, double* acc) { acc[0] += x[0] * x[0]; }

void count_one(double* acc) { acc[0] += 1.0; }

// Wide reduction with a rendezvous: each kernel invocation waits (with
// a deadline, so an under-provisioned pool degrades instead of
// hanging) until all loops of the round have started, so the loops
// complete — and finalise into the shared global — at the same moment.
// The wide combine gives concurrent finalises a real window to collide
// in; without the serialised final combine this loses updates within a
// few rounds.
constexpr int kWideDim = 256;
constexpr int kShareLoops = 4;  // == worker count: all can spin at once
std::atomic<int> rendezvous_started{0};

void sum_wide_rendezvous(const double* x, double* acc) {
  rendezvous_started.fetch_add(1, std::memory_order_acq_rel);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  while (rendezvous_started.load(std::memory_order_acquire) < kShareLoops &&
         std::chrono::steady_clock::now() < deadline) {
  }
  for (int j = 0; j < kWideDim; ++j) {
    acc[j] += x[0];
  }
}

struct ring_mesh {
  op_set cells;
  op_set edges;
  op_map pedge;
  op_dat p_x;
  op_dat p_y;
  op_dat p_e;
};

ring_mesh make_ring(int n) {
  ring_mesh m;
  m.cells = op_decl_set(n, "cells");
  m.edges = op_decl_set(n, "edges");
  std::vector<int> e2c(static_cast<std::size_t>(n) * 2);
  for (int i = 0; i < n; ++i) {
    e2c[static_cast<std::size_t>(2 * i)] = i;
    e2c[static_cast<std::size_t>(2 * i) + 1] = (i + 1) % n;
  }
  m.pedge = op_decl_map(m.edges, m.cells, 2, std::span<const int>(e2c),
                        "pedge");
  std::vector<double> x(static_cast<std::size_t>(n));
  std::iota(x.begin(), x.end(), 1.0);
  m.p_x = op_decl_dat<double>(m.cells, 1, "double",
                              std::span<const double>(x), "p_x");
  m.p_y = op_decl_dat<double>(m.cells, 1, "double", "p_y");
  m.p_e = op_decl_dat<double>(m.edges, 1, "double", "p_e");
  return m;
}

loop_profile profile_of(const std::string& name) {
  auto snap = profiling::snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? loop_profile{} : it->second;
}

// ---------------------------------------------------------------------
// Counter-level lifecycle: capture once, replay many.
// ---------------------------------------------------------------------

// The recapture triggers are properties of the one capture/replay core,
// so each is checked at both kinds of call site: a single op_par_loop,
// and a fused site (a one-member op_par_loop_fused, whose profiling row
// carries the member's name).
enum class site_kind { single, fused };

const char* to_string(site_kind kind) {
  return kind == site_kind::single ? "single-loop site" : "fused site";
}

template <typename Kernel, typename... T>
void run_at(site_kind kind, loop_handle& h, Kernel kernel, const char* name,
            const op_set& set, op_arg<T>... args) {
  if (kind == site_kind::single) {
    op_par_loop(h, kernel, name, set, args...);
  } else {
    op_par_loop_fused(h, set, fuse_loop(kernel, name, args...));
  }
}

class PreparedLoopTest : public ::testing::Test {
 protected:
  void SetUp() override { start(); }
  void TearDown() override {
    profiling::enable(false);
    profiling::reset();
    op2::finalize();
  }

  static void start() {
    op2::init(make_config("seq", 1, 16));
    profiling::reset();
    profiling::enable(true);
  }

  /// Runs `body` once per site kind, each from a fresh runtime and
  /// profile.
  template <typename Body>
  static void for_each_site(Body body) {
    for (const site_kind kind : {site_kind::single, site_kind::fused}) {
      SCOPED_TRACE(to_string(kind));
      start();
      body(kind);
    }
  }
};

TEST_F(PreparedLoopTest, CaptureOnceThenReplay) {
  auto m = make_ring(64);
  loop_handle h;
  double acc = 0.0;
  for (int i = 0; i < 5; ++i) {
    op_par_loop(h, scale_add, "pl_basic", m.cells,
                op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
                op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
                op_arg_gbl<double>(&acc, 1, OP_INC));
  }
  const auto p = profile_of("pl_basic");
  EXPECT_EQ(p.captures, 1u);
  EXPECT_EQ(p.replays, 4u);
  EXPECT_EQ(p.invocations, 5u);
}

TEST_F(PreparedLoopTest, ResizedDatForcesRecapture) {
  for_each_site([](site_kind kind) {
    auto m = make_ring(64);
    loop_handle h;
    double acc = 0.0;
    auto run = [&] {
      run_at(kind, h, scale_add, "pl_dat_resize", m.cells,
             op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
             op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
             op_arg_gbl<double>(&acc, 1, OP_INC));
    };
    run();
    run();
    EXPECT_EQ(profile_of("pl_dat_resize").captures, 1u);
    // Refit (even to the same size) bumps the dat version: the storage
    // may have moved, so the cached raw views are stale.
    m.p_y.resize();
    run();
    EXPECT_EQ(profile_of("pl_dat_resize").captures, 2u);
    EXPECT_EQ(profile_of("pl_dat_resize").replays, 1u);
  });
}

TEST_F(PreparedLoopTest, ResizedSetForcesRecaptureAndCoversNewElements) {
  for_each_site([](site_kind kind) {
    auto cells = op_decl_set(32, "cells");
    std::vector<double> x(32, 1.0);
    auto p_x = op_decl_dat<double>(cells, 1, "double",
                                   std::span<const double>(x), "p_x");
    loop_handle h;
    double total = 0.0;
    auto run = [&] {
      run_at(kind, h, sum_to, "pl_set_resize", cells,
             op_arg_dat<double>(p_x, -1, OP_ID, 1, OP_READ),
             op_arg_gbl<double>(&total, 1, OP_INC));
    };
    run();
    EXPECT_EQ(total, 32.0);

    cells.resize(48);
    p_x.resize();  // grown elements zero-initialised
    for (auto& v : p_x.data<double>()) {
      v = 1.0;
    }
    total = 0.0;
    run();
    EXPECT_EQ(total, 48.0);  // the stale 32-element plan would miss 16
    EXPECT_EQ(profile_of("pl_set_resize").captures, 2u);
  });
}

TEST_F(PreparedLoopTest, ChangedBlockSizeForcesRecapture) {
  for_each_site([](site_kind kind) {
    auto m = make_ring(64);
    loop_handle h;
    double acc = 0.0;
    auto run = [&] {
      run_at(kind, h, scale_add, "pl_blk", m.cells,
             op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
             op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
             op_arg_gbl<double>(&acc, 1, OP_INC));
    };
    run();
    run();
    EXPECT_EQ(profile_of("pl_blk").captures, 1u);
    op2::init(make_config("seq", 1, 32));  // block_size 16 -> 32
    run();
    EXPECT_EQ(profile_of("pl_blk").captures, 2u);
  });
}

TEST_F(PreparedLoopTest, ChangedStaticChunkForcesRecapture) {
  for_each_site([](site_kind kind) {
    auto m = make_ring(64);
    loop_handle h;
    double acc = 0.0;
    auto run = [&] {
      run_at(kind, h, scale_add, "pl_chunk", m.cells,
             op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
             op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
             op_arg_gbl<double>(&acc, 1, OP_INC));
    };
    run();
    EXPECT_EQ(profile_of("pl_chunk").captures, 1u);
    op2::init(make_config("seq", 1, 16, /*static_chunk=*/4));
    run();
    EXPECT_EQ(profile_of("pl_chunk").captures, 2u);
  });
}

TEST_F(PreparedLoopTest, HandleInvalidateForcesRecapture) {
  auto m = make_ring(64);
  loop_handle h;
  double acc = 0.0;
  auto run = [&] {
    op_par_loop(h, scale_add, "pl_inval", m.cells,
                op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
                op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
                op_arg_gbl<double>(&acc, 1, OP_INC));
  };
  run();
  run();
  h.invalidate();
  run();
  EXPECT_EQ(profile_of("pl_inval").captures, 2u);
  EXPECT_EQ(profile_of("pl_inval").replays, 1u);
}

TEST_F(PreparedLoopTest, PreparedOffConfigForcesOneShotPath) {
  auto cfg = make_config("seq", 1, 16);
  cfg.prepared_loops = false;
  op2::init(cfg);
  profiling::reset();
  profiling::enable(true);

  auto m = make_ring(64);
  loop_handle h;
  double acc = 0.0;
  for (int i = 0; i < 3; ++i) {
    op_par_loop(h, scale_add, "pl_off", m.cells,
                op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
                op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
                op_arg_gbl<double>(&acc, 1, OP_INC));
  }
  const auto p = profile_of("pl_off");
  EXPECT_EQ(p.captures, 0u);
  EXPECT_EQ(p.replays, 0u);
  EXPECT_EQ(p.invocations, 3u);
}

TEST_F(PreparedLoopTest, GlobalsAreReboundPerReplay) {
  for_each_site([](site_kind kind) {
    auto m = make_ring(16);
    loop_handle h;
    double first = 0.0;
    double second = 0.0;
    auto run = [&](double* acc) {
      run_at(kind, h, sum_to, "pl_rebind", m.cells,
             op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
             op_arg_gbl<double>(acc, 1, OP_INC));
    };
    const double expected = 16.0 * 17.0 / 2.0;  // iota 1..16
    run(&first);
    run(&second);  // replay must write through the NEW pointer
    EXPECT_EQ(first, expected);
    EXPECT_EQ(second, expected);
    EXPECT_EQ(profile_of("pl_rebind").replays, 1u);
  });
}

TEST(PreparedLoopEnv, Op2PreparedKnobParses) {
  ::setenv("OP2_PREPARED", "off", 1);
  op2::init(make_config("seq", 1));
  EXPECT_FALSE(current_config().prepared_loops);
  ::setenv("OP2_PREPARED", "on", 1);
  op2::init(make_config("seq", 1));
  EXPECT_TRUE(current_config().prepared_loops);
  ::setenv("OP2_PREPARED", "sometimes", 1);
  EXPECT_THROW(op2::init(make_config("seq", 1)), std::invalid_argument);
  ::unsetenv("OP2_PREPARED");
  op2::finalize();
}

// ---------------------------------------------------------------------
// Backend x loop equivalence matrix: the replayed (prepared) pipeline
// must produce the same results as the one-shot control arm under
// every registered backend, for both the classic and async APIs.
// ---------------------------------------------------------------------

struct run_result {
  std::vector<double> rms;       // per-iteration reduction values
  std::vector<double> y_final;   // final cell state
  std::vector<double> e_final;   // final edge state
};

// A miniature solver iteration: direct loop with a reduction feeding an
// indirect coloured gather — the same loop shapes airfoil uses.
run_result run_mini_solver(bool use_async, int iters) {
  auto m = make_ring(96);
  loop_handle h_direct;
  loop_handle h_edge;
  run_result r;
  for (int it = 0; it < iters; ++it) {
    double rms = 0.0;
    if (use_async) {
      auto f1 = op_par_loop_async(
          h_direct, scale_add, "mini_direct", m.cells,
          op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
          op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
          op_arg_gbl<double>(&rms, 1, OP_INC));
      f1.get();
      auto f2 = op_par_loop_async(
          h_edge, edge_gather, "mini_edge", m.edges,
          op_arg_dat<double>(m.p_y, 0, m.pedge, 1, OP_READ),
          op_arg_dat<double>(m.p_y, 1, m.pedge, 1, OP_READ),
          op_arg_dat<double>(m.p_e, -1, OP_ID, 1, OP_INC));
      f2.get();
    } else {
      op_par_loop(h_direct, scale_add, "mini_direct", m.cells,
                  op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
                  op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE),
                  op_arg_gbl<double>(&rms, 1, OP_INC));
      op_par_loop(h_edge, edge_gather, "mini_edge", m.edges,
                  op_arg_dat<double>(m.p_y, 0, m.pedge, 1, OP_READ),
                  op_arg_dat<double>(m.p_y, 1, m.pedge, 1, OP_READ),
                  op_arg_dat<double>(m.p_e, -1, OP_ID, 1, OP_INC));
    }
    r.rms.push_back(rms);
  }
  const auto yv = m.p_y.data<double>();
  r.y_final.assign(yv.begin(), yv.end());
  const auto ev = m.p_e.data<double>();
  r.e_final.assign(ev.begin(), ev.end());
  return r;
}

struct equivalence_param {
  const char* backend_name;
  unsigned threads;
  bool use_async;
};

std::string equivalence_name(
    const ::testing::TestParamInfo<equivalence_param>& info) {
  return std::string(info.param.backend_name) + "_t" +
         std::to_string(info.param.threads) +
         (info.param.use_async ? "_async" : "_classic");
}

class PreparedEquivalenceTest
    : public ::testing::TestWithParam<equivalence_param> {};

TEST_P(PreparedEquivalenceTest, ReplayMatchesOneShot) {
  const auto p = GetParam();
  constexpr int kIters = 4;

  auto cfg = make_config(p.backend_name, p.threads, 16);
  cfg.prepared_loops = true;
  op2::init(cfg);
  const auto prepared = run_mini_solver(p.use_async, kIters);

  cfg.prepared_loops = false;  // control arm: one-shot path every call
  op2::init(cfg);
  const auto oneshot = run_mini_solver(p.use_async, kIters);
  op2::finalize();

  // The dat state is never touched by the reduction machinery: the
  // prepared pipeline must reproduce it bit-for-bit on every backend.
  ASSERT_EQ(prepared.y_final.size(), oneshot.y_final.size());
  for (std::size_t i = 0; i < prepared.y_final.size(); ++i) {
    ASSERT_EQ(prepared.y_final[i], oneshot.y_final[i]) << "y[" << i << "]";
  }
  ASSERT_EQ(prepared.e_final.size(), oneshot.e_final.size());
  for (std::size_t i = 0; i < prepared.e_final.size(); ++i) {
    ASSERT_EQ(prepared.e_final[i], oneshot.e_final[i]) << "e[" << i << "]";
  }

  // Reductions: bit-for-bit where execution is deterministic (one
  // worker); within tight relative tolerance when the block-to-worker
  // assignment (and hence the FP summation order) may vary run to run.
  ASSERT_EQ(prepared.rms.size(), oneshot.rms.size());
  for (std::size_t i = 0; i < prepared.rms.size(); ++i) {
    if (p.threads <= 1) {
      ASSERT_EQ(prepared.rms[i], oneshot.rms[i]) << "rms[" << i << "]";
    } else {
      ASSERT_NEAR(prepared.rms[i], oneshot.rms[i],
                  1e-12 * std::abs(oneshot.rms[i]))
          << "rms[" << i << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PreparedEquivalenceTest,
    ::testing::Values(
        equivalence_param{"seq", 1, false},
        equivalence_param{"seq", 1, true},
        equivalence_param{"forkjoin", 4, false},
        equivalence_param{"forkjoin", 4, true},
        equivalence_param{"hpx_foreach", 4, false},
        equivalence_param{"hpx_foreach", 4, true},
        equivalence_param{"hpx_async", 4, false},
        equivalence_param{"hpx_async", 4, true},
        equivalence_param{"hpx_dataflow", 4, false},
        equivalence_param{"hpx_dataflow", 4, true}),
    equivalence_name);

// Modified (dataflow) API flavour of the equivalence matrix: the node
// body replays a prepared descriptor at fire time.
TEST(PreparedDataflowEquivalence, ReplayMatchesOneShot) {
  constexpr int kIters = 4;
  auto run_arm = [&](bool prepared_on) {
    auto cfg = make_config("hpx_dataflow", 4, 16);
    cfg.prepared_loops = prepared_on;
    op2::init(cfg);
    auto base = make_ring(96);
    op_dat_df x(base.p_x);
    op_dat_df y(base.p_y);
    std::vector<double> rms(kIters, 0.0);
    for (int it = 0; it < kIters; ++it) {
      op_par_loop(scale_add, "df_direct", base.cells,
                  op_arg_dat1<double>(x, -1, OP_ID, 1, OP_READ),
                  op_arg_dat1<double>(y, -1, OP_ID, 1, OP_WRITE),
                  op_arg_gbl1<double>(&rms[static_cast<std::size_t>(it)], 1,
                                      OP_INC));
    }
    y.wait();
    const auto yv = y.dat().data<double>();
    std::vector<double> y_final(yv.begin(), yv.end());
    op2::finalize();
    return std::make_pair(rms, y_final);
  };
  const auto prepared = run_arm(true);
  const auto oneshot = run_arm(false);
  ASSERT_EQ(prepared.second.size(), oneshot.second.size());
  for (std::size_t i = 0; i < prepared.second.size(); ++i) {
    ASSERT_EQ(prepared.second[i], oneshot.second[i]);
  }
  for (std::size_t i = 0; i < prepared.first.size(); ++i) {
    ASSERT_NEAR(prepared.first[i], oneshot.first[i],
                1e-12 * std::abs(oneshot.first[i]));
  }
}

// ---------------------------------------------------------------------
// Contention regression (satellite of the reduction-lock removal): two
// reduction loops replaying concurrently must not corrupt each other.
// Under the old design both loops serialised on (and raced through)
// one global spinlock-guarded scratch; per-loop per-worker slots make
// the accumulators independent.
// ---------------------------------------------------------------------

TEST(PreparedContention, TwoConcurrentReducingLoopsStayIndependent) {
  op2::init(make_config("hpx_async", 4, 16));
  {
    auto s1 = op_decl_set(4096, "s1");
    auto s2 = op_decl_set(4096, "s2");
    std::vector<double> ones(4096, 1.0);
    std::vector<double> twos(4096, 2.0);
    auto d1 = op_decl_dat<double>(s1, 1, "double",
                                  std::span<const double>(ones), "d1");
    auto d2 = op_decl_dat<double>(s2, 1, "double",
                                  std::span<const double>(twos), "d2");
    loop_handle h1;
    loop_handle h2;
    constexpr int kRounds = 100;
    for (int round = 0; round < kRounds; ++round) {
      double sum = 0.0;
      double sq = 0.0;
      // Launch both, THEN wait: the loops replay concurrently on the
      // shared worker pool.
      auto f1 = op_par_loop_async(
          h1, sum_to, "cont_sum", s1,
          op_arg_dat<double>(d1, -1, OP_ID, 1, OP_READ),
          op_arg_gbl<double>(&sum, 1, OP_INC));
      auto f2 = op_par_loop_async(
          h2, sum_sq, "cont_sq", s2,
          op_arg_dat<double>(d2, -1, OP_ID, 1, OP_READ),
          op_arg_gbl<double>(&sq, 1, OP_INC));
      f1.get();
      f2.get();
      // Integer-valued sums: exact regardless of summation order.
      ASSERT_EQ(sum, 4096.0) << "round " << round;
      ASSERT_EQ(sq, 4.0 * 4096.0) << "round " << round;
    }
  }
  op2::finalize();
}

// Several *different* loops accumulating into ONE shared global: their
// per-worker scratch is independent, but every finalize combines into
// the same caller buffer from whichever worker completes the loop.
// That last read-modify-write must be serialised (global_merge_lock)
// or near-simultaneous completions lose updates.
TEST(PreparedContention, ConcurrentLoopsSharingOneGlobalLoseNoUpdates) {
  op2::init(make_config("hpx_async", kShareLoops, 16));
  {
    constexpr int kRounds = 100;
    std::vector<op_set> sets;
    std::vector<op_dat> dats;
    const std::vector<double> one(1, 1.0);
    for (int i = 0; i < kShareLoops; ++i) {
      // One element per loop: the whole loop is one kernel call, so the
      // rendezvous aligns the loops' completions exactly.
      sets.push_back(op_decl_set(1, "s" + std::to_string(i)));
      dats.push_back(op_decl_dat<double>(sets.back(), 1, "double",
                                         std::span<const double>(one),
                                         "d" + std::to_string(i)));
    }
    std::array<loop_handle, kShareLoops> handles;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double> total(kWideDim, 0.0);
      rendezvous_started.store(0, std::memory_order_release);
      std::vector<hpxlite::future<void>> fs;
      fs.reserve(kShareLoops);
      for (int i = 0; i < kShareLoops; ++i) {
        fs.push_back(op_par_loop_async(
            handles[static_cast<std::size_t>(i)], sum_wide_rendezvous,
            "shared_gbl", sets[static_cast<std::size_t>(i)],
            op_arg_dat<double>(dats[static_cast<std::size_t>(i)], -1, OP_ID,
                               1, OP_READ),
            op_arg_gbl<double>(total.data(), kWideDim, OP_INC)));
      }
      for (auto& f : fs) {
        f.get();
      }
      // Integer-valued sums: exact regardless of merge order.
      for (int j = 0; j < kWideDim; ++j) {
        ASSERT_EQ(total[static_cast<std::size_t>(j)],
                  static_cast<double>(kShareLoops))
            << "round " << round << " component " << j;
      }
    }
  }
  op2::finalize();
}

// Async overlap of one call site with itself: the first invocation
// replays the prepared entry, the second finds it in flight and runs
// one-shot — two frames, one shared global, concurrent finalise.
TEST(PreparedContention, OverlappingSameSiteInvocationsLoseNoUpdates) {
  op2::init(make_config("hpx_async", 4, 16));
  {
    auto s1 = op_decl_set(4096, "s1");
    std::vector<double> ones(4096, 1.0);
    auto d1 = op_decl_dat<double>(s1, 1, "double",
                                  std::span<const double>(ones), "d1");
    loop_handle h;
    constexpr int kRounds = 100;
    for (int round = 0; round < kRounds; ++round) {
      double total = 0.0;
      auto f1 = op_par_loop_async(
          h, sum_to, "overlap_gbl", s1,
          op_arg_dat<double>(d1, -1, OP_ID, 1, OP_READ),
          op_arg_gbl<double>(&total, 1, OP_INC));
      auto f2 = op_par_loop_async(
          h, sum_to, "overlap_gbl", s1,
          op_arg_dat<double>(d1, -1, OP_ID, 1, OP_READ),
          op_arg_gbl<double>(&total, 1, OP_INC));
      f1.get();
      f2.get();
      ASSERT_EQ(total, 2.0 * 4096.0) << "round " << round;
    }
  }
  op2::finalize();
}

// op_set::resize must force re-capture even when a later resize
// returns the set to its captured size.  A global-only loop isolates
// the check: no dat version changes, the size matches the captured
// plan again, and only the set's resize-version says it went stale.
TEST_F(PreparedLoopTest, SetResizeRoundTripStillForcesRecapture) {
  for_each_site([](site_kind kind) {
    auto cells = op_decl_set(64, "cells");
    loop_handle h;
    double total = 0.0;
    const auto run = [&] {
      run_at(kind, h, count_one, "pl_roundtrip", cells,
             op_arg_gbl<double>(&total, 1, OP_INC));
    };
    run();
    run();
    EXPECT_EQ(profile_of("pl_roundtrip").captures, 1u);
    // Shrink and grow back to 64: size matches the captured entry
    // again, but the resize-version does not.
    cells.resize(32);
    cells.resize(64);
    run();
    EXPECT_EQ(profile_of("pl_roundtrip").captures, 2u);
    EXPECT_EQ(total, 3.0 * 64.0);
  });
}

}  // namespace
