// End-to-end Airfoil runs: every programming model (classic under each
// backend, async, dataflow) must produce the identical flow field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "airfoil/job.hpp"
#include "airfoil/model_adapter.hpp"

namespace {

using airfoil::generate_mesh;
using airfoil::make_sim;
using airfoil::mesh_params;
using airfoil::run_async;
using airfoil::run_classic;
using airfoil::run_dataflow;
using airfoil::run_result;
using airfoil::sim;
using airfoil::solution_checksum;

mesh_params tiny() {
  mesh_params p;
  p.imax = 24;
  p.jmax = 8;
  return p;
}

constexpr int kIters = 8;

/// Reference result computed with the sequential backend.
const run_result& reference(double* checksum) {
  static double ref_checksum = 0.0;
  static run_result ref = [] {
    op2::init({op2::backend::seq, 1, 32, 0});
    auto s = make_sim(generate_mesh(tiny()));
    auto r = run_classic(s, kIters);
    ref_checksum = solution_checksum(s);
    op2::finalize();
    return r;
  }();
  if (checksum != nullptr) {
    *checksum = ref_checksum;
  }
  return ref;
}

void expect_matches_reference(const run_result& got, double checksum) {
  double ref_checksum = 0.0;
  const auto& ref = reference(&ref_checksum);
  ASSERT_EQ(got.rms_history.size(), ref.rms_history.size());
  for (std::size_t i = 0; i < ref.rms_history.size(); ++i) {
    // The parallel global reduction reorders additions; allow only
    // rounding-level differences.
    EXPECT_NEAR(got.rms_history[i], ref.rms_history[i],
                1e-12 * std::max(1.0, std::fabs(ref.rms_history[i])))
        << "iteration " << i;
  }
  EXPECT_NEAR(checksum, ref_checksum, 1e-9 * std::fabs(ref_checksum));
}

TEST(AirfoilSolver, PhysicsSanity) {
  double checksum = 0.0;
  const auto& ref = reference(&checksum);
  // The run produced a finite, non-trivial residual history.
  ASSERT_EQ(ref.rms_history.size(), static_cast<std::size_t>(kIters));
  for (const double rms : ref.rms_history) {
    ASSERT_TRUE(std::isfinite(rms));
    ASSERT_GT(rms, 0.0);
  }
  ASSERT_TRUE(std::isfinite(checksum));
  // The flow remains physical: positive density and pressure everywhere.
  op2::init({op2::backend::seq, 1, 32, 0});
  auto s = make_sim(generate_mesh(tiny()));
  run_classic(s, kIters);
  const auto& c = airfoil::constants();
  auto q = s.p_q.data<double>();
  for (int cell = 0; cell < s.cells.size(); ++cell) {
    const auto ci = static_cast<std::size_t>(4 * cell);
    const double rho = q[ci];
    ASSERT_GT(rho, 0.0);
    const double p = c.gm1 * (q[ci + 3] -
                              0.5 * (q[ci + 1] * q[ci + 1] +
                                     q[ci + 2] * q[ci + 2]) /
                                  rho);
    ASSERT_GT(p, 0.0);
  }
  op2::finalize();
}

struct model_case {
  std::string name;
  op2::backend bk;
  unsigned threads;
  run_result (*runner)(sim&, int);
};

// gtest would otherwise print the raw bytes, string and function pointers
// included, and the printed parameter is part of the test's name.
void PrintTo(const model_case& c, std::ostream* os) { *os << c.name; }

class SolverEquivalence : public ::testing::TestWithParam<model_case> {};

TEST_P(SolverEquivalence, MatchesSequentialReference) {
  const auto& param = GetParam();
  op2::init({param.bk, param.threads, 32, 0});
  auto s = make_sim(generate_mesh(tiny()));
  const auto got = param.runner(s, kIters);
  const double checksum = solution_checksum(s);
  op2::finalize();
  expect_matches_reference(got, checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SolverEquivalence,
    ::testing::Values(
        model_case{"forkjoin_t1", op2::backend::forkjoin, 1, run_classic},
        model_case{"forkjoin_t4", op2::backend::forkjoin, 4, run_classic},
        model_case{"foreach_t1", op2::backend::hpx_foreach, 1, run_classic},
        model_case{"foreach_t4", op2::backend::hpx_foreach, 4, run_classic},
        model_case{"async_t1", op2::backend::hpx_async, 1, run_async},
        model_case{"async_t4", op2::backend::hpx_async, 4, run_async},
        model_case{"dataflow_t1", op2::backend::hpx_dataflow, 1,
                   run_dataflow},
        model_case{"dataflow_t4", op2::backend::hpx_dataflow, 4,
                   run_dataflow}),
    [](const ::testing::TestParamInfo<model_case>& pinfo) {
      return pinfo.param.name;
    });

TEST(AirfoilSolver, DeterministicAcrossRepeats) {
  op2::init({op2::backend::hpx_dataflow, 4, 32, 0});
  auto s1 = make_sim(generate_mesh(tiny()));
  const auto r1 = run_dataflow(s1, kIters);
  const double c1 = solution_checksum(s1);
  auto s2 = make_sim(generate_mesh(tiny()));
  const auto r2 = run_dataflow(s2, kIters);
  const double c2 = solution_checksum(s2);
  op2::finalize();
  EXPECT_EQ(c1, c2);  // the flow field itself is schedule-independent
  ASSERT_EQ(r1.rms_history.size(), r2.rms_history.size());
  for (std::size_t i = 0; i < r1.rms_history.size(); ++i) {
    // The rms reduction merges block-private partials in completion
    // order, so only rounding-level variation is permitted.
    EXPECT_NEAR(r1.rms_history[i], r2.rms_history[i],
                1e-13 * std::max(1.0, r1.rms_history[i]));
  }
}

TEST(AirfoilSolver, ResetSolutionRestoresFreeStream) {
  op2::init({op2::backend::seq, 1, 32, 0});
  auto s = make_sim(generate_mesh(tiny()));
  run_classic(s, 3);
  airfoil::reset_solution(s);
  const auto& qinf = airfoil::constants().qinf;
  auto q = s.p_q.data<double>();
  for (int cell = 0; cell < s.cells.size(); ++cell) {
    for (int n = 0; n < 4; ++n) {
      ASSERT_EQ(q[static_cast<std::size_t>(4 * cell + n)],
                qinf[static_cast<std::size_t>(n)]);
    }
  }
  for (const double v : s.p_res.data<double>()) {
    ASSERT_EQ(v, 0.0);
  }
  op2::finalize();
}

TEST(AirfoilSolver, LongerRunStaysStable) {
  op2::init({op2::backend::seq, 1, 64, 0});
  auto s = make_sim(generate_mesh(tiny()));
  const auto r = run_classic(s, 60);
  op2::finalize();
  for (const double rms : r.rms_history) {
    ASSERT_TRUE(std::isfinite(rms));
  }
  // The transient should decay: late residuals below the early peak.
  const double early_peak =
      *std::max_element(r.rms_history.begin(), r.rms_history.begin() + 10);
  EXPECT_LT(r.rms_history.back(), early_peak);
}

// run_job (the service's Airfoil job) and run_classic launch the same
// loop table; run_job differs only in its per-tenant handles and in not
// fusing update with the next save_soln.  The flow field must agree bit
// for bit; the rms reduction may reassociate on threaded backends.
struct job_case {
  const char* backend;
  unsigned threads;
};

void PrintTo(const job_case& c, std::ostream* os) {
  *os << c.backend << "_t" << c.threads;
}

class JobMatchesClassic : public ::testing::TestWithParam<job_case> {};

TEST_P(JobMatchesClassic, SameFieldAsRunClassic) {
  const auto& param = GetParam();
  airfoil::job_params jp;
  jp.imax = 30;
  jp.jmax = 15;
  jp.niter = 6;
  jp.keep_solution = true;
  op2::init(op2::make_config(param.backend, param.threads));
  auto s = make_sim(generate_mesh({jp.imax, jp.jmax}));
  const auto classic = run_classic(s, jp.niter);
  const auto q = s.p_q.data<double>();
  airfoil::job_output job;
  {
    airfoil::job_workspace ws;
    job = airfoil::run_job(jp, ws, hpxlite::stop_token{});
  }
  op2::finalize();

  EXPECT_EQ(job.iterations, jp.niter);
  EXPECT_EQ(job.loops, static_cast<std::uint64_t>(9 * jp.niter));
  ASSERT_EQ(job.solution.size(), q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(job.solution[i], q[i]) << "q entry " << i;
  }
  const double rms = classic.rms_history.back();
  if (std::string(param.backend) == "seq") {
    EXPECT_EQ(job.final_rms, rms);
  } else {
    EXPECT_NEAR(job.final_rms, rms, 1e-12 * std::max(1.0, std::fabs(rms)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, JobMatchesClassic,
    ::testing::Values(job_case{"seq", 1}, job_case{"forkjoin", 3},
                      job_case{"hpx_foreach", 3}),
    [](const ::testing::TestParamInfo<job_case>& pinfo) {
      return std::string(pinfo.param.backend);
    });

}  // namespace

namespace airfoil_model_costs {

TEST(ModelCosts, EngineMeasuredCostsArePositiveAndOrdered) {
  op2::init({op2::backend::seq, 1, 64, 0});
  auto s = airfoil::make_sim(airfoil::generate_mesh({32, 8}));
  const auto costs = airfoil::measure_loop_costs(s, 2);
  op2::finalize();
  EXPECT_GT(costs.save, 0.0);
  EXPECT_GT(costs.adt, 0.0);
  EXPECT_GT(costs.res, 0.0);
  EXPECT_GT(costs.bres, 0.0);
  EXPECT_GT(costs.update, 0.0);
  // adt does much more arithmetic than save_soln per element.
  EXPECT_GT(costs.adt, costs.save);
  // Profiling left disabled and clean.
  EXPECT_FALSE(op2::profiling::enabled());
  EXPECT_TRUE(op2::profiling::snapshot().empty());
}

}  // namespace airfoil_model_costs
