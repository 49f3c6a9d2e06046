// Fault-injection matrix over the Airfoil solver: every registered
// backend × {res_calc, update} × {throw, stall, corrupt}.  Each faulted
// run must converge to the same RMS history as the fault-free run on
// the same backend — recovery is only recovery if the physics agrees.
//
// Also hosts the acceptance scenarios of the resilience work:
//   - OP2_FAULT-driven throw into res_calc under hpx_dataflow recovers
//     via rollback/retry with RMS matching the fault-free run to 1e-12
//   - the same spec with retries exhausted degrades to seq, completes,
//     and shows up in the op_timing_output counters
//   - a stall fault trips the watchdog, which names the stuck loop and
//     backend and releases the stall instead of hanging the suite
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "hpxlite/watchdog.hpp"

namespace {

using namespace std::chrono_literals;
using airfoil::generate_mesh;
using airfoil::make_sim;
using airfoil::mesh_params;
using airfoil::run_result;
using airfoil::run_with_backend;
using op2::fault_injector;

constexpr int kIters = 6;
constexpr unsigned kThreads = 2;

mesh_params tiny() {
  mesh_params p;
  p.imax = 16;
  p.jmax = 6;
  return p;
}

run_result run_clean(const std::string& backend) {
  op2::init(op2::make_config(backend, kThreads, 32));
  auto s = make_sim(generate_mesh(tiny()));
  auto r = run_with_backend(s, kIters, backend);
  op2::finalize();
  return r;
}

/// Fault-free reference per backend, computed once.
const run_result& reference(const std::string& backend) {
  static std::mutex mutex;
  static std::map<std::string, run_result> refs;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = refs.find(backend);
  if (it == refs.end()) {
    it = refs.emplace(backend, run_clean(backend)).first;
  }
  return it->second;
}

void expect_rms_matches(const run_result& got, const run_result& want,
                        const std::string& context) {
  ASSERT_EQ(got.rms_history.size(), want.rms_history.size()) << context;
  for (std::size_t i = 0; i < want.rms_history.size(); ++i) {
    const double ref = want.rms_history[i];
    EXPECT_NEAR(got.rms_history[i], ref,
                1e-12 * std::max(1.0, std::fabs(ref)))
        << context << " iteration " << i;
  }
}

struct matrix_case {
  std::string backend;
  std::string loop;  // res_calc or update
};

std::vector<matrix_case> all_cases() {
  std::vector<matrix_case> cases;
  for (const auto& backend : op2::backend_registry::names()) {
    for (const char* loop : {"res_calc", "update"}) {
      cases.push_back({backend, loop});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<matrix_case>& info) {
  return info.param.backend + "_" + info.param.loop;
}

// gtest would otherwise print the raw bytes, heap pointers included, and
// the printed parameter is part of the test's name.
void PrintTo(const matrix_case& c, std::ostream* os) {
  *os << c.backend << "/" << c.loop;
}

class FaultMatrix : public ::testing::TestWithParam<matrix_case> {
 protected:
  void TearDown() override {
    fault_injector::clear();
    hpxlite::watchdog::stop();
    op2::finalize();
  }
};

TEST_P(FaultMatrix, ThrowRecoversViaRollbackAndRetry) {
  const auto& [backend, loop] = GetParam();
  const auto& ref = reference(backend);  // before arming the fault
  auto cfg = op2::make_config(backend, kThreads, 32);
  cfg.on_failure.max_retries = 2;
  cfg.on_failure.fallback_to_seq = true;
  op2::init(cfg);
  fault_injector::configure(loop + ":throw:at=3");
  auto s = make_sim(generate_mesh(tiny()));
  const auto r = run_with_backend(s, kIters, backend);
  EXPECT_EQ(fault_injector::fired_count(), 1);
  expect_rms_matches(r, ref, backend + "/" + loop + "/throw");
}

TEST_P(FaultMatrix, StallTripsTheWatchdogWhichNamesAndReleasesIt) {
  const auto& [backend, loop] = GetParam();
  const auto& ref = reference(backend);  // before arming the fault
  op2::init(op2::make_config(backend, kThreads, 32));
  // Stall one chunk of the target loop hard (5 s cap as a safety net);
  // the watchdog must notice the silence, report the stuck loop, and
  // the handler frees it — the suite never hangs.
  fault_injector::configure(loop + ":stall:at=3,stall_ms=5000");
  std::mutex mutex;
  std::vector<std::string> seen;
  hpxlite::watchdog::start(100ms, [&](const hpxlite::watchdog_report& r) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(seen.end(), r.activities.begin(), r.activities.end());
    }
    fault_injector::release_stalls();
  });
  auto s = make_sim(generate_mesh(tiny()));
  const auto r = run_with_backend(s, kIters, backend);
  EXPECT_EQ(fault_injector::fired_count(), 1);
  EXPECT_GE(hpxlite::watchdog::stalls_detected(), 1u);
  // The diagnostic names the stuck loop and the backend executing it
  // (dataflow nodes run their colour sweep on the hpx_foreach executor).
  const std::string executing =
      backend == "hpx_dataflow" ? "hpx_foreach" : backend;
  bool named = false;
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& activity : seen) {
      // The sharded driver runs per-shard instances ("res_calc@s1");
      // the diagnostic must still name the stuck kernel.
      if ((activity.find("'" + loop + "'") != std::string::npos ||
           activity.find("'" + loop + "@s") != std::string::npos) &&
          activity.find(executing) != std::string::npos) {
        named = true;
      }
    }
  }
  EXPECT_TRUE(named) << backend << "/" << loop;
  // A released stall runs the chunk normally afterwards: same physics.
  expect_rms_matches(r, ref, backend + "/" + loop + "/stall");
}

TEST_P(FaultMatrix, CorruptHealsThroughCheckpointRestart) {
  const auto& [backend, loop] = GetParam();
  const auto& ref = reference(backend);  // before arming the fault
  op2::init(op2::make_config(backend, kThreads, 32));
  // Loop invocation 5 = iteration 3 (two RK stages per iteration), in
  // the second 2-iteration checkpoint segment.  The poisoned output is
  // caught by the segment health check; the replay runs clean because
  // the single-fire budget is spent.
  fault_injector::configure(loop + ":corrupt:at=5");
  auto s = make_sim(generate_mesh(tiny()));
  airfoil::resilience_options opts;
  opts.checkpoint_path =
      ::testing::TempDir() + "matrix_" + backend + "_" + loop + ".chk";
  opts.checkpoint_every = 2;
  const auto r = airfoil::run_resilient(s, kIters, opts);
  EXPECT_EQ(fault_injector::fired_count(), 1);
  EXPECT_GE(r.restarts, 1);
  EXPECT_GE(r.iterations_replayed, 1);
  EXPECT_TRUE(std::isfinite(airfoil::solution_checksum(s)));
  expect_rms_matches(r.run, ref, backend + "/" + loop + "/corrupt");
}

INSTANTIATE_TEST_SUITE_P(Registry, FaultMatrix,
                         ::testing::ValuesIn(all_cases()), case_name);

// --- ISSUE acceptance scenarios ---------------------------------------

class AcceptanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("OP2_FAULT");
    ::unsetenv("OP2_FAILURE_POLICY");
    fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_F(AcceptanceTest, EnvDrivenThrowIntoResCalcRecoversOnDataflow) {
  // Reference first: run_clean re-enters op2::init, which would re-arm
  // the fault from OP2_FAULT if the variable were already exported.
  const auto& ref = reference("hpx_dataflow");
  ::setenv("OP2_FAULT", "res_calc:throw:at=10", 1);
  ::setenv("OP2_FAILURE_POLICY", "retries=2,fallback=on", 1);
  op2::init(op2::make_config("hpx_dataflow", kThreads, 32));
  auto s = make_sim(generate_mesh(tiny()));
  const auto r = run_with_backend(s, kIters, "hpx_dataflow");
  EXPECT_EQ(fault_injector::fired_count(), 1);
  expect_rms_matches(r, ref, "acceptance/env-throw");
}

TEST_F(AcceptanceTest, ExhaustedRetriesDegradeToSeqAndStillComplete) {
  const auto& ref = reference("hpx_foreach");
  auto cfg = op2::make_config("hpx_foreach", kThreads, 32);
  cfg.on_failure.max_retries = 2;
  cfg.on_failure.fallback_to_seq = true;
  op2::init(cfg);
  op2::profiling::enable(true);
  op2::profiling::reset();
  // Budget of 3: the initial attempt and both retries fail; the seq
  // fallback executes the loop cleanly and the solve completes.
  fault_injector::configure("res_calc:throw:at=3,count=3");
  auto s = make_sim(generate_mesh(tiny()));
  const auto r = run_with_backend(s, kIters, "hpx_foreach");
  EXPECT_EQ(fault_injector::fired_count(), 3);
  expect_rms_matches(r, ref, "acceptance/degrade");
  const auto profiles = op2::profiling::snapshot();
  const auto it = profiles.find("res_calc");
  ASSERT_NE(it, profiles.end());
  EXPECT_EQ(it->second.retries, 2u);
  EXPECT_EQ(it->second.fallbacks, 1u);
}

}  // namespace
