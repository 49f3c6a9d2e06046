// The capture-time grain choice (`ctest -L tuner`):
//   - key derivation (size buckets) and registry identity;
//   - applicability: mode off, a non-chunk-honouring backend, and an
//     explicit static/dynamic/guided chunker all leave loops untuned,
//     while the auto default opts in;
//   - the chosen chunk: max(1, nblocks / (4 * workers)) for a direct
//     loop, converged from the first dispatch and kept across a
//     finalize()/init() cycle;
//   - OP2_TUNER / OP2_CHUNK environment knobs;
//   - the op_timing_output columns (chunk_chosen, tuner_state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "op2/op2.hpp"

namespace {

using namespace op2;
using ctl_state = hpxlite::grain_controller::state;

void scale(const double* in, double* out) { out[0] = 2.0 * in[0]; }

struct line_mesh {
  op_set cells;
  op_dat p_x;
  op_dat p_y;
};

line_mesh make_line(int n) {
  line_mesh m;
  m.cells = op_decl_set(n, "cells");
  std::vector<double> x(static_cast<std::size_t>(n));
  std::iota(x.begin(), x.end(), 1.0);
  m.p_x = op_decl_dat<double>(m.cells, 1, "double",
                              std::span<const double>(x), "p_x");
  m.p_y = op_decl_dat<double>(m.cells, 1, "double", "p_y");
  return m;
}

void run_loop(line_mesh& m, loop_handle& h, const char* name, int times) {
  for (int i = 0; i < times; ++i) {
    op_par_loop(h, scale, name, m.cells,
                op_arg_dat<double>(m.p_x, -1, OP_ID, 1, OP_READ),
                op_arg_dat<double>(m.p_y, -1, OP_ID, 1, OP_WRITE));
  }
}

loop_profile profile_of(const std::string& name) {
  auto snap = profiling::snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? loop_profile{} : it->second;
}

/// The tuner entry for `loop`, or nullopt.
std::optional<tuner::entry_info> entry_of(const std::string& loop) {
  for (const auto& e : tuner::snapshot()) {
    if (e.loop == loop) {
      return e;
    }
  }
  return std::nullopt;
}

class TunerTest : public ::testing::Test {
 protected:
  void SetUp() override { tuner::reset(); }
  void TearDown() override {
    op2::finalize();
    tuner::reset();
  }

  config tuned_config(tuner_mode mode = tuner_mode::on) {
    auto cfg = make_config("hpx_foreach", 2, 16);
    cfg.tuner = mode;
    return cfg;
  }
};

// ---------------------------------------------------------------------
// Keys and registry identity.
// ---------------------------------------------------------------------

TEST(TunerKeys, SizeBucketIsFloorLog2) {
  EXPECT_EQ(tuner::size_bucket(0), 0u);
  EXPECT_EQ(tuner::size_bucket(1), 0u);
  EXPECT_EQ(tuner::size_bucket(2), 1u);
  EXPECT_EQ(tuner::size_bucket(3), 1u);
  EXPECT_EQ(tuner::size_bucket(4), 2u);
  EXPECT_EQ(tuner::size_bucket(1023), 9u);
  EXPECT_EQ(tuner::size_bucket(1024), 10u);
}

TEST_F(TunerTest, AcquireIsKeyedOnLoopAndSizeBucket) {
  op2::init(tuned_config());
  const auto a = tuner::acquire("loop_a", 1000);
  EXPECT_EQ(a.get(), tuner::acquire("loop_a", 1000).get());
  // Same bucket (within 2x): the calibration is shared.
  EXPECT_EQ(a.get(), tuner::acquire("loop_a", 513).get());
  // A refined mesh (different bucket) and a different loop are not.
  EXPECT_NE(a.get(), tuner::acquire("loop_a", 5000).get());
  EXPECT_NE(a.get(), tuner::acquire("loop_b", 1000).get());
}

// ---------------------------------------------------------------------
// Applicability.
// ---------------------------------------------------------------------

TEST_F(TunerTest, AutoChunkedHonoringBackendGetsTuned) {
  op2::init(tuned_config());
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "tuned_loop", 4);
  const auto e = entry_of("tuned_loop");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->backend, "hpx_foreach");
  EXPECT_EQ(e->threads, 2u);
  EXPECT_EQ(e->total_feeds, 1u);  // chosen once, at capture
}

TEST_F(TunerTest, TunerOffLeavesLoopsUntuned) {
  op2::init(tuned_config(tuner_mode::off));
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "untuned_off", 4);
  EXPECT_FALSE(entry_of("untuned_off").has_value());
}

TEST_F(TunerTest, SeqBackendNeverTuned) {
  auto cfg = make_config("seq", 1, 16);
  cfg.tuner = tuner_mode::on;
  op2::init(cfg);
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "untuned_seq", 4);
  EXPECT_FALSE(entry_of("untuned_seq").has_value());
}

TEST_F(TunerTest, ExplicitStaticChunkDisablesTuning) {
  auto cfg = make_config("hpx_foreach", 2, 16, /*static_chunk=*/8);
  cfg.tuner = tuner_mode::on;
  op2::init(cfg);
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "untuned_static", 4);
  EXPECT_FALSE(entry_of("untuned_static").has_value());
}

TEST_F(TunerTest, ExplicitChunkerStringsGateTheTuner) {
  for (const char* chunker : {"static:8", "dynamic:4", "guided:2"}) {
    tuner::reset();
    auto cfg = tuned_config();
    cfg.chunker = chunker;
    op2::init(cfg);
    auto m = make_line(64);
    loop_handle h;
    run_loop(m, h, "gated_loop", 2);
    EXPECT_FALSE(entry_of("gated_loop").has_value()) << chunker;
    op2::finalize();
  }
  // An explicit "auto" is what the capture-time chunk replaces.
  tuner::reset();
  auto cfg = tuned_config();
  cfg.chunker = "auto";
  op2::init(cfg);
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "opted_in", 2);
  EXPECT_TRUE(entry_of("opted_in").has_value());
  op2::finalize();
}

// ---------------------------------------------------------------------
// The chosen chunk.
// ---------------------------------------------------------------------

TEST_F(TunerTest, SiteDispatchedOncePerCallIsConvergedAfterItsFirstDispatch) {
  // Like the first iteration's standalone save_soln: one dispatch per
  // driver call must already run with its final chunk.
  op2::init(tuned_config());
  auto m = make_line(4096);
  loop_handle h;
  run_loop(m, h, "once_per_call", 1);
  const auto e = entry_of("once_per_call");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->state, ctl_state::converged);
  EXPECT_GT(e->chunk, 0u);
  EXPECT_EQ(e->probe_feeds, 0u);
  EXPECT_EQ(e->total_probe_feeds, 0u);
}

TEST_F(TunerTest, FinalizeAndInitKeepTheChunkConverged) {
  op2::init(tuned_config());
  auto m = make_line(4096);
  loop_handle h;
  run_loop(m, h, "across_epochs", 40);
  const auto before = entry_of("across_epochs");
  ASSERT_TRUE(before.has_value());
  op2::finalize();
  auto e = entry_of("across_epochs");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->state, ctl_state::converged);  // no re-probe on finalize
  op2::init(tuned_config());
  run_loop(m, h, "across_epochs", 1);  // recaptured under the new epoch
  e = entry_of("across_epochs");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->state, ctl_state::converged);
  EXPECT_EQ(e->chunk, before->chunk);
  EXPECT_EQ(e->total_probe_feeds, 0u);
}

TEST_F(TunerTest, DirectLoopChunkIsBlocksOverFourPerWorker) {
  // 4096 elements in blocks of 16 = 256 blocks; a direct loop has one
  // colour, so the chunk is 256 / (4 * workers) on either backend.
  for (const char* backend : {"hpx_foreach", "forkjoin"}) {
    for (const unsigned workers : {2u, 3u}) {
      tuner::reset();
      auto cfg = make_config(backend, workers, 16);
      cfg.tuner = tuner_mode::on;
      op2::init(cfg);
      profiling::reset();
      profiling::enable(true);
      auto m = make_line(4096);
      loop_handle h;
      run_loop(m, h, "direct_rule", 5);
      const std::size_t want = std::max<std::size_t>(1, 256 / (4 * workers));
      const auto e = entry_of("direct_rule");
      ASSERT_TRUE(e.has_value()) << backend;
      EXPECT_EQ(e->chunk, want) << backend << " x" << workers;
      EXPECT_EQ(e->state, ctl_state::converged) << backend;
      // The executor really ran with it: the profile names the chunk.
      EXPECT_EQ(profile_of("direct_rule").chunk,
                "static:" + std::to_string(want))
          << backend << " x" << workers;
      profiling::enable(false);
      profiling::reset();
      op2::finalize();
    }
  }
}

// ---------------------------------------------------------------------
// Environment knobs.
// ---------------------------------------------------------------------

TEST(TunerEnv, Op2TunerKnobParses) {
  ::setenv("OP2_TUNER", "off", 1);
  op2::init(make_config("seq", 1));
  EXPECT_EQ(current_config().tuner, tuner_mode::off);
  ::setenv("OP2_TUNER", "on", 1);
  op2::init(make_config("seq", 1));
  EXPECT_EQ(current_config().tuner, tuner_mode::on);
  for (const char* bad : {"sometimes", "freeze"}) {
    ::setenv("OP2_TUNER", bad, 1);
    EXPECT_THROW(op2::init(make_config("seq", 1)), std::invalid_argument)
        << bad;
  }
  ::unsetenv("OP2_TUNER");
  op2::finalize();
}

TEST(TunerEnv, Op2ChunkKnobParses) {
  ::setenv("OP2_CHUNK", "static:8", 1);
  op2::init(make_config("seq", 1));
  EXPECT_EQ(current_config().chunker, "static:8");
  // An invalid chunk grammar fails at init, not at first launch.
  ::setenv("OP2_CHUNK", "bogus", 1);
  EXPECT_THROW(op2::init(make_config("seq", 1)), std::invalid_argument);
  ::setenv("OP2_CHUNK", "static:x", 1);
  EXPECT_THROW(op2::init(make_config("seq", 1)), std::invalid_argument);
  ::setenv("OP2_CHUNK", "adaptive", 1);
  EXPECT_THROW(op2::init(make_config("seq", 1)), std::invalid_argument);
  ::unsetenv("OP2_CHUNK");
  op2::finalize();
}

// ---------------------------------------------------------------------
// op_timing_output integration.
// ---------------------------------------------------------------------

TEST_F(TunerTest, ProfilingRecordsChunkAndTunerState) {
  op2::init(tuned_config());
  profiling::reset();
  profiling::enable(true);
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "profiled_tuned", 4);
  const auto p = profile_of("profiled_tuned");
  EXPECT_GT(p.chunk_chosen, 0u);
  EXPECT_FALSE(p.tuner_state.empty());

  std::ostringstream table;
  profiling::report(table);
  EXPECT_NE(table.str().find("chunk_chosen"), std::string::npos);
  EXPECT_NE(table.str().find("tuner_state"), std::string::npos);
  profiling::enable(false);
  profiling::reset();
}

TEST_F(TunerTest, UntunedLoopShowsDashColumns) {
  op2::init(tuned_config(tuner_mode::off));
  profiling::reset();
  profiling::enable(true);
  auto m = make_line(64);
  loop_handle h;
  run_loop(m, h, "profiled_untuned", 4);
  const auto p = profile_of("profiled_untuned");
  EXPECT_EQ(p.chunk_chosen, 0u);
  EXPECT_TRUE(p.tuner_state.empty());
  profiling::enable(false);
  profiling::reset();
}

}  // namespace
