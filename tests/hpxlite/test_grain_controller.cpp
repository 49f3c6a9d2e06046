// grain_controller: the one grain rule, max(1, n / (4 * workers)), and
// the record it keeps of the chunk it handed out.
#include <gtest/gtest.h>

#include <cstddef>

#include "hpxlite/grain_controller.hpp"

namespace {

using hpxlite::grain_controller;
using state = hpxlite::grain_controller::state;

TEST(GrainController, SeedsFromWorkersLikeReduceNormalisation) {
  grain_controller c;
  EXPECT_EQ(c.current_state(), state::probing);  // nothing chosen yet
  // n / (4 * workers) = 1024 / 16 = 64.
  EXPECT_EQ(c.chunk(1024, 4), 64u);
  EXPECT_EQ(hpxlite::default_chunk(1024, 4), 64u);
  EXPECT_EQ(c.current_state(), state::converged);
  EXPECT_EQ(c.current_chunk(), 64u);
  EXPECT_EQ(c.uses(), 1u);
}

TEST(GrainController, ChunkAlwaysInRangeEvenForTinySets) {
  grain_controller c;
  EXPECT_EQ(c.chunk(0, 4), 1u);  // empty set: still a sane value
  EXPECT_EQ(c.chunk(5, 4), 1u);  // 5/16 rounds to 0 -> clamped to 1
  EXPECT_EQ(c.chunk(1, 8), 1u);
  EXPECT_EQ(c.chunk(7, 0), 1u);  // zero workers counts as one
}

TEST(GrainController, ResetForgetsEverything) {
  grain_controller c;
  c.chunk(1024, 4);
  c.reset();
  EXPECT_EQ(c.current_state(), state::probing);
  EXPECT_EQ(c.current_chunk(), 0u);
  EXPECT_EQ(c.uses(), 0u);
  EXPECT_EQ(c.chunk(64, 4), 4u);
}

TEST(GrainController, ToStringNamesEveryState) {
  EXPECT_STREQ(hpxlite::to_string(state::probing), "probing");
  EXPECT_STREQ(hpxlite::to_string(state::converged), "converged");
}

}  // namespace
