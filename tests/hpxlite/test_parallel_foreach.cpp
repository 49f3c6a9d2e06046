#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "hpxlite/hpxlite.hpp"

namespace {

using hpxlite::auto_chunk_size;
using hpxlite::chunk_spec;
using hpxlite::dynamic_chunk_size;
using hpxlite::guided_chunk_size;
using hpxlite::irange;
using hpxlite::par;
using hpxlite::runtime;
using hpxlite::seq;
using hpxlite::static_chunk_size;
using hpxlite::task;

class ForEachTest : public ::testing::Test {
 protected:
  void SetUp() override { runtime::reset(3); }
  void TearDown() override { runtime::shutdown(); }
};

TEST_F(ForEachTest, SequencedVisitsEverythingInOrder) {
  std::vector<int> seen;
  auto r = irange(0, 10);
  hpxlite::parallel::for_each(seq, r.begin(), r.end(),
                              [&](int i) { seen.push_back(i); });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(seen, expect);
}

TEST_F(ForEachTest, ParallelVisitsEveryElementExactlyOnce) {
  constexpr int n = 10000;
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  hpxlite::parallel::for_each(par, r.begin(), r.end(),
                              [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "element " << i;
  }
}

TEST_F(ForEachTest, ParallelOverVectorIterators) {
  std::vector<double> v(5000, 1.0);
  hpxlite::parallel::for_each(par, v.begin(), v.end(),
                              [](double& x) { x *= 2.0; });
  for (const double x : v) {
    ASSERT_DOUBLE_EQ(x, 2.0);
  }
}

TEST_F(ForEachTest, EmptyRangeIsNoop) {
  auto r = irange(5, 5);
  int hits = 0;
  hpxlite::parallel::for_each(par, r.begin(), r.end(), [&](int) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST_F(ForEachTest, SingleElementRange) {
  auto r = irange(7, 8);
  std::atomic<int> sum{0};
  hpxlite::parallel::for_each(par, r.begin(), r.end(),
                              [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 7);
}

TEST_F(ForEachTest, TaskPolicyReturnsFuture) {
  constexpr int n = 2000;
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  auto f = hpxlite::parallel::for_each(par(task), r.begin(), r.end(),
                                       [&](int i) { counts[i].fetch_add(1); });
  f.get();
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1);
  }
}

TEST_F(ForEachTest, TaskPolicyEmptyRangeReadyImmediately) {
  auto r = irange(0, 0);
  auto f = hpxlite::parallel::for_each(par(task), r.begin(), r.end(),
                                       [](int) {});
  EXPECT_TRUE(f.is_ready());
}

TEST_F(ForEachTest, ExceptionPropagatesFromBody) {
  auto r = irange(0, 100);
  EXPECT_THROW(hpxlite::parallel::for_each(par, r.begin(), r.end(),
                                           [](int i) {
                                             if (i == 50) {
                                               throw std::runtime_error("i50");
                                             }
                                           }),
               std::runtime_error);
}

TEST_F(ForEachTest, ExceptionPropagatesThroughTaskFuture) {
  auto r = irange(0, 100);
  auto f = hpxlite::parallel::for_each(par(task), r.begin(), r.end(),
                                       [](int i) {
                                         if (i == 3) {
                                           throw std::logic_error("i3");
                                         }
                                       });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST_F(ForEachTest, ForLoopIndexVariant) {
  std::vector<std::atomic<int>> counts(500);
  hpxlite::parallel::for_loop(par, 0, 500,
                              [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(counts[i].load(), 1);
  }
}

TEST_F(ForEachTest, ForLoopEmptyAndReversedBounds) {
  int hits = 0;
  hpxlite::parallel::for_loop(par, 5, 5, [&](int) { ++hits; });
  hpxlite::parallel::for_loop(par, 9, 2, [&](int) { ++hits; });
  EXPECT_EQ(hits, 0);
  auto f = hpxlite::parallel::for_loop(par(task), 3, 3, [&](int) { ++hits; });
  f.get();
  EXPECT_EQ(hits, 0);
}

TEST_F(ForEachTest, TransformParallel) {
  std::vector<int> in(1000);
  std::iota(in.begin(), in.end(), 0);
  std::vector<int> out(in.size(), -1);
  hpxlite::parallel::transform(par, in.begin(), in.end(), out.begin(),
                               [](int x) { return x * x; });
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST_F(ForEachTest, TransformTaskPolicy) {
  std::vector<int> in(256, 2);
  std::vector<int> out(in.size(), 0);
  auto f = hpxlite::parallel::transform(par(task), in.begin(), in.end(),
                                        out.begin(), [](int x) { return x + 1; });
  f.get();
  for (const int v : out) {
    ASSERT_EQ(v, 3);
  }
}

// --- auto-partitioner probe skip on empty/tiny sets -------------------
//
// The serial probe samples n * measure_fraction iterations; when that
// rounds to zero (empty or tiny set) a timed sample would be all
// overhead and no signal, so pick_static_chunk must skip the probe
// entirely and run the whole range as one chunk.

std::pair<std::size_t, std::size_t> pick_counting(std::size_t n,
                                                  unsigned workers,
                                                  int& prefix_calls) {
  return hpxlite::parallel::detail::pick_static_chunk(
      chunk_spec(auto_chunk_size{}), n, workers,
      [&](std::size_t) { ++prefix_calls; });
}

TEST(AutoProbeSkip, EmptySetNeverProbes) {
  int calls = 0;
  const auto [chunk, prefix] = pick_counting(0, 3, calls);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(prefix, 0u);
  EXPECT_GE(chunk, 1u);  // a sane chunk even with nothing to do
}

TEST(AutoProbeSkip, SingleElementNeverProbes) {
  int calls = 0;
  const auto [chunk, prefix] = pick_counting(1, 3, calls);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(prefix, 0u);
  EXPECT_EQ(chunk, 1u);
}

TEST(AutoProbeSkip, FewerElementsThanWorkersNeverProbes) {
  int calls = 0;
  const auto [chunk, prefix] = pick_counting(2, 3, calls);  // workers - 1
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(prefix, 0u);
  EXPECT_EQ(chunk, 2u);  // the whole range is one chunk
}

TEST(AutoProbeSkip, LargestProbeFreeSizeRunsAsOneChunk) {
  // 99 * 0.01 rounds to zero: still probe-free.
  int calls = 0;
  const auto [chunk, prefix] = pick_counting(99, 3, calls);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(chunk, 99u);
  // 100 * 0.01 == 1: the probe engages (and consumes its prefix).
  const auto [chunk2, prefix2] = pick_counting(100, 3, calls);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(prefix2, 1u);
  EXPECT_GE(chunk2, 1u);
}

TEST_F(ForEachTest, AutoChunkerTinyRangesStillVisitEverything) {
  // End-to-end flavour of the probe-skip sizes: n = 0, 1, workers - 1.
  for (const int n : {0, 1, 2}) {
    std::vector<std::atomic<int>> counts(static_cast<std::size_t>(n) + 1);
    auto r = irange(0, n);
    hpxlite::parallel::for_each(par.with(auto_chunk_size{}), r.begin(),
                                r.end(),
                                [&](int i) { counts[static_cast<std::size_t>(i)].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " element " << i;
    }
  }
}

// --- chunker behaviour, parameterised over every chunk_spec -----------

class ChunkerTest : public ::testing::TestWithParam<chunk_spec> {
 protected:
  void SetUp() override { runtime::reset(3); }
  void TearDown() override { runtime::shutdown(); }
};

TEST_P(ChunkerTest, EveryElementVisitedExactlyOnce) {
  constexpr int n = 4321;  // deliberately not a multiple of anything
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  hpxlite::parallel::for_each(par.with(GetParam()), r.begin(), r.end(),
                              [&](int i) { counts[i].fetch_add(1); });
  long total = 0;
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "element " << i;
    total += counts[i].load();
  }
  EXPECT_EQ(total, n);
}

TEST_P(ChunkerTest, TaskVariantVisitsEverything) {
  constexpr int n = 1234;
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  auto f = hpxlite::parallel::for_each(par(task).with(GetParam()), r.begin(),
                                       r.end(),
                                       [&](int i) { counts[i].fetch_add(1); });
  f.get();
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChunkers, ChunkerTest,
    ::testing::Values(
        chunk_spec(auto_chunk_size{}),
        chunk_spec(static_chunk_size(1)),
        chunk_spec(static_chunk_size(7)),
        chunk_spec(static_chunk_size(100000)),   // chunk > range
        chunk_spec(dynamic_chunk_size(13)),
        chunk_spec(dynamic_chunk_size(100000)),  // chunk > range
        chunk_spec(guided_chunk_size(4)),
        chunk_spec(guided_chunk_size(100000))),  // min clamp > range
    [](const ::testing::TestParamInfo<chunk_spec>& pinfo) {
      switch (pinfo.param.index()) {
        case 0:
          return std::string("auto");
        case 1: {
          const auto s = std::get<hpxlite::static_chunk_size>(pinfo.param).size;
          return "static" + std::to_string(s);
        }
        case 2: {
          const auto s =
              std::get<hpxlite::dynamic_chunk_size>(pinfo.param).size;
          return "dynamic" + std::to_string(s);
        }
        default: {
          const auto s =
              std::get<hpxlite::guided_chunk_size>(pinfo.param).min_size;
          return "guided" + std::to_string(s);
        }
      }
    });

// --- dynamic / guided boundary behaviour ------------------------------

TEST_F(ForEachTest, DynamicChunkLargerThanRangeIsOneGrab) {
  // One worker's first fetch_add covers the whole range; the rest find
  // the cursor past the end and exit.  Everything still runs once.
  constexpr int n = 50;
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  hpxlite::parallel::for_each(par.with(dynamic_chunk_size(100000)),
                              r.begin(), r.end(),
                              [&](int i) { counts[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST_F(ForEachTest, GuidedMinChunkClampsTheShrinkingGrabs) {
  // remaining/(2*workers) would shrink below min_size quickly; the
  // clamp keeps every grab at >= min_size and the tail grab must not
  // overrun the range.
  constexpr int n = 100;
  std::vector<std::atomic<int>> counts(n);
  auto r = irange(0, n);
  hpxlite::parallel::for_each(par.with(guided_chunk_size(32)), r.begin(),
                              r.end(),
                              [&](int i) { counts[static_cast<std::size_t>(i)].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1);
  }
}

}  // namespace
