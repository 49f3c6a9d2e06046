// The modified OP2 API (§III-B): op_dat_df handles, op_arg_dat1,
// dataflow op_par_loop with automatic dependency derivation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "op2/op2.hpp"

namespace {

using namespace op2;

class DataflowApiTest : public ::testing::Test {
 protected:
  void SetUp() override { op2::init({backend::hpx_dataflow, 3, 16, 0}); }
  void TearDown() override { op2::finalize(); }
};

void scale2(const double* in, double* out) { out[0] = 2.0 * in[0]; }

TEST_F(DataflowApiTest, SingleLoopCompletes) {
  auto s = op_decl_set(200, "s");
  std::vector<double> init(200, 1.0);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  op_dat_df b(op_decl_dat<double>(s, 1, "double", "b"));
  auto f = op_par_loop(scale2, "x2", s,
                       op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
                       op_arg_dat1<double>(b, -1, OP_ID, 1, OP_WRITE));
  f.wait();
  for (const double v : b.dat().data<double>()) {
    ASSERT_EQ(v, 2.0);
  }
}

// A node's future is installed into the bookkeeping of every dat it
// touches, so a node that also owned that bookkeeping would form a
// cycle keeping both alive for the rest of the process.
TEST_F(DataflowApiTest, CompletedNodesDoNotOwnDatBookkeeping) {
  auto s = op_decl_set(64, "s");
  std::vector<double> init(64, 1.0);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  op_dat_df b(op_decl_dat<double>(s, 1, "double", "b"));
  loop_handle h;
  op_par_loop(scale2, "x2", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(b, -1, OP_ID, 1, OP_WRITE));
  op_par_loop_fused(
      h, s,
      fuse_loop(scale2, "x2_fused",
                op_arg_dat1<double>(b, -1, OP_ID, 1, OP_READ),
                op_arg_dat1<double>(a, -1, OP_ID, 1, OP_WRITE)));
  a.get();
  b.get();
  EXPECT_EQ(a.sync().use_count(), 1);
  EXPECT_EQ(b.sync().use_count(), 1);
}

TEST_F(DataflowApiTest, ChainOrdersRawDependencies) {
  // b = 2a; c = 2b; d = 2c — the tree must serialise the chain.
  auto s = op_decl_set(500, "s");
  std::vector<double> init(500, 1.0);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  op_dat_df b(op_decl_dat<double>(s, 1, "double", "b"));
  op_dat_df c(op_decl_dat<double>(s, 1, "double", "c"));
  op_dat_df d(op_decl_dat<double>(s, 1, "double", "d"));
  op_par_loop(scale2, "x2", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(b, -1, OP_ID, 1, OP_WRITE));
  op_par_loop(scale2, "x2", s, op_arg_dat1<double>(b, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(c, -1, OP_ID, 1, OP_WRITE));
  op_par_loop(scale2, "x2", s, op_arg_dat1<double>(c, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(d, -1, OP_ID, 1, OP_WRITE));
  d.wait();
  for (const double v : d.dat().data<double>()) {
    ASSERT_EQ(v, 8.0);
  }
}

TEST_F(DataflowApiTest, WriteAfterReadIsOrdered) {
  // Loop 1 reads a (slowly); loop 2 overwrites a.  The WAR dependency
  // must delay loop 2 until loop 1's reads are done.
  auto s = op_decl_set(64, "s");
  std::vector<double> init(64, 7.0);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  op_dat_df sink(op_decl_dat<double>(s, 1, "double", "sink"));
  std::atomic<int> bad_reads{0};
  op_par_loop(
      [&bad_reads](const double* in, double* out) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (in[0] != 7.0) {
          bad_reads.fetch_add(1);
        }
        out[0] = in[0];
      },
      "slow_read", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
      op_arg_dat1<double>(sink, -1, OP_ID, 1, OP_WRITE));
  op_par_loop([](double* v) { v[0] = -1.0; }, "clobber", s,
              op_arg_dat1<double>(a, -1, OP_ID, 1, OP_WRITE));
  a.wait();
  sink.wait();
  EXPECT_EQ(bad_reads.load(), 0);
  for (const double v : a.dat().data<double>()) {
    ASSERT_EQ(v, -1.0);
  }
  for (const double v : sink.dat().data<double>()) {
    ASSERT_EQ(v, 7.0);
  }
}

TEST_F(DataflowApiTest, WriteAfterWriteIsOrdered) {
  // Two writers to the same dat (the res_calc/bres_calc situation):
  // the second must observe the first's increments.
  const int nedge = 100;
  auto edges = op_decl_set(nedge, "edges");
  auto nodes = op_decl_set(nedge + 1, "nodes");
  std::vector<int> table;
  for (int e = 0; e < nedge; ++e) {
    table.push_back(e);
    table.push_back(e + 1);
  }
  auto e2n = op_decl_map(edges, nodes, 2, table, "e2n");
  op_dat_df degree(op_decl_dat<double>(nodes, 1, "double", "degree"));
  for (int round = 0; round < 2; ++round) {
    op_par_loop(
        [](double* x, double* y) {
          x[0] += 1.0;
          y[0] += 1.0;
        },
        "count", edges, op_arg_dat1<double>(degree, 0, e2n, 1, OP_INC),
        op_arg_dat1<double>(degree, 1, e2n, 1, OP_INC));
  }
  degree.wait();
  auto dv = degree.dat().data<double>();
  for (int n = 1; n < nedge; ++n) {
    ASSERT_EQ(dv[static_cast<std::size_t>(n)], 4.0);
  }
}

TEST_F(DataflowApiTest, IndependentReadersOverlap) {
  // Two loops that only read the same dat get no mutual dependency:
  // both depend on the writer, not on each other.  We verify both
  // results are correct (overlap itself is unobservable determinism-
  // wise, but this exercises the reader bookkeeping path).
  auto s = op_decl_set(300, "s");
  std::vector<double> init(300, 3.0);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  op_dat_df r1(op_decl_dat<double>(s, 1, "double", "r1"));
  op_dat_df r2(op_decl_dat<double>(s, 1, "double", "r2"));
  op_par_loop(scale2, "x2", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(r1, -1, OP_ID, 1, OP_WRITE));
  op_par_loop([](const double* in, double* out) { out[0] = in[0] + 1.0; },
              "plus1", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
              op_arg_dat1<double>(r2, -1, OP_ID, 1, OP_WRITE));
  r1.wait();
  r2.wait();
  EXPECT_EQ(r1.dat().data<double>()[0], 6.0);
  EXPECT_EQ(r2.dat().data<double>()[0], 4.0);
}

TEST_F(DataflowApiTest, GlobalReductionThroughDataflow) {
  auto s = op_decl_set(1000, "s");
  std::vector<double> init(1000, 0.25);
  op_dat_df a(op_decl_dat<double>(s, 1, "double",
                                  std::span<const double>(init), "a"));
  double total = 0.0;
  auto f = op_par_loop([](const double* v, double* acc) { acc[0] += v[0]; },
                       "sum", s, op_arg_dat1<double>(a, -1, OP_ID, 1, OP_READ),
                       op_arg_gbl1<double>(&total, 1, OP_INC));
  f.wait();
  EXPECT_DOUBLE_EQ(total, 250.0);
}

TEST_F(DataflowApiTest, ReadyFutureAggregatesUses) {
  auto s = op_decl_set(100, "s");
  op_dat_df a(op_decl_dat<double>(s, 1, "double", "a"));
  op_par_loop([](double* v) { v[0] = 1.0; }, "w", s,
              op_arg_dat1<double>(a, -1, OP_ID, 1, OP_WRITE));
  auto f = a.ready_future();
  f.get();
  EXPECT_EQ(a.dat().data<double>()[0], 1.0);
}

TEST_F(DataflowApiTest, InvalidHandleRejected) {
  op_dat_df none;
  EXPECT_THROW(op_arg_dat1<double>(none, -1, OP_ID, 1, OP_READ),
               std::invalid_argument);
  EXPECT_NO_THROW(none.wait());  // waiting on nothing is a no-op
}

TEST_F(DataflowApiTest, DeepPipelineMatchesSequentialResult) {
  // data[t] = 2*data[t-1] alternating between two buffers, launched
  // entirely up front — the paper's Fig 14 pattern.
  auto s = op_decl_set(128, "s");
  std::vector<double> init(128, 1.0);
  op_dat_df ping(op_decl_dat<double>(s, 1, "double",
                                     std::span<const double>(init), "ping"));
  op_dat_df pong(op_decl_dat<double>(s, 1, "double", "pong"));
  constexpr int steps = 20;
  for (int t = 0; t < steps; ++t) {
    auto& src = (t % 2 == 0) ? ping : pong;
    auto& dst = (t % 2 == 0) ? pong : ping;
    op_par_loop(scale2, "x2", s,
                op_arg_dat1<double>(src, -1, OP_ID, 1, OP_READ),
                op_arg_dat1<double>(dst, -1, OP_ID, 1, OP_WRITE));
  }
  ping.wait();
  pong.wait();
  auto& last = (steps % 2 == 0) ? ping : pong;
  for (const double v : last.dat().data<double>()) {
    ASSERT_EQ(v, std::pow(2.0, steps));
  }
}

}  // namespace
