// The fused prepared-loop runtime: bit-exactness of the per-element
// interleave against separate member loops, reduction merge order,
// time-step tiling against the step-major reference, legality throws,
// the OP2_FUSE=off control arm, replay/rebind behaviour and fusion
// under a manually clamped shard window.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "op2/op2.hpp"
#include "op2/shard.hpp"

namespace {

constexpr int kN = 512;

void k_scale(const double* a, double* b) { b[0] = 0.25 * a[0] + 0.75 * b[0]; }
void k_accum(const double* b, double* c) { c[0] = c[0] + 0.5 * b[0]; }
void k_close(const double* c, double* b) { b[0] = b[0] + 0.125 * c[0]; }
void k_sum(const double* b, double* acc) { acc[0] += b[0]; }

struct chain {
  op2::op_set elems;
  op2::op_dat d_a, d_b, d_c;
};

chain make_chain(int n = kN) {
  chain s;
  s.elems = op2::op_decl_set(n, "elems");
  std::vector<double> a(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = 1.0 + 1e-3 * (i % 97);
  }
  std::vector<double> b(static_cast<std::size_t>(n), 0.5);
  std::vector<double> c(static_cast<std::size_t>(n), 0.0);
  s.d_a = op2::op_decl_dat<double>(s.elems, 1, "double",
                                   std::span<const double>(a), "a");
  s.d_b = op2::op_decl_dat<double>(s.elems, 1, "double",
                                   std::span<const double>(b), "b");
  s.d_c = op2::op_decl_dat<double>(s.elems, 1, "double",
                                   std::span<const double>(c), "c");
  return s;
}

/// The step-major reference: the member loops issued separately,
/// `steps` times over.
void run_reference(chain& s, int steps) {
  for (int step = 0; step < steps; ++step) {
    op2::op_par_loop(k_scale, "k_scale", s.elems,
        op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, 1, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_RW));
    op2::op_par_loop(k_accum, "k_accum", s.elems,
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, 1, op2::OP_RW));
    op2::op_par_loop(k_close, "k_close", s.elems,
        op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, 1, op2::OP_READ),
        op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_RW));
  }
}

void run_fused_chain(chain& s, op2::fused_handle& h, int steps) {
  op2::op_par_loop_fused_steps(h, s.elems, steps,
      op2::fuse_loop(k_scale, "k_scale",
          op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, 1, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_RW)),
      op2::fuse_loop(k_accum, "k_accum",
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, 1, op2::OP_RW)),
      op2::fuse_loop(k_close, "k_close",
          op2::op_arg_dat<double>(s.d_c, -1, op2::OP_ID, 1, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_RW)));
}

void expect_same_bits(chain& got, chain& want, const std::string& what) {
  const auto gb = got.d_b.data<double>();
  const auto wb = want.d_b.data<double>();
  const auto gc = got.d_c.data<double>();
  const auto wc = want.d_c.data<double>();
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(gb[i], wb[i]) << what << " b[" << i << "]";
    ASSERT_EQ(gc[i], wc[i]) << what << " c[" << i << "]";
  }
}

class FusedLoop : public ::testing::Test {
 protected:
  void TearDown() override { op2::finalize(); }
};

TEST_F(FusedLoop, InterleaveMatchesSeparateLoopsBitwise) {
  op2::init(op2::make_config("seq", 1, 64));
  auto ref = make_chain();
  run_reference(ref, 1);
  auto got = make_chain();
  static op2::fused_handle h;
  run_fused_chain(got, h, 1);
  expect_same_bits(got, ref, "fused vs separate");
}

TEST_F(FusedLoop, MultiStepTiledMatchesStepMajorReference) {
  op2::init(op2::make_config("seq", 1, 64));
  auto ref = make_chain();
  run_reference(ref, 5);
  auto cfg = op2::make_config("seq", 1, 64);
  cfg.tile = "64";  // 8 tiles over 512 elements
  op2::finalize();
  op2::init(cfg);
  auto got = make_chain();
  static op2::fused_handle h;
  run_fused_chain(got, h, 5);
  expect_same_bits(got, ref, "tiled(64) x5 vs step-major");
}

TEST_F(FusedLoop, FusedReplayStaysBitExact) {
  // Second and later invocations take the prepared replay path
  // (rebind + dispatch); the bits must not move.
  op2::init(op2::make_config("seq", 1, 64));
  auto ref = make_chain();
  run_reference(ref, 3);
  auto got = make_chain();
  static op2::fused_handle h;
  for (int i = 0; i < 3; ++i) {
    run_fused_chain(got, h, 1);  // same dats: replay after the first
  }
  expect_same_bits(got, ref, "replayed fused");
}

TEST_F(FusedLoop, ReductionMergesInMemberOrder) {
  op2::init(op2::make_config("seq", 1, 64));
  auto s = make_chain();
  double fused_sum = 0.0;
  static op2::fused_handle h;
  op2::op_par_loop_fused(h, s.elems,
      op2::fuse_loop(k_scale, "k_scale",
          op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, 1, op2::OP_READ),
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_RW)),
      op2::fuse_loop(k_sum, "k_sum",
          op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
          op2::op_arg_gbl<double>(&fused_sum, 1, op2::OP_INC)));

  auto r = make_chain();
  double ref_sum = 0.0;
  op2::op_par_loop(k_scale, "k_scale", r.elems,
      op2::op_arg_dat<double>(r.d_a, -1, op2::OP_ID, 1, op2::OP_READ),
      op2::op_arg_dat<double>(r.d_b, -1, op2::OP_ID, 1, op2::OP_RW));
  op2::op_par_loop(k_sum, "k_sum", r.elems,
      op2::op_arg_dat<double>(r.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
      op2::op_arg_gbl<double>(&ref_sum, 1, op2::OP_INC));
  EXPECT_EQ(fused_sum, ref_sum);  // bitwise, not NEAR
}

TEST_F(FusedLoop, FuseOffRunsMembersBitIdentically) {
  auto cfg = op2::make_config("seq", 1, 64);
  cfg.fuse = false;  // OP2_FUSE=off: the control arm
  op2::init(cfg);
  auto ref = make_chain();
  run_reference(ref, 2);
  auto got = make_chain();
  static op2::fused_handle h;
  run_fused_chain(got, h, 2);
  expect_same_bits(got, ref, "OP2_FUSE=off");
}

TEST_F(FusedLoop, IndirectMemberThrows) {
  op2::init(op2::make_config("seq", 1, 64));
  auto s = make_chain();
  std::vector<int> idx(static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    idx[static_cast<std::size_t>(i)] = (i + 1) % kN;
  }
  auto map = op2::op_decl_map(s.elems, s.elems, 1,
                              std::span<const int>(idx), "next");
  static op2::fused_handle h;
  EXPECT_THROW(
      op2::op_par_loop_fused(h, s.elems,
          op2::fuse_loop(k_scale, "k_scale",
              op2::op_arg_dat<double>(s.d_a, 0, map, 1, op2::OP_READ),
              op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1,
                                      op2::OP_RW))),
      std::invalid_argument);
}

TEST_F(FusedLoop, HazardousMemberListThrowsWithThePlan) {
  // k_sum reduces into `total`; a second member reading it mid-group
  // is the planner's reduced-global hazard, surfaced at capture.
  op2::init(op2::make_config("seq", 1, 64));
  auto s = make_chain();
  double total = 0.0;
  static op2::fused_handle h;
  try {
    op2::op_par_loop_fused(h, s.elems,
        op2::fuse_loop(k_sum, "k_sum",
            op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
            op2::op_arg_gbl<double>(&total, 1, op2::OP_INC)),
        op2::fuse_loop(k_sum, "k_sum2",
            op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1, op2::OP_READ),
            op2::op_arg_gbl<double>(&total, 1, op2::OP_INC)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fusion plan"), std::string::npos)
        << e.what();
  }
}

TEST_F(FusedLoop, TilingAReductionChainThrows) {
  op2::init(op2::make_config("seq", 1, 64));
  auto s = make_chain();
  double total = 0.0;
  static op2::fused_handle h;
  EXPECT_THROW(
      op2::op_par_loop_fused_steps(h, s.elems, 2,
          op2::fuse_loop(k_scale, "k_scale",
              op2::op_arg_dat<double>(s.d_a, -1, op2::OP_ID, 1,
                                      op2::OP_READ),
              op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1,
                                      op2::OP_RW)),
          op2::fuse_loop(k_sum, "k_sum",
              op2::op_arg_dat<double>(s.d_b, -1, op2::OP_ID, 1,
                                      op2::OP_READ),
              op2::op_arg_gbl<double>(&total, 1, op2::OP_INC))),
      std::invalid_argument);
}

TEST_F(FusedLoop, TileSpecGrammar) {
  EXPECT_EQ(op2::parse_tile_spec(""), 0);
  EXPECT_EQ(op2::parse_tile_spec("off"), 0);
  EXPECT_THROW(op2::parse_tile_spec("auto"), std::invalid_argument);
  EXPECT_EQ(op2::parse_tile_spec("4096"), 4096);
  EXPECT_THROW(op2::parse_tile_spec("0"), std::invalid_argument);
  EXPECT_THROW(op2::parse_tile_spec("-3"), std::invalid_argument);
  EXPECT_THROW(op2::parse_tile_spec("huge"), std::invalid_argument);
}

TEST_F(FusedLoop, InvalidateForcesRecapture) {
  op2::init(op2::make_config("seq", 1, 64));
  op2::profiling::enable(true);
  op2::profiling::reset();
  auto s = make_chain();
  static op2::fused_handle h;
  run_fused_chain(s, h, 1);
  h.invalidate();
  run_fused_chain(s, h, 1);  // re-captures, must not crash or drift
  const auto loops = op2::profiling::snapshot();
  const auto it = loops.find("k_scale+k_accum+k_close");
  ASSERT_NE(it, loops.end());
  EXPECT_EQ(it->second.invocations, 2u);
  EXPECT_EQ(it->second.replays, 0u);  // both invocations were captures
  EXPECT_EQ(it->second.fused_loops, 3u);
  op2::profiling::enable(false);
  op2::profiling::reset();
}

TEST_F(FusedLoop, FusedUnderAClampedShardWindowMatchesManualSpans) {
  // A fused launch issued inside an active shard_scope must clamp to
  // the window (iterate_end), exactly like unfused loops do.
  op2::init(op2::make_config("seq", 1, 64));
  auto ref = make_chain();
  {  // reference: members run separately under the same clamp
    static op2::shard_fence fence_ref;
    fence_ref.arm();
    fence_ref.complete();
    op2::shard_context ctx;
    ctx.active = true;
    ctx.shard = 0;
    ctx.interior_end = kN / 2;
    ctx.iterate_end = kN / 2;
    ctx.fence = &fence_ref;
    op2::shard_scope scope(ctx);
    run_reference(ref, 1);
  }
  auto got = make_chain();
  {
    static op2::shard_fence fence_got;
    fence_got.arm();
    fence_got.complete();
    op2::shard_context ctx;
    ctx.active = true;
    ctx.shard = 0;
    ctx.interior_end = kN / 2;
    ctx.iterate_end = kN / 2;
    ctx.fence = &fence_got;
    op2::shard_scope scope(ctx);
    static op2::fused_handle h;
    run_fused_chain(got, h, 1);
  }
  // Clamped half updated identically; the other half untouched (and
  // equal because both arms left it at its initial value).
  expect_same_bits(got, ref, "clamped window");
}

}  // namespace
