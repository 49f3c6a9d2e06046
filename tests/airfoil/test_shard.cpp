// The sharded Airfoil acceptance matrix: hpx_shard with N = 1, 2, 4
// shards must reproduce the seq oracle's q field BIT-FOR-BIT (the
// staged-increment scheme replays seq's accumulation order exactly),
// under every knob — halo depth 2, overlap disabled, simulated link
// latency.  Plus the chaos scenario (a throw in ONE shard's boundary
// loop heals through the failure ladder without perturbing any bit),
// service composition, and the per-shard profiling counters.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "op2/op2.hpp"

namespace {

using airfoil::generate_mesh;
using airfoil::make_sim;
using airfoil::mesh_params;
using airfoil::run_with_backend;

constexpr int kIters = 6;

mesh_params small_mesh() {
  mesh_params p;
  p.imax = 16;
  p.jmax = 8;
  return p;
}

struct field_result {
  std::vector<double> q;
  std::vector<double> rms;
};

/// One full solve under `cfg` (init → run → finalize), returning the
/// final q field and rms history.
field_result run_under(const op2::config& cfg, const std::string& backend) {
  op2::init(cfg);
  auto s = make_sim(generate_mesh(small_mesh()));
  const auto r = run_with_backend(s, kIters, backend);
  field_result out;
  const auto q = s.p_q.data<double>();
  out.q.assign(q.begin(), q.end());
  out.rms = r.rms_history;
  op2::finalize();
  return out;
}

const field_result& seq_reference() {
  static const field_result ref =
      run_under(op2::make_config("seq", 1, 32), "seq");
  return ref;
}

/// q must agree bit-for-bit; rms is a cross-shard sum (reassociated by
/// construction), so it gets a tight NEAR instead.
void expect_matches_seq(const field_result& got, const std::string& what) {
  const auto& ref = seq_reference();
  ASSERT_EQ(got.q.size(), ref.q.size()) << what;
  for (std::size_t i = 0; i < ref.q.size(); ++i) {
    ASSERT_EQ(got.q[i], ref.q[i]) << what << " q entry " << i;
  }
  ASSERT_EQ(got.rms.size(), ref.rms.size()) << what;
  for (std::size_t i = 0; i < ref.rms.size(); ++i) {
    EXPECT_NEAR(got.rms[i], ref.rms[i],
                1e-12 * std::max(1.0, std::fabs(ref.rms[i])))
        << what << " iteration " << i;
  }
}

op2::config shard_config(int nshards) {
  auto cfg = op2::make_config("hpx_shard", 4, 32);
  cfg.shards = nshards;
  return cfg;
}

class ShardMatrix : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override {
    op2::fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_P(ShardMatrix, BitIdenticalToSeq) {
  const auto got = run_under(shard_config(GetParam()), "hpx_shard");
  expect_matches_seq(got, "shards=" + std::to_string(GetParam()));
}

TEST_P(ShardMatrix, BitIdenticalWithHaloDepthTwo) {
  auto cfg = shard_config(GetParam());
  cfg.halo_depth = 2;
  const auto got = run_under(cfg, "hpx_shard");
  expect_matches_seq(got, "depth2/shards=" + std::to_string(GetParam()));
}

TEST_P(ShardMatrix, BitIdenticalWithOverlapDisabled) {
  // The fenced baseline: exchange completes before the interior span is
  // even dispatched.  Scheduling only — the physics must not move.
  auto cfg = shard_config(GetParam());
  cfg.shard_overlap = false;
  const auto got = run_under(cfg, "hpx_shard");
  expect_matches_seq(got, "fenced/shards=" + std::to_string(GetParam()));
}

TEST_P(ShardMatrix, BitIdenticalWithSimulatedLinkLatency) {
  // A visible per-round exchange delay forces real overlap (boundary
  // loops genuinely wait on the fence) without changing any bit.
  auto cfg = shard_config(GetParam());
  cfg.exchange_delay_us = 300;
  const auto got = run_under(cfg, "hpx_shard");
  expect_matches_seq(got, "delayed/shards=" + std::to_string(GetParam()));
}

std::string shard_count_name(const ::testing::TestParamInfo<int>& p) {
  return "N" + std::to_string(p.param);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardMatrix, ::testing::Values(1, 2, 4),
                         shard_count_name);

// --- driver entry points ----------------------------------------------

class ShardSim : public ::testing::Test {
 protected:
  void SetUp() override { op2::init(op2::make_config("seq", 1, 32)); }
  void TearDown() override { op2::finalize(); }
};

TEST_F(ShardSim, ZeroShardsRejected) {
  EXPECT_THROW(airfoil::make_shard_sim(generate_mesh(small_mesh()), 0),
               std::invalid_argument);
}

TEST_F(ShardSim, ScatterRejectsAWronglySizedField) {
  const auto mesh = generate_mesh(small_mesh());
  auto d = airfoil::make_shard_sim(mesh, 2);
  const std::vector<double> q(
      static_cast<std::size_t>(mesh.set("cells").size()) * 4 - 1, 1.0);
  EXPECT_THROW(airfoil::scatter_q(d, q), std::invalid_argument);
}

TEST_F(ShardSim, GatherOfScatterReturnsTheFieldBitForBit) {
  const auto mesh = generate_mesh(small_mesh());
  std::vector<double> q(
      static_cast<std::size_t>(mesh.set("cells").size()) * 4);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = std::sin(0.37 * static_cast<double>(i)) / 3.0;
  }
  for (const int nshards : {1, 3}) {
    auto d = airfoil::make_shard_sim(mesh, nshards);
    airfoil::scatter_q(d, q);
    const auto back = airfoil::gather_q(d);
    ASSERT_EQ(back.size(), q.size()) << nshards << " shards";
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(back[i], q[i]) << nshards << " shards, entry " << i;
    }
  }
}

// --- chaos ------------------------------------------------------------

class ShardChaos : public ::testing::Test {
 protected:
  void TearDown() override {
    op2::fault_injector::clear();
    op2::profiling::enable(false);
    op2::profiling::reset();
    op2::finalize();
  }
};

TEST_F(ShardChaos, ThrowInOneShardsBoundaryLoopHealsBitExactly) {
  // The shard-qualified spec targets ONLY shard 1's boundary residual
  // loop; rollback + retry absorbs the throw inside that shard while
  // the other shards' work is untouched — the healed field is still
  // bit-identical to seq, not merely close.
  auto cfg = shard_config(2);
  cfg.on_failure.max_retries = 2;
  cfg.on_failure.fallback_to_seq = true;
  op2::init(cfg);
  op2::fault_injector::configure("bres_calc@s1:throw:at=1");
  auto s = make_sim(generate_mesh(small_mesh()));
  const auto r = run_with_backend(s, kIters, "hpx_shard");
  EXPECT_EQ(op2::fault_injector::fired_count(), 1);
  field_result got;
  const auto q = s.p_q.data<double>();
  got.q.assign(q.begin(), q.end());
  got.rms = r.rms_history;
  expect_matches_seq(got, "chaos/bres_calc@s1");
}

TEST_F(ShardChaos, ShardQualifiedSpecLeavesOtherShardsUnarmed) {
  // A spec for a shard id that the 2-shard run never creates must
  // never fire — the run completes clean.
  auto cfg = shard_config(2);
  cfg.on_failure.max_retries = 1;
  op2::init(cfg);
  op2::fault_injector::configure("res_calc@s7:throw:at=1");
  auto s = make_sim(generate_mesh(small_mesh()));
  const auto r = run_with_backend(s, kIters, "hpx_shard");
  EXPECT_EQ(op2::fault_injector::fired_count(), 0);
  field_result got;
  const auto q = s.p_q.data<double>();
  got.q.assign(q.begin(), q.end());
  got.rms = r.rms_history;
  expect_matches_seq(got, "chaos/unarmed");
}

// --- service composition ----------------------------------------------

TEST_F(ShardChaos, TwoTenantsRunShardedJobsToTheSameBits) {
  namespace svc = op2::service;
  op2::init(shard_config(2));
  std::vector<double> q_blue, q_green;
  {  // the service must be gone before seq_reference() re-inits op2
    svc::service_config scfg;
    scfg.workers = 2;
    svc::job_service service(scfg);
    for (const char* name : {"blue", "green"}) {
      svc::tenant_options t;
      t.name = name;
      service.register_tenant(t);
    }
    auto run_job = [](std::vector<double>& q_out) {
      auto s = make_sim(generate_mesh(small_mesh()));
      run_with_backend(s, kIters, "hpx_shard");
      const auto q = s.p_q.data<double>();
      q_out.assign(q.begin(), q.end());
    };
    auto hb = service.submit(
        "blue", [&](const svc::job_context&) { run_job(q_blue); });
    auto hg = service.submit(
        "green", [&](const svc::job_context&) { run_job(q_green); });
    EXPECT_EQ(hb.get().status, svc::job_status::completed);
    EXPECT_EQ(hg.get().status, svc::job_status::completed);
  }
  const auto& ref = seq_reference();
  ASSERT_EQ(q_blue.size(), ref.q.size());
  ASSERT_EQ(q_green.size(), ref.q.size());
  for (std::size_t i = 0; i < ref.q.size(); ++i) {
    ASSERT_EQ(q_blue[i], ref.q[i]) << "blue entry " << i;
    ASSERT_EQ(q_green[i], ref.q[i]) << "green entry " << i;
  }
}

// --- profiling --------------------------------------------------------

TEST_F(ShardChaos, ProfilingShowsPerShardLoopsExchangesAndShape) {
  op2::init(shard_config(2));
  op2::profiling::enable(true);
  op2::profiling::reset();
  auto s = make_sim(generate_mesh(small_mesh()));
  run_with_backend(s, kIters, "hpx_shard");

  // Per-shard loop instances are profiled under their qualified names
  // and hit the prepared-loop replay path after the first invocation.
  const auto loops = op2::profiling::snapshot();
  for (const char* name : {"adt_calc@s0", "adt_calc@s1", "res_calc@s0"}) {
    const auto it = loops.find(name);
    ASSERT_NE(it, loops.end()) << name;
    EXPECT_EQ(it->second.invocations, 2u * kIters) << name;
    EXPECT_GE(it->second.replays, 1u) << name;
  }
  // The k=1 update fuses with the next iteration's save_soln into one
  // launch profiled under the aggregated name; only the k=0 updates and
  // the final iteration's k=1 update remain standalone.
  {
    const auto it = loops.find("update@s1");
    ASSERT_NE(it, loops.end());
    EXPECT_EQ(it->second.invocations, static_cast<std::uint64_t>(kIters + 1));
    EXPECT_GE(it->second.replays, 1u);
  }
  {
    const auto it = loops.find("update@s1+save_soln@s1");
    ASSERT_NE(it, loops.end());
    EXPECT_EQ(it->second.invocations, static_cast<std::uint64_t>(kIters - 1));
    EXPECT_GE(it->second.replays, 1u);
    EXPECT_EQ(it->second.fused_loops, 2u);
    EXPECT_GT(it->second.fused_group, 0u);
  }

  // The shard table: one row per shard carrying the owner/halo shape
  // and one exchange record per round (two rounds per iteration).
  const auto shards = op2::profiling::shard_snapshot();
  ASSERT_EQ(shards.size(), 2u);
  std::uint64_t owned_total = 0;
  for (const auto& [id, prof] : shards) {
    EXPECT_EQ(prof.halo_depth, 1) << "shard " << id;
    EXPECT_GT(prof.owned, 0u) << "shard " << id;
    EXPECT_GT(prof.halo, 0u) << "shard " << id;
    EXPECT_EQ(prof.exchanges, static_cast<std::uint64_t>(2 * kIters))
        << "shard " << id;
    EXPECT_GE(prof.exchange_seconds, 0.0);
    EXPECT_GE(prof.overlap_seconds, 0.0);
    owned_total += prof.owned;
  }
  const int ncell = generate_mesh(small_mesh()).set("cells").size();
  EXPECT_EQ(owned_total, static_cast<std::uint64_t>(ncell));
}

}  // namespace
