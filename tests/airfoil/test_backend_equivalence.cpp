// Registry-driven equivalence: iterate op2::backend_registry::names()
// (so a newly registered backend is covered automatically) and check
// every backend reproduces the Airfoil flow field on a tiny mesh.
//
// Two tiers of agreement:
//   - flow field (solution checksum): BIT-IDENTICAL across all
//     plan-following backends and thread counts — colouring fixes the
//     order of indirect increments, so q is schedule-independent; the
//     raw `seq` oracle iterates in element order instead and is only
//     required to match to rounding.
//   - rms residuals: global reductions merge block-private buffers in
//     thread-completion order, so parallel runs may differ from the
//     oracle by rounding only.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"

namespace {

using airfoil::generate_mesh;
using airfoil::make_sim;
using airfoil::mesh_params;
using airfoil::run_result;
using airfoil::run_with_backend;
using airfoil::solution_checksum;

constexpr int kIters = 8;

mesh_params tiny() {
  mesh_params p;
  p.imax = 24;
  p.jmax = 8;
  return p;
}

struct outcome {
  run_result result;
  double checksum = 0.0;
};

outcome run_backend(const std::string& name, unsigned threads) {
  op2::init(op2::make_config(name, threads, 32));
  auto s = make_sim(generate_mesh(tiny()));
  outcome o;
  o.result = run_with_backend(s, kIters, name);
  o.checksum = solution_checksum(s);
  op2::finalize();
  return o;
}

/// Sequential-oracle reference, computed once.
const outcome& seq_reference() {
  static const outcome ref = run_backend("seq", 1);
  return ref;
}

/// Plan-following reference for the bit-identity assertion.
const outcome& colored_reference() {
  static const outcome ref = run_backend("forkjoin", 1);
  return ref;
}

class BackendEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendEquivalence, MatchesOracleOnTinyMesh) {
  const std::string name = GetParam();
  const auto& oracle = seq_reference();
  for (const unsigned threads : {1u, 4u}) {
    const auto got = run_backend(name, threads);
    ASSERT_EQ(got.result.rms_history.size(),
              oracle.result.rms_history.size())
        << name << " t" << threads;
    for (std::size_t i = 0; i < oracle.result.rms_history.size(); ++i) {
      const double ref = oracle.result.rms_history[i];
      EXPECT_NEAR(got.result.rms_history[i], ref,
                  1e-12 * std::max(1.0, std::fabs(ref)))
          << name << " t" << threads << " iteration " << i;
    }
    if (name == "seq") {
      EXPECT_EQ(got.checksum, oracle.checksum);
    } else {
      // Colouring makes the flow field schedule-independent: every
      // plan-following backend must agree to the last bit, at every
      // thread count.
      EXPECT_EQ(got.checksum, colored_reference().checksum)
          << name << " t" << threads;
      EXPECT_NEAR(got.checksum, oracle.checksum,
                  1e-9 * std::fabs(oracle.checksum))
          << name << " t" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendEquivalence,
    ::testing::ValuesIn(op2::backend_registry::names()),
    [](const ::testing::TestParamInfo<std::string>& pinfo) {
      return pinfo.param;
    });

// --- chunker x backend smoke matrix -----------------------------------
//
// Every chunk_spec the config grammar can express, under every
// registered backend: the grain decision partitions work, it must
// never change what the flow field converges to.  Backends that ignore
// the chunk spec (seq) are included deliberately — the config must be
// accepted and harmless there too.

struct chunker_backend_param {
  std::string backend;
  std::string chunker;
};

// Without this gtest prints the raw struct bytes (heap pointers
// included) into the test names, which then change from run to run.
void PrintTo(const chunker_backend_param& p, std::ostream* os) {
  *os << p.backend << "/" << p.chunker;
}

class ChunkerBackendMatrix
    : public ::testing::TestWithParam<chunker_backend_param> {};

TEST_P(ChunkerBackendMatrix, FlowFieldIndependentOfChunker) {
  const auto& p = GetParam();
  auto cfg = op2::make_config(p.backend, 2, 32);
  cfg.chunker = p.chunker;
  op2::init(cfg);
  auto s = make_sim(generate_mesh(tiny()));
  const auto result = run_with_backend(s, kIters, p.backend);
  const double checksum = solution_checksum(s);
  op2::finalize();

  const auto& oracle = seq_reference();
  ASSERT_EQ(result.rms_history.size(), oracle.result.rms_history.size());
  for (std::size_t i = 0; i < oracle.result.rms_history.size(); ++i) {
    const double ref = oracle.result.rms_history[i];
    EXPECT_NEAR(result.rms_history[i], ref,
                1e-12 * std::max(1.0, std::fabs(ref)))
        << p.backend << " chunker=" << p.chunker << " iteration " << i;
  }
  if (p.backend == "seq") {
    EXPECT_EQ(checksum, oracle.checksum);
  } else {
    EXPECT_EQ(checksum, colored_reference().checksum)
        << p.backend << " chunker=" << p.chunker;
  }
}

std::vector<chunker_backend_param> chunker_backend_cases() {
  std::vector<chunker_backend_param> cases;
  for (const auto& backend : op2::backend_registry::names()) {
    for (const char* chunker :
         {"auto", "static:4", "dynamic:8", "guided:2"}) {
      cases.push_back({backend, chunker});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllChunkers, ChunkerBackendMatrix,
    ::testing::ValuesIn(chunker_backend_cases()),
    [](const ::testing::TestParamInfo<chunker_backend_param>& pinfo) {
      std::string name = pinfo.param.backend + "_" + pinfo.param.chunker;
      for (char& c : name) {
        if (c == ':') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
