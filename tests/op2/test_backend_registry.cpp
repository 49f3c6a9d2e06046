// backend_registry contract tests, plus the proof that a sixth backend
// drops in from a single translation unit: `seq_colored` below is
// registered by a namespace-scope registrar in THIS test file, with
// zero edits to op2/codegen/airfoil/simsched core files, and executes
// real op_par_loop work.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "op2/op2.hpp"

namespace {

using op2::backend_registry;
using op2::loop_executor;

// --- the demo sixth backend: one TU, no core-file edits --------------

/// Follows the plan's colour schedule like the parallel backends, but
/// runs the blocks sequentially — a deterministic colour-order oracle.
class seq_colored_executor final : public loop_executor {
 public:
  std::string_view name() const noexcept override { return "seq_colored"; }

  op2::executor_caps capabilities() const noexcept override {
    return op2::executor_caps{};
  }

  void run_direct(const op2::loop_launch& loop) override {
    run_colored(loop);
  }

  void run_indirect(const op2::loop_launch& loop) override {
    run_colored(loop);
  }

 private:
  static void run_colored(const op2::loop_launch& loop) {
    for (const auto& blocks : loop.plan->color_blocks) {
      for (const int b : blocks) {
        loop.run_block(b);
      }
    }
  }
};

backend_registry::registrar seq_colored_reg{
    "seq_colored", [] { return std::make_unique<seq_colored_executor>(); }};

// ---------------------------------------------------------------------

TEST(BackendRegistry, BuiltinsRegisteredInPaperOrder) {
  const auto names = backend_registry::names();
  const std::vector<std::string> builtins = {
      "seq", "forkjoin", "hpx_foreach", "hpx_async", "hpx_dataflow"};
  // All five built-ins present, in relative registration order (other
  // backends — like this file's seq_colored — may interleave).
  std::vector<std::string> found;
  for (const auto& n : names) {
    if (std::find(builtins.begin(), builtins.end(), n) != builtins.end()) {
      found.push_back(n);
    }
  }
  EXPECT_EQ(found, builtins);
}

TEST(BackendRegistry, ContainsAndAliases) {
  EXPECT_TRUE(backend_registry::contains("seq"));
  EXPECT_TRUE(backend_registry::contains("foreach"));
  EXPECT_TRUE(backend_registry::contains("async"));
  EXPECT_TRUE(backend_registry::contains("dataflow"));
  EXPECT_FALSE(backend_registry::contains("cuda"));
  EXPECT_EQ(backend_registry::resolve("foreach"), "hpx_foreach");
  EXPECT_EQ(backend_registry::resolve("async"), "hpx_async");
  EXPECT_EQ(backend_registry::resolve("dataflow"), "hpx_dataflow");
  EXPECT_EQ(backend_registry::resolve("seq"), "seq");
}

TEST(BackendRegistry, UnknownNameThrowsListingAvailable) {
  try {
    backend_registry::resolve("cuda");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend 'cuda'"), std::string::npos);
    EXPECT_NE(what.find("available:"), std::string::npos);
    EXPECT_NE(what.find("hpx_dataflow"), std::string::npos);
  }
  EXPECT_THROW(backend_registry::make("nope"), std::invalid_argument);
  EXPECT_THROW(backend_registry::shared("nope"), std::invalid_argument);
  EXPECT_THROW(op2::make_config("nope"), std::invalid_argument);
}

TEST(BackendRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(backend_registry::register_backend(
                   "seq", [] { return backend_registry::make("seq"); }),
               std::invalid_argument);
  // Aliases collide with names and other aliases too.
  EXPECT_THROW(backend_registry::register_backend(
                   "fresh_name_alias_clash",
                   [] { return backend_registry::make("seq"); }, {"foreach"}),
               std::invalid_argument);
}

TEST(BackendRegistry, EmptyNameOrNullFactoryThrows) {
  EXPECT_THROW(backend_registry::register_backend(
                   "", [] { return backend_registry::make("seq"); }),
               std::invalid_argument);
  EXPECT_THROW(
      backend_registry::register_backend("null_factory", nullptr),
      std::invalid_argument);
}

TEST(BackendRegistry, MakeReturnsFreshInstancesSharedIsStable) {
  auto a = backend_registry::make("seq");
  auto b = backend_registry::make("seq");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "seq");
  EXPECT_EQ(&backend_registry::shared("seq"), &backend_registry::shared("seq"));
  // Aliases resolve to the same shared instance as the canonical name.
  EXPECT_EQ(&backend_registry::shared("dataflow"),
            &backend_registry::shared("hpx_dataflow"));
}

TEST(BackendRegistry, CapabilitiesMatchTheExecutionModel) {
  EXPECT_FALSE(backend_registry::shared("seq").capabilities().asynchronous);
  EXPECT_TRUE(
      backend_registry::shared("forkjoin").capabilities().needs_forkjoin_team);
  EXPECT_TRUE(
      backend_registry::shared("hpx_foreach").capabilities().needs_hpx_runtime);
  EXPECT_TRUE(
      backend_registry::shared("hpx_async").capabilities().asynchronous);
  const auto df = backend_registry::shared("hpx_dataflow").capabilities();
  EXPECT_TRUE(df.asynchronous);
  EXPECT_TRUE(df.dataflow_api);
  EXPECT_STREQ(df.sim_method, "hpx_dataflow");
}

TEST(BackendRegistry, MakeConfigCanonicalisesAndFillsEnum) {
  const auto cfg = op2::make_config("dataflow", 3, 64, 8);
  EXPECT_EQ(cfg.backend_name, "hpx_dataflow");
  EXPECT_EQ(cfg.bk, op2::backend::hpx_dataflow);
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(cfg.block_size, 64);
  EXPECT_EQ(cfg.static_chunk, 8u);
}

TEST(BackendRegistry, DescribeChunkSpecs) {
  EXPECT_EQ(op2::describe(hpxlite::auto_chunk_size{}), "auto");
  EXPECT_EQ(op2::describe(hpxlite::static_chunk_size(16)), "static:16");
  EXPECT_EQ(op2::describe(hpxlite::dynamic_chunk_size(4)), "dynamic:4");
  EXPECT_EQ(op2::describe(hpxlite::guided_chunk_size(2)), "guided:2");
}

TEST(BackendRegistry, ParseChunkSpecGrammar) {
  EXPECT_TRUE(std::holds_alternative<hpxlite::auto_chunk_size>(
      op2::parse_chunk_spec("auto")));
  const auto st = op2::parse_chunk_spec("static:16");
  EXPECT_EQ(std::get<hpxlite::static_chunk_size>(st).size, 16u);
  const auto dy = op2::parse_chunk_spec("dynamic:4");
  EXPECT_EQ(std::get<hpxlite::dynamic_chunk_size>(dy).size, 4u);
  const auto gu = op2::parse_chunk_spec("guided:2");
  EXPECT_EQ(std::get<hpxlite::guided_chunk_size>(gu).min_size, 2u);

  for (const char* bad : {"", "bogus", "static", "static:", "static:0",
                          "static:x", "static:4x", "dynamic:-1", "auto:1",
                          "adaptive"}) {
    EXPECT_THROW(op2::parse_chunk_spec(bad), std::invalid_argument) << bad;
  }
}

// The sixth backend actually executes op_par_loop work, selected purely
// by its registry name — proving extension needs no core-file changes.
TEST(BackendRegistry, SixthBackendRunsRealLoops) {
  ASSERT_TRUE(backend_registry::contains("seq_colored"));
  const auto names = backend_registry::names();
  EXPECT_NE(std::find(names.begin(), names.end(), "seq_colored"),
            names.end());

  op2::init(op2::make_config("seq_colored", 1, 8));
  EXPECT_EQ(op2::current_backend_name(), "seq_colored");
  EXPECT_EQ(op2::current_executor().name(), "seq_colored");

  auto cells = op2::op_decl_set(64, "cells");
  std::vector<int> init(64);
  std::iota(init.begin(), init.end(), 0);
  auto p_in = op2::op_decl_dat<int>(cells, 1, "int",
                                    std::span<const int>(init), "in");
  auto p_out = op2::op_decl_dat<int>(cells, 1, "int", "out");
  int total = 0;
  op2::op_par_loop(
      [](const int* in, int* out, int* acc) {
        out[0] = 2 * in[0];
        acc[0] += in[0];
      },
      "double_up", cells,
      op2::op_arg_dat<int>(p_in, -1, op2::OP_ID, 1, op2::OP_READ),
      op2::op_arg_dat<int>(p_out, -1, op2::OP_ID, 1, op2::OP_WRITE),
      op2::op_arg_gbl<int>(&total, 1, op2::OP_INC));

  EXPECT_EQ(total, 64 * 63 / 2);
  EXPECT_EQ(p_out.data<int>()[10], 20);
  op2::finalize();
}

}  // namespace
