#include "op2/runtime.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "hpxlite/scheduler.hpp"
#include "hpxlite/watchdog.hpp"
#include "op2/backpressure.hpp"
#include "op2/fault.hpp"
#include "op2/loop_executor.hpp"
#include "op2/plan.hpp"
#include "op2/wire.hpp"

namespace op2 {

namespace detail {
// Defined in prepared_loop.cpp: drops every cached prepared-loop
// descriptor (and the dats/plans it pins).
void clear_prepared_caches();
}  // namespace detail

namespace {

config g_config;
std::string g_backend_name = "seq";
loop_executor* g_executor = nullptr;
std::unique_ptr<hpxlite::fork_join_team> g_team;

/// Enum value matching a canonical registry name, for legacy `.bk`
/// readers; built-in names only, anything else keeps the default.
backend enum_for(const std::string& name) {
  for (const backend b : {backend::seq, backend::forkjoin,
                          backend::hpx_foreach, backend::hpx_async,
                          backend::hpx_dataflow}) {
    if (name == to_string(b)) {
      return b;
    }
  }
  return backend::seq;
}

/// Applies the resilience environment knobs on top of `cfg`.
void apply_resilience_env(config& cfg) {
  fault_injector::configure_from_env();
  wire::wire_fault_injector::configure_from_env();
  if (const char* env = std::getenv("OP2_PREPARED");
      env != nullptr && *env != '\0') {
    const std::string v = env;
    if (v == "off" || v == "0" || v == "false") {
      cfg.prepared_loops = false;
    } else if (v == "on" || v == "1" || v == "true") {
      cfg.prepared_loops = true;
    } else {
      throw std::invalid_argument("op2: OP2_PREPARED must be on or off, got '" +
                                  v + "'");
    }
  }
  if (const char* env = std::getenv("OP2_FUSE");
      env != nullptr && *env != '\0') {
    const std::string v = env;
    if (v == "off" || v == "0" || v == "false") {
      cfg.fuse = false;
    } else if (v == "on" || v == "1" || v == "true") {
      cfg.fuse = true;
    } else {
      throw std::invalid_argument("op2: OP2_FUSE must be on or off, got '" +
                                  v + "'");
    }
  }
  if (const char* env = std::getenv("OP2_TILE");
      env != nullptr && *env != '\0') {
    parse_tile_spec(env);  // validate eagerly: fail at init, not launch
    cfg.tile = env;
  }
  if (const char* env = std::getenv("OP2_FAILURE_POLICY");
      env != nullptr && *env != '\0') {
    cfg.on_failure = parse_failure_policy(env);
  }
  if (const char* env = std::getenv("OP2_TUNER");
      env != nullptr && *env != '\0') {
    cfg.tuner = parse_tuner_mode(env);
  }
  if (const char* env = std::getenv("OP2_CHUNK");
      env != nullptr && *env != '\0') {
    parse_chunk_spec(env);  // validate eagerly: fail at init, not launch
    cfg.chunker = env;
  }
  if (const char* env = std::getenv("OP2_DATAFLOW_WINDOW");
      env != nullptr && *env != '\0') {
    long window = -1;
    try {
      window = std::stol(env);
    } catch (const std::exception&) {
      window = -1;
    }
    if (window < 0) {
      throw std::invalid_argument(
          std::string("op2: OP2_DATAFLOW_WINDOW must be a non-negative "
                      "future count (0 = unbounded), got '") + env + "'");
    }
    cfg.dataflow_window = static_cast<std::size_t>(window);
  }
  if (const char* env = std::getenv("OP2_WATCHDOG_MS");
      env != nullptr && *env != '\0') {
    long ms = 0;
    try {
      ms = std::stol(env);
    } catch (const std::exception&) {
      throw std::invalid_argument(
          std::string("op2: OP2_WATCHDOG_MS must be a non-negative "
                      "millisecond count, got '") + env + "'");
    }
    if (ms < 0) {
      throw std::invalid_argument(
          "op2: OP2_WATCHDOG_MS must be a non-negative millisecond count");
    }
    cfg.watchdog_ms = ms;
  }
  if (const char* env = std::getenv("OP2_SHARDS");
      env != nullptr && *env != '\0') {
    long n = -1;
    try {
      n = std::stol(env);
    } catch (const std::exception&) {
      n = -1;
    }
    if (n < 0) {
      throw std::invalid_argument(
          std::string("op2: OP2_SHARDS must be a non-negative shard count "
                      "(0 = one per worker thread), got '") + env + "'");
    }
    cfg.shards = static_cast<int>(n);
  }
  if (const char* env = std::getenv("OP2_HALO_DEPTH");
      env != nullptr && *env != '\0') {
    long d = 0;
    try {
      d = std::stol(env);
    } catch (const std::exception&) {
      d = 0;
    }
    if (d < 1) {
      throw std::invalid_argument(
          std::string("op2: OP2_HALO_DEPTH must be a positive adjacency "
                      "depth, got '") + env + "'");
    }
    cfg.halo_depth = static_cast<int>(d);
  }
  if (const char* env = std::getenv("OP2_SHARD_OVERLAP");
      env != nullptr && *env != '\0') {
    const std::string v = env;
    if (v == "off" || v == "0" || v == "false") {
      cfg.shard_overlap = false;
    } else if (v == "on" || v == "1" || v == "true") {
      cfg.shard_overlap = true;
    } else {
      throw std::invalid_argument(
          "op2: OP2_SHARD_OVERLAP must be on or off, got '" + v + "'");
    }
  }
  if (const char* env = std::getenv("OP2_EXCHANGE_DELAY_US");
      env != nullptr && *env != '\0') {
    long us = -1;
    try {
      us = std::stol(env);
    } catch (const std::exception&) {
      us = -1;
    }
    if (us < 0) {
      throw std::invalid_argument(
          std::string("op2: OP2_EXCHANGE_DELAY_US must be a non-negative "
                      "microsecond count, got '") + env + "'");
    }
    cfg.exchange_delay_us = static_cast<int>(us);
  }
  if (const char* env = std::getenv("OP2_WIRE");
      env != nullptr && *env != '\0') {
    const std::string v = env;
    if (v == "raw" || v == "reliable") {
      cfg.wire = v;
    } else {
      throw std::invalid_argument(
          "op2: OP2_WIRE must be raw or reliable, got '" + v + "'");
    }
  }
  if (const char* env = std::getenv("OP2_WIRE_TIMEOUT_MS");
      env != nullptr && *env != '\0') {
    long ms = 0;
    try {
      ms = std::stol(env);
    } catch (const std::exception&) {
      ms = 0;
    }
    if (ms < 1) {
      throw std::invalid_argument(
          std::string("op2: OP2_WIRE_TIMEOUT_MS must be a positive "
                      "millisecond count, got '") + env + "'");
    }
    cfg.wire_timeout_ms = static_cast<int>(ms);
  }
  if (const char* env = std::getenv("OP2_WIRE_RETRIES");
      env != nullptr && *env != '\0') {
    long n = -1;
    try {
      n = std::stol(env);
    } catch (const std::exception&) {
      n = -1;
    }
    if (n < 0 || n > 30) {
      throw std::invalid_argument(
          std::string("op2: OP2_WIRE_RETRIES must be a retransmit count "
                      "in [0, 30], got '") + env + "'");
    }
    cfg.wire_retries = static_cast<int>(n);
  }
}

/// Starts (or leaves stopped) the stall monitor for `cfg`.  Runs after
/// finalize() tore down the previous runtime — apply_resilience_env
/// only validates and records the knob, so a bad environment fails
/// init() before teardown, and the teardown's watchdog::stop() cannot
/// kill the monitor this config asks for.
void start_watchdog(const config& cfg) {
  if (cfg.watchdog_ms <= 0) {
    return;  // finalize() already stopped any previous monitor
  }
  if (cfg.on_failure.ladder) {
    // Supervise mode: a stall cancels the stuck activities' tokens
    // (the protected-run machinery then rolls back and degrades down
    // the ladder) instead of killing the process.  When nothing in
    // flight is supervisable, print the diagnostic and keep going —
    // the deadline path still bounds every protected loop.
    hpxlite::watchdog::start(
        std::chrono::milliseconds(cfg.watchdog_ms),
        [](const hpxlite::watchdog_report& report) {
          if (hpxlite::watchdog::cancel_stalled() == 0) {
            std::fputs(hpxlite::describe(report).c_str(), stderr);
            std::fflush(stderr);
          }
        });
  } else {
    hpxlite::watchdog::start(std::chrono::milliseconds(cfg.watchdog_ms));
  }
}

}  // namespace

failure_policy parse_failure_policy(const std::string& text) {
  failure_policy policy;
  if (text == "off" || text == "none") {
    return policy;
  }
  bool ladder_explicit = false;
  std::istringstream in(text);
  std::string kv;
  while (std::getline(in, kv, ',')) {
    const auto eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : kv.substr(eq + 1);
    if (key == "retries" && !value.empty()) {
      try {
        policy.max_retries = std::stoi(value);
      } catch (const std::exception&) {
        policy.max_retries = -1;
      }
      if (policy.max_retries < 0) {
        throw std::invalid_argument(
            "op2: bad OP2_FAILURE_POLICY '" + text + "': retries must be "
            "a non-negative integer");
      }
    } else if (key == "fallback") {
      if (value == "on" || value == "seq" || value == "1") {
        policy.fallback_to_seq = true;
      } else if (value == "off" || value == "0") {
        policy.fallback_to_seq = false;
      } else {
        throw std::invalid_argument(
            "op2: bad OP2_FAILURE_POLICY '" + text + "': fallback must be "
            "on or off");
      }
    } else if (key == "deadline" && !value.empty()) {
      try {
        policy.deadline_ms = std::stoi(value);
      } catch (const std::exception&) {
        policy.deadline_ms = -1;
      }
      if (policy.deadline_ms < 0) {
        throw std::invalid_argument(
            "op2: bad OP2_FAILURE_POLICY '" + text + "': deadline must be "
            "a non-negative millisecond count");
      }
    } else if (key == "ladder") {
      if (value == "on" || value == "1") {
        policy.ladder = true;
      } else if (value == "off" || value == "0") {
        policy.ladder = false;
      } else {
        throw std::invalid_argument(
            "op2: bad OP2_FAILURE_POLICY '" + text + "': ladder must be "
            "on or off");
      }
      ladder_explicit = true;
    } else {
      throw std::invalid_argument(
          "op2: bad OP2_FAILURE_POLICY '" + text + "' (grammar: off | "
          "retries=N[,fallback=on|off][,deadline=MS][,ladder=on|off])");
    }
  }
  // A deadline without an explicit ladder choice turns the ladder on:
  // cancelling an attempt is only useful if something re-runs the loop.
  if (policy.deadline_ms > 0 && !ladder_explicit) {
    policy.ladder = true;
  }
  return policy;
}

namespace {

/// Active per-thread policy override (null = use the global config).
thread_local const failure_policy* t_policy_override = nullptr;

}  // namespace

const failure_policy& effective_failure_policy() noexcept {
  return t_policy_override != nullptr ? *t_policy_override
                                      : g_config.on_failure;
}

failure_policy_scope::failure_policy_scope(const failure_policy& policy)
    : policy_(policy), prev_(t_policy_override) {
  t_policy_override = &policy_;
}

failure_policy_scope::~failure_policy_scope() { t_policy_override = prev_; }

tuner_mode parse_tuner_mode(const std::string& text) {
  if (text == "on" || text == "1" || text == "true") {
    return tuner_mode::on;
  }
  if (text == "off" || text == "0" || text == "false") {
    return tuner_mode::off;
  }
  throw std::invalid_argument("op2: OP2_TUNER must be on or off, got '" +
                              text + "'");
}

int parse_tile_spec(const std::string& text) {
  if (text.empty() || text == "off") {
    return 0;
  }
  long n = 0;
  try {
    std::size_t used = 0;
    n = std::stol(text, &used);
    if (used != text.size()) {
      n = 0;
    }
  } catch (const std::exception&) {
    n = 0;
  }
  if (n <= 0) {
    throw std::invalid_argument(
        "op2: OP2_TILE must be off or a positive element count, got '" +
        text + "'");
  }
  return static_cast<int>(n);
}

config make_config(const std::string& backend_name, unsigned threads,
                   int block_size, std::size_t static_chunk) {
  config cfg;
  cfg.backend_name = backend_registry::resolve(backend_name);
  cfg.bk = enum_for(cfg.backend_name);
  cfg.threads = threads;
  cfg.block_size = block_size;
  cfg.static_chunk = static_chunk;
  return cfg;
}

void init(const config& cfg) {
  config requested = cfg;
  // Environment overrides for the two coarse selection knobs, so a
  // binary whose config is hard-wired can still be redirected per run.
  // Applied before resolution: a bad OP2_BACKEND fails here, with the
  // registry's "available:" message, leaving the runtime intact.
  if (const char* env = std::getenv("OP2_BACKEND");
      env != nullptr && *env != '\0') {
    requested.backend_name = env;
  }
  if (const char* env = std::getenv("OP2_THREADS");
      env != nullptr && *env != '\0') {
    long threads = 0;
    try {
      threads = std::stol(env);
    } catch (const std::exception&) {
      threads = 0;
    }
    if (threads <= 0) {
      throw std::invalid_argument(
          std::string("op2: OP2_THREADS must be a positive thread count, "
                      "got '") + env + "'");
    }
    requested.threads = static_cast<unsigned>(threads);
  }
  if (requested.threads == 0) {
    throw std::invalid_argument("op2::init: threads must be >= 1");
  }
  if (requested.block_size <= 0) {
    throw std::invalid_argument("op2::init: block_size must be >= 1");
  }
  // Resolve before finalize() so a bad name leaves the runtime intact.
  const std::string name = backend_registry::resolve(
      requested.backend_name.empty() ? to_string(requested.bk)
                                     : requested.backend_name);
  loop_executor& exec = backend_registry::shared(name);
  const executor_caps caps = exec.capabilities();

  config effective = requested;
  apply_resilience_env(effective);  // validate env before teardown

  finalize();
  g_config = effective;
  g_config.backend_name = name;
  g_config.bk = enum_for(name);
  g_backend_name = name;
  g_executor = &exec;
  if (caps.needs_forkjoin_team) {
    g_team = std::make_unique<hpxlite::fork_join_team>(effective.threads);
  }
  if (caps.needs_hpx_runtime) {
    hpxlite::runtime::reset(effective.threads);
  }
  set_dataflow_window(g_config.dataflow_window);
  reset_dataflow_window_peak();
  start_watchdog(g_config);
}

void finalize() {
  // Invalidate before tearing down pools: a prepared frame sized for
  // the outgoing worker pool must not replay against the next one, and
  // clearing the caches releases the dats/plans they pin.
  detail::bump_prepared_epoch();
  detail::clear_prepared_caches();
  g_team.reset();
  // Stop the monitor before the pools go away: a supervise-mode
  // watchdog left running would observe teardown as a stall, and its
  // joinable monitor thread would terminate the process when statics
  // destruct.
  hpxlite::watchdog::stop();
  if (hpxlite::runtime::exists()) {
    hpxlite::runtime::shutdown();
  }
  clear_plan_cache();
  set_dataflow_window(0);
  g_config = config{};
  g_backend_name = "seq";
  g_executor = nullptr;
}

const config& current_config() { return g_config; }

int effective_shards(const config& cfg) {
  if (cfg.shards > 0) {
    return cfg.shards;
  }
  return cfg.threads > 0 ? static_cast<int>(cfg.threads) : 1;
}

const std::string& current_backend_name() { return g_backend_name; }

loop_executor& current_executor() {
  if (g_executor == nullptr) {
    // Pre-init default: the seq oracle, matching the default config.
    g_executor = &backend_registry::shared("seq");
  }
  return *g_executor;
}

hpxlite::fork_join_team& team() {
  if (!g_team) {
    throw std::logic_error(
        "op2::team: forkjoin backend not initialised (call op2::init)");
  }
  return *g_team;
}

namespace detail {

hpxlite::fork_join_team* team_if_active() noexcept { return g_team.get(); }

}  // namespace detail

}  // namespace op2
