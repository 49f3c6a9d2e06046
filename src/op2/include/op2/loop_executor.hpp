// The pluggable backend layer: op_par_loop hands a type-erased
// `loop_launch` to a `loop_executor`, and executors are looked up by
// name in the `backend_registry`.
//
// This is the seam the paper's contribution lives on: the OP2 API is
// fixed, and the way "parallel over blocks of one colour" actually runs
// (OpenMP fork-join, for_each(par), async/for_each(par(task)),
// dataflow) is a swappable object.  The five built-in executors live in
// src/op2/src/backends/*.cpp, one translation unit each, and register
// themselves; a new backend is one more translation unit containing a
// `backend_registry::registrar` — no core file changes.
//
// Dispatch contract:
//   - run_direct / run_indirect execute the loop synchronously
//     (direct = no indirect argument; the plan has a single colour)
//   - launch() returns a completion future; asynchronous executors
//     overlap the loop with the caller, synchronous ones (the default
//     implementation) run inline and return a ready future
//   - loop_begin / loop_end are the profiling hooks: run_loop /
//     launch_loop invoke them around every execution when profiling is
//     enabled, so op_timing_output attributes time to the right
//     backend (and its chunk decision) for any executor, including
//     ones registered after this library was built.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "hpxlite/execution.hpp"
#include "hpxlite/future.hpp"
#include "op2/fault.hpp"
#include "op2/plan.hpp"
#include "op2/runtime.hpp"
#include "op2/shard.hpp"

namespace op2 {

namespace profiling {
struct slot;
}  // namespace profiling

/// Static properties of an executor, consulted by op2::init (worker
/// pools), the synchronous dispatch path, and the bench/model layers.
struct executor_caps {
  /// launch() genuinely overlaps with the caller; the synchronous
  /// op_par_loop entry point must wait on the returned future.
  bool asynchronous = false;
  /// The natural Airfoil driver is the §III-B modified API
  /// (airfoil::run_with_backend selects run_dataflow over run_async).
  bool dataflow_api = false;
  /// op2::init must spin up the persistent fork-join team.
  bool needs_forkjoin_team = false;
  /// op2::init must reset the hpxlite worker pool to config::threads.
  bool needs_hpx_runtime = false;
  /// The executor's schedule actually varies with loop_launch::chunk
  /// (seq runs one range regardless, so it does not); gates the chunk
  /// a prepared loop is given at capture (op2/tuner.hpp).
  bool honors_chunk = false;
  /// The executor understands shard_context windows natively: it
  /// dispatches the interior span before waiting the halo-exchange
  /// fence (overlap), instead of relying on the erased closures' gate
  /// alone.  Drives airfoil::run_with_backend towards the sharded
  /// driver.
  bool sharded = false;
  /// simsched method name modelling this backend on the virtual node
  /// ("" = not modelled; the figure harnesses skip the sim column).
  const char* sim_method = "";
};

/// One region of memory a loop writes (OP_WRITE / OP_RW / OP_INC
/// arguments, including global reduction targets).  run_loop_protected
/// snapshots these before the first attempt and restores them before
/// each retry, so a half-executed failing attempt cannot leak partial
/// updates into the re-execution.
struct write_target {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  std::string name;  // dat/global name, for diagnostics
};

/// One type-erased loop launch: everything an executor needs, with the
/// templated kernel/argument frame hidden behind run_block/run_range.
/// The two closures share ownership of the frame, so copies of a
/// loop_launch keep the loop's data alive — asynchronous executors
/// simply capture the launch by value.
struct loop_launch {
  std::string name;                    // loop name (profiling key)
  std::shared_ptr<const op_plan> plan; // block/colour schedule
  int set_size = 0;                    // iteration-set size
  bool direct = false;                 // no indirect argument at all
  hpxlite::chunk_spec chunk = hpxlite::auto_chunk_size{};
  std::function<void(int)> run_block;        // execute one plan block
  std::function<void(int, int)> run_range;   // execute elements [b, e)
  /// The loop's deduplicated write set (access-set rollback state).
  std::vector<write_target> writes;
  /// Non-null when the fault injector armed this invocation; the retry
  /// machinery calls begin_attempt() on it before each execution.
  std::shared_ptr<detail::fault_arming> fault;
  /// Prepared-form hooks (may be empty).  begin_invocation resets the
  /// frame's preallocated per-worker reduction slots to their identity
  /// values; finalize merges them tree-style into the loop's global
  /// reduction targets.  run_loop / launch_loop call begin before the
  /// first chunk and finalize once every chunk has completed — and on
  /// every retry re-execution, since retries re-enter run_loop.
  std::function<void()> begin_invocation;
  std::function<void()> finalize;
  /// Stable profiling slot acquired at frame-build time (null when the
  /// loop was built with profiling disabled); lets the replay path
  /// record without a string-keyed map lookup.
  profiling::slot* prof = nullptr;
  /// Cooperative cancel token for this execution attempt.  Backends
  /// poll it between chunks/blocks (and thread it into the hpxlite
  /// parallel algorithms); a requested stop makes the attempt fail with
  /// hpxlite::operation_cancelled.  Detached (never stops) by default.
  hpxlite::stop_token cancel;
  /// The source behind `cancel`, installed per attempt by the deadline
  /// / ladder machinery.  When set, the watchdog activity registered
  /// for this execution is supervisable: cancel_stalled() requests a
  /// stop on it instead of the process aborting.
  std::shared_ptr<hpxlite::stop_source> cancel_source;
  /// The shard execution window this loop was issued under (inactive by
  /// default).  Captured from the thread-local shard_scope at frame
  /// build; the erased closures already clamp + fence with it, so any
  /// backend runs the loop correctly — a shard-aware backend reads it
  /// to schedule the interior span ahead of the fence wait.
  shard_context shard;
};

/// Structured failure surfaced when a loop exhausts its failure_policy:
/// every rollback/retry and the seq fallback (when enabled) failed too.
/// Carries the loop name, the backend the loop was configured to run
/// on, the total execution attempts, and the last underlying exception.
class loop_error : public std::runtime_error {
 public:
  loop_error(std::string loop, std::string backend, int attempts,
             std::exception_ptr cause);

  const std::string& loop() const noexcept { return loop_; }
  const std::string& backend() const noexcept { return backend_; }
  int attempts() const noexcept { return attempts_; }
  const std::exception_ptr& cause() const noexcept { return cause_; }

 private:
  std::string loop_;
  std::string backend_;
  int attempts_ = 0;
  std::exception_ptr cause_;
};

/// Raised by the deadline supervisor when an attempt overruns
/// failure_policy::deadline_ms: the attempt's token was stopped and the
/// execution drained before this surfaces, so the recovery machinery can
/// roll back and re-run immediately.  Treated like
/// hpxlite::operation_cancelled by the degradation ladder.
class loop_deadline_error : public std::runtime_error {
 public:
  loop_deadline_error(const std::string& loop, int deadline_ms);

  int deadline_ms() const noexcept { return deadline_ms_; }

 private:
  int deadline_ms_ = 0;
};

/// Human-readable form of a chunk decision ("auto", "static:16", ...),
/// recorded by the default loop_end hook.
std::string describe(const hpxlite::chunk_spec& chunk);

/// Parses the OP2_CHUNK / config::chunker grammar:
///   auto | static:N | dynamic:N | guided:N
/// Throws std::invalid_argument on malformed specs.
hpxlite::chunk_spec parse_chunk_spec(const std::string& text);

/// A backend: how the block-structured schedule of a loop_launch runs.
class loop_executor {
 public:
  virtual ~loop_executor() = default;

  /// Registry key this executor was created under.
  virtual std::string_view name() const noexcept = 0;
  virtual executor_caps capabilities() const noexcept = 0;

  /// Synchronous execution of a direct (single-colour) loop.
  virtual void run_direct(const loop_launch& loop) = 0;
  /// Synchronous execution of an indirect (coloured) loop.
  virtual void run_indirect(const loop_launch& loop) = 0;

  /// Asynchronous launch: returns a future for the loop's completion.
  /// Default implementation runs synchronously and returns a ready (or
  /// exceptional) future — correct for any fork-join style executor.
  virtual hpxlite::future<void> launch(loop_launch loop);

  /// Profiling hooks, invoked by run_loop/launch_loop when
  /// op2::profiling is enabled.  The default loop_end records the
  /// execution under (loop name, backend name, chunk decision);
  /// loop_begin is a no-op.  Override to emit extra per-backend events.
  virtual void loop_begin(const loop_launch& loop);
  virtual void loop_end(const loop_launch& loop, double seconds);
};

/// String-keyed executor factory registry.  Thread-safe.  The five
/// built-in backends are registered on first use; additional backends
/// register at static-initialisation time via `registrar` (or any time
/// before they are named in a config).
class backend_registry {
 public:
  using factory = std::function<std::unique_ptr<loop_executor>()>;

  /// Registers `name` (throws std::invalid_argument on duplicates or
  /// empty names).  `aliases` are alternate lookup spellings (e.g.
  /// "foreach" for "hpx_foreach"); they resolve to the canonical name
  /// and collide with other names/aliases like names do.
  static void register_backend(std::string name, factory make,
                               std::vector<std::string> aliases = {});

  /// True when `name` (canonical or alias) is registered.
  static bool contains(const std::string& name);

  /// Canonical name for `name` (which may be an alias).  Throws
  /// std::invalid_argument listing the registered backends when
  /// unknown — the error users see for a mistyped --backend flag.
  static std::string resolve(const std::string& name);

  /// Canonical backend names, in registration order (the built-ins
  /// first: seq, forkjoin, hpx_foreach, hpx_async, hpx_dataflow).
  static std::vector<std::string> names();

  /// A fresh executor instance (caller owns).  Throws like resolve().
  static std::unique_ptr<loop_executor> make(const std::string& name);

  /// The process-wide shared instance for `name`, created on first use
  /// and never destroyed (safe to capture by reference in
  /// continuations).  Throws like resolve().
  static loop_executor& shared(const std::string& name);

  /// Self-registration helper: a namespace-scope
  ///   static backend_registry::registrar reg{"mine", [] {...}};
  /// in any translation unit linked into the program adds a backend
  /// with zero changes to op2/codegen/airfoil/simsched core files.
  struct registrar {
    registrar(std::string name, factory make,
              std::vector<std::string> aliases = {}) {
      register_backend(std::move(name), std::move(make),
                       std::move(aliases));
    }
  };
};

/// Synchronous dispatch with profiling hooks: what the classic
/// op_par_loop entry point calls.  Asynchronous executors are launched
/// and waited on; synchronous ones run inline.  When the hpxlite
/// watchdog is running, the execution is bracketed as a supervised
/// activity named "op_par_loop '<loop>' on <backend> [chunk <spec>]".
void run_loop(loop_executor& exec, const loop_launch& loop);

/// Asynchronous dispatch with profiling hooks: what op_par_loop_async
/// calls.  Records launch-to-completion time via a continuation.
hpxlite::future<void> launch_loop(loop_executor& exec, loop_launch loop);

/// Resilient synchronous dispatch: with the default (disabled) policy
/// this is exactly run_loop.  Otherwise the loop's write set is
/// snapshotted first, and on a kernel exception the snapshot is
/// restored and the loop retried up to policy.max_retries times on
/// `exec`, then (policy.fallback_to_seq) once on the registry's "seq"
/// executor; if everything fails the write set is left rolled back and
/// an op2::loop_error surfaces.
///
/// With deadline/ladder policies the attempt additionally runs under a
/// fresh stop_source: policy.deadline_ms bounds the attempt (a miss
/// stops the token, drains the attempt and counts a deadline miss), and
/// a cancelled attempt — deadline miss or watchdog cancel_stalled() —
/// is rolled back and re-run one rung down the degradation ladder
/// (hpx_dataflow -> hpx_async -> forkjoin -> seq; hpx_foreach ->
/// forkjoin).  The seq floor always runs uncancellable, so a protected
/// loop makes forward progress no matter what the upper rungs do.
void run_loop_protected(loop_executor& exec, const loop_launch& loop,
                        const failure_policy& policy);

/// Resilient asynchronous dispatch: the first attempt overlaps with the
/// caller exactly like launch_loop; rollback, retries and the seq
/// fallback run in the completion continuation, so the returned future
/// is ready only once the loop has genuinely succeeded (or carries the
/// final op2::loop_error).
hpxlite::future<void> launch_loop_protected(loop_executor& exec,
                                            loop_launch loop,
                                            failure_policy policy);

}  // namespace op2
