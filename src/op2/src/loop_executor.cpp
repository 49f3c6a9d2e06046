#include "op2/loop_executor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "backends/builtin.hpp"
#include "hpxlite/watchdog.hpp"
#include "op2/profiling.hpp"
#include "op2/tenant.hpp"
#include "op2/timer_service.hpp"

namespace op2 {

namespace {

struct registry_state {
  std::mutex mutex;
  std::vector<std::string> order;                      // canonical names
  std::map<std::string, backend_registry::factory> factories;
  std::map<std::string, std::string> alias_to_name;
  std::map<std::string, std::unique_ptr<loop_executor>> shared_instances;
};

/// Function-local so that backends self-registering from static
/// initialisers (in any translation unit) always find a live registry.
registry_state& state() {
  static registry_state s;
  return s;
}

/// Links and registers the five built-in backends exactly once.  The
/// direct function calls are strong references, so the backend TUs are
/// never dead-stripped from the static library.  Re-entrancy guard: the
/// register_*_backend calls below go through register_backend, which
/// itself calls ensure_builtin (so user registrations always collide
/// with builtin names, whatever the call order) — the thread_local flag
/// breaks that cycle.
void ensure_builtin() {
  static std::atomic<bool> done{false};
  thread_local bool in_progress = false;
  if (done.load(std::memory_order_acquire) || in_progress) {
    return;
  }
  static std::mutex once_mutex;
  std::lock_guard<std::mutex> lock(once_mutex);
  if (done.load(std::memory_order_relaxed)) {
    return;
  }
  in_progress = true;
  backends::register_seq_backend();
  backends::register_forkjoin_backend();
  backends::register_hpx_foreach_backend();
  backends::register_hpx_async_backend();
  backends::register_hpx_dataflow_backend();
  backends::register_hpx_shard_backend();
  in_progress = false;
  done.store(true, std::memory_order_release);
}

/// Requires the lock.  Canonicalises `name`, throwing the "available:"
/// error for unknown spellings.
const std::string& resolve_locked(registry_state& s,
                                  const std::string& name) {
  if (s.factories.count(name) != 0) {
    // Canonical names are stored in `order`; return the stable copy.
    for (const auto& n : s.order) {
      if (n == name) {
        return n;
      }
    }
  }
  const auto alias = s.alias_to_name.find(name);
  if (alias != s.alias_to_name.end()) {
    return alias->second;
  }
  std::ostringstream msg;
  msg << "op2: unknown backend '" << name << "'; available:";
  for (const auto& n : s.order) {
    msg << ' ' << n;
  }
  throw std::invalid_argument(msg.str());
}

}  // namespace

void backend_registry::register_backend(std::string name, factory make,
                                        std::vector<std::string> aliases) {
  ensure_builtin();
  if (name.empty()) {
    throw std::invalid_argument("op2: backend name must not be empty");
  }
  if (!make) {
    throw std::invalid_argument("op2: backend '" + name +
                                "' registered without a factory");
  }
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto taken = [&s](const std::string& key) {
    return s.factories.count(key) != 0 || s.alias_to_name.count(key) != 0;
  };
  if (taken(name)) {
    throw std::invalid_argument("op2: backend '" + name +
                                "' is already registered");
  }
  for (const auto& a : aliases) {
    if (a.empty() || taken(a) || a == name) {
      throw std::invalid_argument("op2: backend alias '" + a + "' for '" +
                                  name + "' collides or is empty");
    }
  }
  s.order.push_back(name);
  for (auto& a : aliases) {
    s.alias_to_name.emplace(std::move(a), name);
  }
  s.factories.emplace(std::move(name), std::move(make));
}

bool backend_registry::contains(const std::string& name) {
  ensure_builtin();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.factories.count(name) != 0 || s.alias_to_name.count(name) != 0;
}

std::string backend_registry::resolve(const std::string& name) {
  ensure_builtin();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return resolve_locked(s, name);
}

std::vector<std::string> backend_registry::names() {
  ensure_builtin();
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.order;
}

std::unique_ptr<loop_executor> backend_registry::make(
    const std::string& name) {
  ensure_builtin();
  auto& s = state();
  backend_registry::factory make_fn;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    make_fn = s.factories.at(resolve_locked(s, name));
  }
  auto exec = make_fn();
  if (!exec) {
    throw std::runtime_error("op2: backend '" + name +
                             "' factory returned null");
  }
  return exec;
}

loop_executor& backend_registry::shared(const std::string& name) {
  ensure_builtin();
  auto& s = state();
  backend_registry::factory make_fn;
  std::string canonical;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    canonical = resolve_locked(s, name);
    const auto it = s.shared_instances.find(canonical);
    if (it != s.shared_instances.end()) {
      return *it->second;
    }
    make_fn = s.factories.at(canonical);
  }
  // Construct outside the lock (factories may touch the registry).
  auto exec = make_fn();
  if (!exec) {
    throw std::runtime_error("op2: backend '" + name +
                             "' factory returned null");
  }
  std::lock_guard<std::mutex> lock(s.mutex);
  auto [it, inserted] = s.shared_instances.emplace(std::move(canonical),
                                                   std::move(exec));
  (void)inserted;  // lost race: keep the first instance
  return *it->second;
}

// --- chunk description ------------------------------------------------

std::string describe(const hpxlite::chunk_spec& chunk) {
  struct visitor {
    std::string operator()(const hpxlite::auto_chunk_size&) const {
      return "auto";
    }
    std::string operator()(const hpxlite::static_chunk_size& c) const {
      return "static:" + std::to_string(c.size);
    }
    std::string operator()(const hpxlite::dynamic_chunk_size& c) const {
      return "dynamic:" + std::to_string(c.size);
    }
    std::string operator()(const hpxlite::guided_chunk_size& c) const {
      return "guided:" + std::to_string(c.min_size);
    }
  };
  return std::visit(visitor{}, chunk);
}

hpxlite::chunk_spec parse_chunk_spec(const std::string& text) {
  if (text == "auto") {
    return hpxlite::auto_chunk_size{};
  }
  const auto colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  std::size_t size = 0;
  bool size_ok = false;
  if (colon != std::string::npos) {
    try {
      const std::string digits = text.substr(colon + 1);
      // stoull tolerates signs and leading whitespace; the grammar is
      // plain decimal digits only.
      const bool all_digits =
          !digits.empty() &&
          digits.find_first_not_of("0123456789") == std::string::npos;
      std::size_t used = 0;
      const unsigned long long parsed =
          all_digits ? std::stoull(digits, &used) : 0;
      size_ok = all_digits && used == digits.size() && parsed > 0;
      size = static_cast<std::size_t>(parsed);
    } catch (const std::exception&) {
      size_ok = false;
    }
  }
  if (size_ok) {
    if (kind == "static") {
      return hpxlite::static_chunk_size(size);
    }
    if (kind == "dynamic") {
      return hpxlite::dynamic_chunk_size(size);
    }
    if (kind == "guided") {
      return hpxlite::guided_chunk_size(size);
    }
  }
  throw std::invalid_argument(
      "op2: bad chunk spec '" + text +
      "' (grammar: auto | static:N | dynamic:N | guided:N)");
}

// --- loop_executor defaults -------------------------------------------

hpxlite::future<void> loop_executor::launch(loop_launch loop) {
  // Fork-join executors complete the loop before returning; the future
  // carries the kernel's exception, if any, like a real async launch.
  try {
    if (loop.direct) {
      run_direct(loop);
    } else {
      run_indirect(loop);
    }
  } catch (...) {
    return hpxlite::make_exceptional_future<void>(std::current_exception());
  }
  return hpxlite::make_ready_future();
}

void loop_executor::loop_begin(const loop_launch&) {}

void loop_executor::loop_end(const loop_launch& loop, double seconds) {
  if (loop.prof != nullptr) {
    // Prepared loops carry a stable slot: no string-keyed map lookup.
    profiling::record(loop.prof, seconds, std::string(name()),
                      describe(loop.chunk));
    return;
  }
  profiling::record(loop.name, seconds, std::string(name()),
                    describe(loop.chunk));
}

// --- dispatch with profiling hooks ------------------------------------

namespace {

void run_now(loop_executor& exec, const loop_launch& loop) {
  if (exec.capabilities().asynchronous) {
    exec.launch(loop).get();
  } else if (loop.direct) {
    exec.run_direct(loop);
  } else {
    exec.run_indirect(loop);
  }
}

/// Fires an armed corrupt fault against the loop's first write target.
/// Corrupt faults fire once per completed execution, at dispatch level
/// rather than inside a chunk: under fork-join executors the chunk that
/// wins the per-attempt claim can finish before another chunk that
/// legitimately rewrites the targeted bytes, which would silently heal
/// the injected corruption.
void fire_corrupt(const loop_launch& loop) {
  if (loop.fault && !loop.writes.empty()) {
    detail::fire_fault_post(*loop.fault, loop.writes[0].data,
                            loop.writes[0].bytes);
  }
}

/// Watchdog activity description for one loop execution.
std::string activity_description(const loop_executor& exec,
                                 const loop_launch& loop) {
  return "op_par_loop '" + loop.name + "' on " + std::string(exec.name()) +
         " [chunk " + describe(loop.chunk) + "]";
}

/// The watchdog's supervise hook for a cancellable execution: a stall
/// verdict stops the attempt's token and the protected-run machinery
/// rolls back and degrades.  The profiling count is recorded by the
/// unwinding attempt itself (see recover) — recording here, on the
/// monitor thread, would race with the recovered loop's caller reading
/// the profile.  Loops without a per-attempt stop_source get no hook,
/// so the watchdog falls back to diagnostics for them.
std::function<void()> cancel_hook(const loop_launch& loop) {
  if (!loop.cancel_source) {
    return {};
  }
  return [src = loop.cancel_source] { src->request_stop(); };
}

/// RAII registration of a supervised activity.  When the watchdog is
/// stopped (the common case) the cost is one atomic load — the
/// description string is never built.
struct activity_guard {
  activity_guard(const loop_executor& exec, const loop_launch& loop) {
    if (hpxlite::watchdog::running()) {
      token = hpxlite::watchdog::begin_activity(
          activity_description(exec, loop), cancel_hook(loop));
    }
  }
  ~activity_guard() {
    if (token != 0) {
      hpxlite::watchdog::end_activity(token);
    }
  }
  activity_guard(const activity_guard&) = delete;
  activity_guard& operator=(const activity_guard&) = delete;
  std::uint64_t token = 0;
};

}  // namespace

void run_loop(loop_executor& exec, const loop_launch& loop) {
  activity_guard guard(exec, loop);
  if (!profiling::enabled()) {
    if (loop.begin_invocation) {
      loop.begin_invocation();
    }
    run_now(exec, loop);
    if (loop.finalize) {
      loop.finalize();
    }
    fire_corrupt(loop);
    return;
  }
  exec.loop_begin(loop);
  // Sample the interposed allocation counter (when a harness installed
  // one) around the execution proper, feeding the allocs/loop column.
  const auto allocs = profiling::alloc_counter();
  const std::uint64_t a0 = allocs != nullptr ? allocs() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (loop.begin_invocation) {
      loop.begin_invocation();
    }
    run_now(exec, loop);
    if (loop.finalize) {
      loop.finalize();
    }
  } catch (...) {
    exec.loop_end(loop, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    throw;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (allocs != nullptr) {
    if (loop.prof != nullptr) {
      profiling::record_allocs(loop.prof, allocs() - a0);
    } else {
      profiling::record_allocs(loop.name, allocs() - a0);
    }
  }
  fire_corrupt(loop);
  exec.loop_end(loop, seconds);
}

namespace {

/// exec.launch can throw synchronously: the auto-chunk partitioner runs
/// a sequential prefix of the first colour inline on the calling thread,
/// so a kernel exception there escapes before any task is submitted.
/// Folding it into the future gives callers (and the recovery
/// continuation) a single failure path — and because nothing was
/// submitted yet, no chunk is still writing when the caller rolls back.
hpxlite::future<void> checked_launch(loop_executor& exec, loop_launch loop) {
  try {
    return exec.launch(std::move(loop));
  } catch (...) {
    return hpxlite::make_exceptional_future<void>(std::current_exception());
  }
}

hpxlite::future<void> launch_loop_impl(loop_executor& exec,
                                       loop_launch loop) {
  // Reduction slots are reset synchronously — before any chunk can run
  // — and merged in a completion continuation, so the caller observes
  // the merged global exactly when the returned future is ready.
  if (loop.begin_invocation) {
    loop.begin_invocation();
  }
  const auto finalize = loop.finalize;
  if (!profiling::enabled()) {
    auto done = checked_launch(exec, std::move(loop));
    if (!finalize) {
      return done;
    }
    return done.then([finalize](hpxlite::future<void>&& f) {
      f.get();  // a failed loop must not publish a partial reduction
      finalize();
    });
  }
  exec.loop_begin(loop);
  const auto t0 = std::chrono::steady_clock::now();
  auto done = checked_launch(exec, loop);
  if (finalize) {
    done = done.then([finalize](hpxlite::future<void>&& f) {
      f.get();
      finalize();
    });
  }
  // Record launch-to-completion time.  Capturing `exec` is safe: the
  // runtime dispatches through backend_registry::shared instances,
  // which are never destroyed.
  return done.then(
      [&exec, loop = std::move(loop), t0](hpxlite::future<void>&& f) {
        exec.loop_end(loop, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        f.get();  // propagate the loop's exception to the caller
      });
}

}  // namespace

hpxlite::future<void> launch_loop(loop_executor& exec, loop_launch loop) {
  // An armed corrupt fault fires in the completion continuation (see
  // fire_corrupt); capture the target before the launch consumes `loop`.
  const auto fault = loop.fault;
  const bool corrupt_armed = fault && fault->kind == fault_kind::corrupt &&
                             !loop.writes.empty();
  std::byte* corrupt_data = corrupt_armed ? loop.writes[0].data : nullptr;
  const std::size_t corrupt_bytes = corrupt_armed ? loop.writes[0].bytes : 0;

  auto done = [&]() -> hpxlite::future<void> {
    if (!hpxlite::watchdog::running()) {
      return launch_loop_impl(exec, std::move(loop));
    }
    // Supervise launch-to-completion: the activity ends (and counts as
    // progress) only when the loop's future becomes ready.
    const std::uint64_t token = hpxlite::watchdog::begin_activity(
        activity_description(exec, loop), cancel_hook(loop));
    auto launched = launch_loop_impl(exec, std::move(loop));
    return launched.then([token](hpxlite::future<void>&& f) {
      hpxlite::watchdog::end_activity(token);
      f.get();  // propagate the loop's exception to the caller
    });
  }();
  if (!corrupt_armed) {
    return done;
  }
  return done.then(
      [fault, corrupt_data, corrupt_bytes](hpxlite::future<void>&& f) {
        f.get();  // only a completed loop publishes the corruption
        detail::fire_fault_post(*fault, corrupt_data, corrupt_bytes);
      });
}

// --- resilient dispatch -----------------------------------------------

loop_error::loop_error(std::string loop, std::string backend, int attempts,
                       std::exception_ptr cause)
    : std::runtime_error([&] {
        std::string what = "op2: loop '" + loop + "' failed on backend '" +
                           backend + "' after " + std::to_string(attempts) +
                           " attempt(s)";
        if (cause) {
          try {
            std::rethrow_exception(cause);
          } catch (const std::exception& e) {
            what += ": ";
            what += e.what();
          } catch (...) {
            what += ": non-standard exception";
          }
        }
        return what;
      }()),
      loop_(std::move(loop)),
      backend_(std::move(backend)),
      attempts_(attempts),
      cause_(std::move(cause)) {}

loop_deadline_error::loop_deadline_error(const std::string& loop,
                                         int deadline_ms)
    : std::runtime_error("op2: loop '" + loop + "' missed its " +
                         std::to_string(deadline_ms) + " ms deadline"),
      deadline_ms_(deadline_ms) {}

namespace {

// --- attempt deadlines ------------------------------------------------
//
// Armed on the shared timer service (op2/timer_service.hpp): one
// dedicated OS thread for every deadline in the process — per-attempt
// deadlines here and whole-job deadlines in op2::service.  The fire
// callback just records the miss and stops the token; the heavy
// lifting (drain, rollback, degrade) happens on the thread that ran
// the attempt.

/// Arms a deadline: at `delay` from now the service stops `src` and
/// records the miss.  Pair with disarm_deadline once the attempt
/// resolves; its return value says whether the deadline fired.
std::uint64_t arm_deadline(std::chrono::milliseconds delay,
                           std::shared_ptr<hpxlite::stop_source> src,
                           std::string loop) {
  // The timer thread has no tenant mark of its own; carry the arming
  // thread's tenant into the fire so the per-tenant ddl_miss column
  // attributes correctly.
  return timer_service::arm(
      delay, [src = std::move(src), loop = std::move(loop),
              tenant = detail::current_tenant()] {
        // Record the miss *before* stopping the token: the woken
        // attempt (and, transitively, the driver that launched it)
        // must already see the miss in the profile.  The cancellation
        // count itself is recorded by the unwinding attempt (see
        // recover), never here.
        tenant_scope scope(tenant);
        profiling::record_deadline_miss(loop);
        src->request_stop();
      });
}

bool disarm_deadline(std::uint64_t id) { return timer_service::disarm(id); }

// --- rollback / retry / degradation ladder ----------------------------

/// Byte copies of every write target, taken before the first attempt.
std::vector<std::vector<std::byte>> take_snapshot(const loop_launch& loop) {
  std::vector<std::vector<std::byte>> saved;
  saved.reserve(loop.writes.size());
  for (const auto& target : loop.writes) {
    saved.emplace_back(target.data, target.data + target.bytes);
  }
  return saved;
}

void restore_snapshot(const loop_launch& loop,
                      const std::vector<std::vector<std::byte>>& saved) {
  for (std::size_t i = 0; i < loop.writes.size(); ++i) {
    std::memcpy(loop.writes[i].data, saved[i].data(),
                loop.writes[i].bytes);
  }
}

/// The next rung down the degradation ladder, or nullptr at the floor.
/// hpx_dataflow -> hpx_async -> forkjoin -> seq; hpx_foreach ->
/// forkjoin.  The forkjoin rung needs the persistent team op2::init
/// creates for forkjoin configs only, so hpx configurations (which
/// never built one) skip straight to the seq oracle.  Unknown user
/// backends degrade straight to seq too.
const char* next_rung(std::string_view backend) {
  if (backend == "hpx_dataflow") {
    return "hpx_async";
  }
  if (backend == "hpx_async" || backend == "hpx_foreach") {
    return detail::team_if_active() != nullptr ? "forkjoin" : "seq";
  }
  if (backend == "forkjoin") {
    return "seq";
  }
  if (backend == "seq") {
    return nullptr;
  }
  return "seq";
}

/// True when `error` is a cooperative cancellation (watchdog stop or
/// deadline miss) rather than a genuine kernel failure.
bool is_cancellation(const std::exception_ptr& error) {
  if (!error) {
    return false;
  }
  try {
    std::rethrow_exception(error);
  } catch (const loop_deadline_error&) {
    return true;
  } catch (const hpxlite::operation_cancelled&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// One execution attempt.  With cancellation allowed the attempt runs
/// under a fresh stop_source — visible to the backends (chunk polls),
/// the fault injector's stall wait, and the watchdog's supervise hook —
/// and, when the policy carries a deadline, armed with the deadline
/// service.  Without it (the seq floor, or policies that never cancel)
/// any stale token from an earlier attempt is stripped first, so the
/// run cannot be failed by a stop that already happened.
void run_attempt(loop_executor& exec, const loop_launch& base,
                 const failure_policy& policy, bool allow_cancel) {
  if (!allow_cancel) {
    if (!base.cancel_source && !base.cancel.stop_possible()) {
      run_loop(exec, base);
      return;
    }
    loop_launch plain = base;
    plain.cancel = {};
    plain.cancel_source.reset();
    if (plain.fault) {
      plain.fault->set_cancel_token({});
    }
    run_loop(exec, plain);
    return;
  }
  loop_launch attempt = base;
  auto src = std::make_shared<hpxlite::stop_source>();
  attempt.cancel_source = src;
  attempt.cancel = src->get_token();
  if (attempt.fault) {
    attempt.fault->set_cancel_token(attempt.cancel);
  }
  if (policy.deadline_ms <= 0) {
    // No deadline: the watchdog's cancel_stalled() is the only
    // supervisor (via the activity hook run_loop registers).
    run_loop(exec, attempt);
    return;
  }
  const std::uint64_t id =
      arm_deadline(std::chrono::milliseconds(policy.deadline_ms), src,
                   attempt.name);
  std::exception_ptr error;
  try {
    run_loop(exec, attempt);
  } catch (...) {
    error = std::current_exception();
  }
  const bool fired = disarm_deadline(id);
  if (!error) {
    return;  // beat the deadline (or squeaked past it — result stands)
  }
  if (fired && is_cancellation(error)) {
    throw loop_deadline_error(attempt.name, policy.deadline_ms);
  }
  std::rethrow_exception(error);
}

/// The cancellation path of recover(): walk the ladder downward,
/// rolling back and re-running one rung at a time.  Rungs above seq
/// stay cancellable — the deadline and the watchdog bound them exactly
/// like the first attempt — while the seq floor runs uncancellable, so
/// the walk always terminates with a real result (or a loop_error
/// carrying the floor's own failure).
void degrade_ladder(loop_executor& exec, const loop_launch& loop,
                    const failure_policy& policy,
                    const std::vector<std::vector<std::byte>>& snapshot,
                    std::exception_ptr error, int attempts) {
  std::uint64_t depth = 0;
  for (const char* rung = next_rung(exec.name()); rung != nullptr;
       rung = next_rung(rung)) {
    loop_executor& lower = backend_registry::shared(rung);
    restore_snapshot(loop, snapshot);
    profiling::record_degradation(loop.name);
    ++depth;
    if (loop.fault) {
      loop.fault->begin_attempt();
    }
    ++attempts;
    try {
      run_attempt(lower, loop, policy,
                  /*allow_cancel=*/std::string_view(rung) != "seq");
      profiling::record_degrade_depth(depth);
      return;
    } catch (...) {
      error = std::current_exception();
      if (is_cancellation(error)) {
        profiling::record_cancellation(loop.name);
      }
    }
  }
  profiling::record_degrade_depth(depth);
  restore_snapshot(loop, snapshot);
  throw loop_error(loop.name, std::string(exec.name()), attempts,
                   std::move(error));
}

/// Error path shared by the sync and async entry points.  Cancelled
/// attempts (deadline miss, watchdog stall verdict) degrade down the
/// ladder when the policy enables it; genuine kernel failures roll back
/// and retry on `exec`, then degrade to seq, then surface loop_error.
/// Runs synchronously (failures are rare; recovery needn't overlap).
void recover(loop_executor& exec, const loop_launch& loop,
             const failure_policy& policy,
             const std::vector<std::vector<std::byte>>& snapshot,
             std::exception_ptr error) {
  // Cancellations are counted here, on the unwinding thread: the
  // supervisor (watchdog monitor or deadline service) that stopped the
  // token runs concurrently with the recovery, and recording from its
  // thread would race with the recovered loop's caller reading the
  // profile.
  if (is_cancellation(error)) {
    profiling::record_cancellation(loop.name);
  }
  if (policy.ladder && is_cancellation(error)) {
    degrade_ladder(exec, loop, policy, snapshot, std::move(error), 1);
    return;
  }
  // Strip any per-attempt token off the retry copies: a stop requested
  // against the failed attempt must not poison its re-executions.
  loop_launch base = loop;
  base.cancel = {};
  base.cancel_source.reset();
  if (base.fault) {
    base.fault->set_cancel_token({});
  }
  int attempts = 1;
  for (int retry = 0; retry < policy.max_retries; ++retry) {
    restore_snapshot(base, snapshot);
    profiling::record_retry(base.name);
    if (base.fault) {
      base.fault->begin_attempt();
    }
    ++attempts;
    try {
      run_loop(exec, base);
      return;
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (policy.fallback_to_seq && exec.name() != "seq") {
    restore_snapshot(base, snapshot);
    profiling::record_fallback(base.name);
    if (base.fault) {
      base.fault->begin_attempt();
    }
    ++attempts;
    try {
      run_loop(backend_registry::shared("seq"), base);
      return;
    } catch (...) {
      error = std::current_exception();
    }
  }
  // Leave the write set in its pre-loop state: a failed loop must not
  // publish partial updates.
  restore_snapshot(base, snapshot);
  throw loop_error(base.name, std::string(exec.name()), attempts,
                   std::move(error));
}

/// Cancellation only makes sense when something will re-run the loop
/// (the ladder) or bound it (a deadline); the seq oracle is always the
/// uncancellable floor even when it is the configured backend.
bool attempt_cancellable(const loop_executor& exec,
                         const failure_policy& policy) {
  return (policy.ladder || policy.deadline_ms > 0) && exec.name() != "seq";
}

}  // namespace

void run_loop_protected(loop_executor& exec, const loop_launch& loop,
                        const failure_policy& policy) {
  if (!policy.enabled()) {
    run_loop(exec, loop);
    return;
  }
  auto snapshot = take_snapshot(loop);
  if (loop.fault) {
    loop.fault->begin_attempt();
  }
  std::exception_ptr error;
  try {
    run_attempt(exec, loop, policy, attempt_cancellable(exec, policy));
    return;
  } catch (...) {
    error = std::current_exception();
  }
  recover(exec, loop, policy, snapshot, std::move(error));
}

hpxlite::future<void> launch_loop_protected(loop_executor& exec,
                                            loop_launch loop,
                                            failure_policy policy) {
  if (!policy.enabled()) {
    return launch_loop(exec, std::move(loop));
  }
  auto snapshot = take_snapshot(loop);
  if (loop.fault) {
    loop.fault->begin_attempt();
  }
  std::uint64_t deadline_id = 0;
  if (attempt_cancellable(exec, policy)) {
    auto src = std::make_shared<hpxlite::stop_source>();
    loop.cancel_source = src;
    loop.cancel = src->get_token();
    if (loop.fault) {
      loop.fault->set_cancel_token(loop.cancel);
    }
    if (policy.deadline_ms > 0) {
      deadline_id = arm_deadline(
          std::chrono::milliseconds(policy.deadline_ms), src, loop.name);
    }
  }
  auto first = launch_loop(exec, loop);
  // Recovery runs in the completion continuation: the returned future
  // becomes ready only once an attempt succeeded, or exceptional with
  // the final loop_error.
  return first.then([&exec, loop = std::move(loop), policy,
                     snapshot = std::move(snapshot), deadline_id](
                        hpxlite::future<void>&& f) {
    std::exception_ptr error;
    try {
      f.get();
      if (deadline_id != 0) {
        disarm_deadline(deadline_id);
      }
      return;
    } catch (...) {
      error = std::current_exception();
    }
    if (deadline_id != 0 && disarm_deadline(deadline_id) &&
        is_cancellation(error)) {
      error = std::make_exception_ptr(
          loop_deadline_error(loop.name, policy.deadline_ms));
    }
    recover(exec, loop, policy, snapshot, std::move(error));
  });
}

}  // namespace op2
