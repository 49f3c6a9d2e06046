// op2::service — a multi-tenant job server over the OP2/HPX runtime.
//
// ROADMAP item 2: one process currently runs one Airfoil; the paper's
// launch machinery (cheap prepared loops, futures, bounded dataflow
// admission) makes the runtime worth *sharing*.  This layer serves it
// to N tenants without letting them destroy each other under overload
// or faults:
//
//   admission     the OP2_DATAFLOW_WINDOW ticket window generalised to
//                 per-tenant quotas: a tenant runs at most `quota` jobs
//                 concurrently, and dispatch among backlogged tenants
//                 is weighted-fair (virtual-time scheduling — a weight-3
//                 tenant gets 3 dispatches for every 1 a weight-1
//                 tenant gets, and no tenant starves)
//   bounded queues each tenant queues at most `queue_depth` jobs;
//                 beyond that submissions are *shed* with a structured
//                 reason (queue_full / zero_quota / shutdown), never
//                 buffered unboundedly
//   per-job QoS   a job carries a failure_policy: every loop the job
//                 runs is bounded by that policy's deadline and healed
//                 by its retry/degradation ladder (installed via a
//                 thread-local failure_policy_scope, so tenants with
//                 different QoS coexist in one process); whole-job
//                 deadlines and exponential-backoff job retries sit on
//                 top for transient OP2_FAULT-style failures
//   isolation     job threads are tenant-marked (op2/tenant.hpp):
//                 tenant-scoped fault specs fire only on the faulted
//                 tenant, profiling attributes resilience events per
//                 tenant, and a job's cancellation fans in from three
//                 stop sources (service shutdown, tenant cancel, job
//                 cancel/deadline) without crossing tenants
//
// Jobs run on dedicated runner threads, not pool workers: a job body
// blocks in synchronous op_par_loops that dispatch into the shared
// hpxlite pool, and a runner that helped the pool could be dragged
// into another tenant's stalled work.  The capture-time chunk choice
// is recorded per loop shape (loop × backend × threads × size bucket),
// so tenants running identical loops share one registry entry.
//
// Environment: OP2_SERVICE_WORKERS (runner threads, default 4) and
// OP2_SERVICE_QUEUE_DEPTH (per-tenant default, default 16); see
// docs/service.md.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hpxlite/spinlock.hpp"
#include "hpxlite/stop_token.hpp"
#include "op2/prepared_loop.hpp"
#include "op2/runtime.hpp"

namespace op2::service {

/// Why a submission was rejected (job_result::shed).
enum class shed_reason {
  none,
  zero_quota,   // the tenant's quota is 0: it may not run anything
  queue_full,   // the tenant's bounded queue is at depth
  shutdown,     // the service is stopping
};

const char* to_string(shed_reason r);

enum class job_status { queued, running, completed, failed, shed, cancelled };

const char* to_string(job_status s);

/// Registration-time tenant parameters.
struct tenant_options {
  std::string name;      // unique id (required)
  double weight = 1.0;   // weighted-fair share among backlogged tenants
  std::size_t quota = 1; // max concurrently-running jobs (0 = shed all)
  /// Bounded queue depth; 0 inherits the service default
  /// (OP2_SERVICE_QUEUE_DEPTH).
  std::size_t queue_depth = 0;
};

/// Per-job quality of service.
struct job_options {
  /// Loop-level policy every op_par_loop the job issues runs under
  /// (deadline → cancellation → degradation ladder, rollback/retry).
  failure_policy qos;
  /// Whole-job wall-clock budget; 0 disables.  A job past its deadline
  /// has its stop token requested (the body polls it) and resolves as
  /// failed with a deadline message.
  int job_deadline_ms = 0;
  /// Total executions of the job body for transient failures (injected
  /// faults, exhausted loop policies); must be >= 1.
  int max_attempts = 1;
  /// Initial delay between job attempts; doubles per retry (capped at
  /// 1 s) and aborts early when the job is cancelled.
  int backoff_ms = 1;
};

struct job_result {
  job_status status = job_status::queued;
  shed_reason shed = shed_reason::none;
  std::string error;  // final failure/cancellation message ("" on success)
  int attempts = 0;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;
};

/// What a job body receives: its tenant, the fanned-in stop token it
/// must poll at its own granularity (iterations, stages), and the QoS
/// it runs under.
struct job_context {
  std::string tenant;
  hpxlite::stop_token stop;
  failure_policy qos;
  int attempt = 1;
};

using job_fn = std::function<void(const job_context&)>;

/// Cumulative per-tenant counters (see also profiling::tenant_profile,
/// which mirrors these when profiling is enabled).
struct tenant_stats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_zero_quota = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t job_retries = 0;
  std::size_t queued = 0;        // instantaneous
  std::size_t running = 0;       // instantaneous
  std::size_t peak_queued = 0;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;
  std::size_t quota = 0;
  double weight = 1.0;
};

struct service_stats {
  std::map<std::string, tenant_stats> tenants;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_running = 0;  // max jobs running concurrently
};

/// Service-wide knobs; from_env applies OP2_SERVICE_* overrides.
struct service_config {
  /// Dedicated job-runner threads — the service's concurrency ceiling.
  unsigned workers = 4;
  /// Default per-tenant queue depth (tenant_options::queue_depth = 0).
  std::size_t default_queue_depth = 16;

  /// Applies OP2_SERVICE_WORKERS / OP2_SERVICE_QUEUE_DEPTH on top of
  /// `base` (defaults above when omitted); throws std::invalid_argument
  /// on malformed values.
  static service_config from_env();
  static service_config from_env(service_config base);
};

namespace detail {
struct job_state;
struct service_state;
}  // namespace detail

/// Handle onto one submitted job.  Copyable; all copies observe the
/// same job.  A handle returned for a shed submission is already
/// resolved (status() == shed, result().shed says why).
class job_handle {
 public:
  job_handle() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the job resolves; returns the final result.
  job_result get() const;

  /// True when the job resolved within `timeout`.
  bool wait_for(std::chrono::milliseconds timeout) const;

  job_status status() const;

  /// Requests cooperative cancellation: a queued job is removed from
  /// its queue immediately (status cancelled, closure released); a
  /// running job has its stop token requested and resolves once the
  /// body observes it.
  void cancel() const;

 private:
  friend class job_service;
  std::shared_ptr<detail::job_state> state_;
  std::shared_ptr<detail::service_state> service_;
};

/// The job server.  Thread-safe; destruction sheds queued jobs
/// (shutdown reason), cancels running ones cooperatively and joins the
/// runner threads.
class job_service {
 public:
  explicit job_service(service_config cfg = service_config::from_env());
  ~job_service();
  job_service(const job_service&) = delete;
  job_service& operator=(const job_service&) = delete;

  /// Registers a tenant; throws std::invalid_argument for a duplicate
  /// name, an empty name, or a non-positive weight.
  void register_tenant(const tenant_options& options);

  /// Adjusts a tenant's quota mid-flight.  Raising it dispatches
  /// eligible queued jobs immediately; lowering it never preempts —
  /// running jobs finish, and new dispatches respect the new limit.
  void set_quota(const std::string& tenant, std::size_t quota);

  /// Requests cooperative cancellation of everything the tenant has in
  /// flight and cancels its queued jobs.
  void cancel_tenant(const std::string& tenant);

  /// Submits a job; never blocks.  Unknown tenants throw; overload is
  /// shed (see shed_reason) rather than queued unboundedly.
  job_handle submit(const std::string& tenant, job_fn fn,
                    job_options options = {});

  /// Blocks until no job is queued or running.
  void drain();

  tenant_stats stats(const std::string& tenant) const;
  service_stats stats() const;

 private:
  std::shared_ptr<detail::service_state> state_;
};

/// Per-tenant resource container: keeps sets/dats/meshes alive for the
/// session's lifetime and owns named prepared-loop handles, so a
/// tenant's drivers replay their own captured descriptors instead of
/// sharing function-local statics with every other tenant.
class session {
 public:
  session() = default;
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Keeps `resource` alive until clear()/destruction; returns it.
  template <typename R>
  std::shared_ptr<R> adopt(std::shared_ptr<R> resource) {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    resources_.push_back(resource);
    return resource;
  }

  /// Stable named prepared-loop handle, created on first use (map
  /// nodes never move, so returned references stay valid for the
  /// session's lifetime).
  loop_handle& handle(const std::string& key) {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    return handles_[key];
  }

  std::size_t resource_count() const {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    return resources_.size();
  }

  /// Invalidates every handle, then drops all kept resources.
  void clear() {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    for (auto& [key, h] : handles_) {
      h.invalidate();
    }
    handles_.clear();
    resources_.clear();
  }

 private:
  mutable hpxlite::spinlock lock_;
  std::vector<std::shared_ptr<void>> resources_;
  std::map<std::string, loop_handle> handles_;
};

}  // namespace op2::service
