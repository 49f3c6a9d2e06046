// Per-loop profiling — OP2's op_timing_output facility: when enabled,
// every op_par_loop records wall time and invocation count under its
// loop name; report() prints the classic per-loop table.
//
// Disabled by default (zero overhead beyond one branch per launch).
//
// Prepared loops record through a stable `slot` acquired once at
// capture time, so the steady-state replay path never repeats the
// string-keyed map lookup.  The capture/replay counters and the
// loops/sec + allocs/loop report columns make the launch-path win
// visible in every profiled run, not just the microbench.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace op2 {

struct loop_profile {
  std::uint64_t invocations = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
  /// Executor that ran the loop and its chunk decision, fed by the
  /// loop_executor::loop_end hook (most recent execution wins).
  std::string backend;
  std::string chunk;
  /// Resilience counters (all zero — and never touched — when the
  /// failure policy is off): rollback/retry re-executions, degradations
  /// to the seq executor, and solver restarts from a checkpoint.
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t restarts = 0;
  /// Cancellation/deadline/ladder counters: attempts abandoned via
  /// cooperative cancellation (supervisor stall-cancel or deadline
  /// miss), deadline expiries specifically, and degradation-ladder
  /// rung-downs (re-runs on a cheaper backend after a cancellation).
  std::uint64_t cancellations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degradations = 0;
  /// Launch-path counters: full frame builds (validation + plan lookup
  /// + binding + scratch allocation) vs cheap replays of a prepared
  /// descriptor.  invocations ≈ captures + replays once a loop is warm.
  std::uint64_t captures = 0;
  std::uint64_t replays = 0;
  /// Heap allocations observed across sampled invocations (requires an
  /// installed alloc counter; see set_alloc_counter).
  std::uint64_t allocs = 0;
  std::uint64_t alloc_samples = 0;
  /// The static chunk chosen when the loop was captured (op2/tuner.hpp;
  /// 0 = none chosen, the report shows "-") and its state ("converged",
  /// empty when none was chosen).
  std::uint64_t chunk_chosen = 0;
  std::string tuner_state;
  /// Cross-loop fusion: the fused-launch id this row was captured
  /// under (0 = not a fused launch; the report shows "-"), how many
  /// member loops each launch replays, and the tile size the last
  /// execution walked the set with (0 = untiled).  Fused rows carry the
  /// aggregated member names ("update+save_soln") as their loop name.
  std::uint64_t fused_group = 0;
  std::uint64_t fused_loops = 0;
  std::uint64_t tile_size = 0;

  bool empty() const {
    return invocations == 0 && retries == 0 && fallbacks == 0 &&
           restarts == 0 && captures == 0 && replays == 0 &&
           cancellations == 0 && deadline_misses == 0 && degradations == 0;
  }
};

/// Per-tenant overload/robustness counters — op_timing_output's second
/// table.  The job-level rows are fed by op2::service; the loop-level
/// rows (retries, degradations, cancellations, deadline misses) are
/// attributed via the thread's tenant mark (op2/tenant.hpp), so one
/// profile dump shows which tenant absorbed faults, which degraded and
/// how long jobs queued.
struct tenant_profile {
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_shed = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  /// Whole-job re-runs (the service's exponential-backoff retry).
  std::uint64_t job_retries = 0;
  /// Loop-level resilience events attributed to this tenant's threads.
  std::uint64_t loop_retries = 0;
  std::uint64_t degradations = 0;
  /// Deepest single-execution descent down the degradation ladder.
  std::uint64_t max_degrade_depth = 0;
  std::uint64_t cancellations = 0;
  std::uint64_t deadline_misses = 0;
  /// Total time this tenant's admitted jobs spent queued.
  double queue_wait_seconds = 0.0;

  bool empty() const {
    return jobs_admitted == 0 && jobs_shed == 0 && jobs_completed == 0 &&
           jobs_failed == 0 && jobs_cancelled == 0 && job_retries == 0 &&
           loop_retries == 0 && degradations == 0 && cancellations == 0 &&
           deadline_misses == 0;
  }
};

/// Per-shard owner/halo counters — op_timing_output's third table,
/// fed by the halo_exchanger (shape once at construction, exchange
/// stats once per round).  exchange_ms is wall time from round start
/// (fence armed) to halo visible; overlap_ms is the portion hidden
/// behind interior computation (exchange − longest fence stall), so
/// the overlap win is observable per shard, not inferred.
struct shard_profile {
  int halo_depth = 0;
  std::uint64_t owned = 0;
  std::uint64_t halo = 0;
  std::uint64_t exchanges = 0;
  double exchange_seconds = 0.0;
  double overlap_seconds = 0.0;
  double blocked_seconds = 0.0;
  /// Wire columns, cumulative over the shard's inbound links, fed from
  /// the transport's wire_stats() (all zero on the perfect shm path):
  /// data frames retransmitted, rounds failed with exchange_error, and
  /// links declared dead by the retransmit health threshold.
  std::uint64_t retransmits = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t dead_links = 0;

  bool empty() const {
    return owned == 0 && halo == 0 && exchanges == 0;
  }
};

namespace profiling {

/// Enables/disables recording (also clears nothing; see reset()).
void enable(bool on);
bool enabled();

/// Drops all recorded data.  Existing slots stay valid (their counters
/// are zeroed in place), so prepared loops never hold a dangling slot.
void reset();

/// Stable per-loop recording handle.  Never invalidated — reset()
/// zeroes the counters but keeps the slot alive for the process
/// lifetime — so a prepared loop acquires it once at capture and
/// records lookup-free on every replay.
struct slot;
slot* acquire_slot(const std::string& loop_name);

/// Internal hook used by op_par_loop: records one execution.
void record(const std::string& loop_name, double seconds);

/// Executor-hook flavour: also records which backend ran the loop and
/// the chunk decision it used ("auto", "static:16", ...).
void record(const std::string& loop_name, double seconds,
            const std::string& backend, const std::string& chunk);

/// Slot flavour of the executor hook, used on the prepared replay path.
void record(slot* s, double seconds, const std::string& backend,
            const std::string& chunk);

/// Launch-path hooks (no-ops while profiling is disabled): a full
/// frame capture and a prepared-descriptor replay.
void record_capture(const std::string& loop_name);
void record_replay(slot* s);
void record_replay(const std::string& loop_name);

/// Attributes `n` heap allocations to one sampled invocation of the
/// loop (fed by run_loop when an alloc counter is installed).
void record_allocs(slot* s, std::uint64_t n);
void record_allocs(const std::string& loop_name, std::uint64_t n);

/// Capture-time chunk hook (no-op while profiling is disabled): the
/// chunk the loop's launch was given and its grain_controller state.
void record_tuner(slot* s, std::uint64_t chunk, const char* state);

/// Fusion hook (no-op while profiling is disabled): stamps the fused
/// launch's group id, member-loop count and the tile size the current
/// execution used (0 = untiled) on the aggregated row.
void record_fusion(slot* s, std::uint64_t group, std::uint64_t loops,
                   std::uint64_t tile);

/// Resilience hooks (no-ops while profiling is disabled): a write-set
/// rollback + re-execution, a degradation to the seq executor, and a
/// solver-level restart from a checkpoint.
void record_retry(const std::string& loop_name);
void record_fallback(const std::string& loop_name);
void record_restart(const std::string& loop_name);

/// Cancellation hooks (no-ops while profiling is disabled), recorded by
/// run_loop_protected and the watchdog supervisor's per-activity cancel
/// hook: an attempt abandoned via cooperative cancellation, a deadline
/// expiry, and a degradation-ladder rung-down.
void record_cancellation(const std::string& loop_name);
void record_deadline_miss(const std::string& loop_name);
void record_degradation(const std::string& loop_name);

/// Deepest single-execution descent down the degradation ladder,
/// attributed to the calling thread's tenant (no-op when unscoped or
/// disabled); recorded by the ladder walk once the execution resolves.
void record_degrade_depth(std::uint64_t depth);

/// Job-level hooks fed by op2::service (no-ops while profiling is
/// disabled).  The loop-level hooks above additionally attribute their
/// event to the calling thread's tenant (op2/tenant.hpp) when one is
/// marked, so a single profile dump shows which tenant's jobs retried,
/// degraded or missed deadlines.
void record_job_admitted(const std::string& tenant);
void record_job_shed(const std::string& tenant);
void record_job_completed(const std::string& tenant,
                          double queue_wait_seconds);
void record_job_failed(const std::string& tenant);
void record_job_cancelled(const std::string& tenant);
void record_job_retry(const std::string& tenant);

/// Shard hooks fed by the halo_exchanger (no-ops while profiling is
/// disabled): the static owner/halo shape of one shard, and one
/// completed exchange round's timings (overlap = the hidden portion).
void record_shard_shape(int shard, int halo_depth, std::uint64_t owned,
                        std::uint64_t halo);
void record_shard_exchange(int shard, double exchange_seconds,
                           double overlap_seconds, double blocked_seconds);

/// Wire-reliability counters for one shard's inbound links.  The
/// values are CUMULATIVE transport counters, so this overwrites the
/// shard's wire columns rather than accumulating.
void record_shard_wire(int shard, std::uint64_t retransmits,
                       std::uint64_t wire_errors, std::uint64_t dead_links);

/// Process-wide heap-allocation counter, installed by a harness that
/// interposes operator new (bench/micro/launch_overhead.cpp).  When
/// set, run_loop samples it around each profiled execution and the
/// report gains a real allocs/loop column; when unset the column shows
/// "-".
using alloc_counter_fn = std::uint64_t (*)();
void set_alloc_counter(alloc_counter_fn fn);
alloc_counter_fn alloc_counter();

/// Snapshot of all recorded loops (rows with no activity are omitted).
std::map<std::string, loop_profile> snapshot();

/// Per-tenant snapshot (empty until a job service recorded activity).
std::map<std::string, tenant_profile> tenant_snapshot();

/// Per-shard snapshot (empty until a halo exchanger recorded activity).
std::map<int, shard_profile> shard_snapshot();

/// Prints the per-loop table (name, count, total ms, avg µs, max ms,
/// loops/sec, allocs/loop, resilience counters, capture/replay split),
/// sorted by total time descending — op_timing_output.
void report(std::ostream& out);

}  // namespace profiling

}  // namespace op2
