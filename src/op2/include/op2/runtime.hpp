// OP2 runtime configuration: which parallel backend executes
// op_par_loop, with how many threads, and with what plan block size.
//
// The backends are the paper's four parallelisation methods:
//   forkjoin      — the OpenMP `#pragma omp parallel for` baseline
//                   (static schedule, implicit global barrier per loop)
//   hpx_foreach   — Section III-A1: for_each(par), fork-join shaped,
//                   grain size from the auto-partitioner or a static
//                   chunk size
//   hpx_async     — Section III-A2: async + for_each(par(task)),
//                   loops return futures, caller places .get()
//   hpx_dataflow  — Section III-B: modified OP2 API, argument futures,
//                   loop dependency tree built automatically
// plus `seq`, the single-threaded reference used as a test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "hpxlite/fork_join_team.hpp"

namespace op2 {

class loop_executor;

/// Legacy closed enumeration of the built-in backends.  Kept for the
/// compact `op2::init({op2::backend::seq, ...})` spelling; dispatch is
/// by name through the backend_registry, so backends registered at
/// runtime need no enum value — name them via config::backend_name or
/// make_config().
enum class backend {
  seq,
  forkjoin,
  hpx_foreach,
  hpx_async,
  hpx_dataflow,
};

constexpr const char* to_string(backend b) {
  constexpr const char* names[] = {"seq", "forkjoin", "hpx_foreach",
                                   "hpx_async", "hpx_dataflow"};
  const auto i = static_cast<unsigned>(b);
  return i < sizeof(names) / sizeof(names[0]) ? names[i] : "?";
}

/// What op_par_loop does when a kernel chunk throws.  With the default
/// (disabled) policy the exception propagates unchanged and the loop's
/// outputs are unspecified — exactly the pre-resilience behaviour, with
/// zero overhead.  Enabling any knob routes execution through
/// run_loop_protected: the loop's write set is snapshotted up front,
/// restored on failure, and the loop is retried / degraded to the seq
/// oracle before an op2::loop_error surfaces.
struct failure_policy {
  /// Re-executions on the configured backend after a failure (each
  /// preceded by a write-set rollback).
  int max_retries = 0;
  /// After retries are exhausted, roll back once more and run the loop
  /// on the registry's "seq" executor.
  bool fallback_to_seq = false;
  /// Wall-clock budget per loop attempt, in milliseconds; 0 disables.
  /// An attempt past its deadline is cooperatively cancelled (its
  /// stop_token is requested; chunks abandon between polls), rolled
  /// back, and — with `ladder` — re-run one rung down the degradation
  /// ladder dataflow→async→forkjoin→seq.  The seq floor runs without a
  /// deadline so forward progress is guaranteed.
  int deadline_ms = 0;
  /// Enables the degradation ladder for cancelled/deadline-missed
  /// attempts.  Implied by deadline_ms unless ladder=off is explicit.
  bool ladder = false;

  bool enabled() const {
    return max_retries > 0 || fallback_to_seq || deadline_ms > 0 || ladder;
  }
};

/// Parses the OP2_FAILURE_POLICY grammar:
///   off | retries=N[,fallback=on|off][,deadline=MS][,ladder=on|off]
/// e.g. "retries=2,fallback=on" or "deadline=500" (which implies
/// ladder=on).  Throws std::invalid_argument on malformed specs.
failure_policy parse_failure_policy(const std::string& text);

/// The failure policy op_par_loop applies on the calling thread: a
/// thread-local override installed by failure_policy_scope when one is
/// active, else the global config's on_failure.  This is how the job
/// service maps per-job QoS onto the loop-level deadline + degradation
/// ladder without touching the process-wide configuration.
const failure_policy& effective_failure_policy() noexcept;

/// RAII per-thread failure-policy override.  Every op_par_loop issued
/// from the scoped thread (and every dataflow node it submits — the
/// node captures the policy at submission) runs under `policy` instead
/// of the global default.  Nests; the previous override is restored.
class failure_policy_scope {
 public:
  explicit failure_policy_scope(const failure_policy& policy);
  ~failure_policy_scope();
  failure_policy_scope(const failure_policy_scope&) = delete;
  failure_policy_scope& operator=(const failure_policy_scope&) = delete;

 private:
  failure_policy policy_;
  const failure_policy* prev_;
};

/// Grain choice for prepared loops (OP2_TUNER):
///   on  — a prepared loop on a chunk-honouring backend is given a
///         static chunk once, at capture (op2/tuner.hpp) (default)
///   off — the paper's per-invocation auto-partitioner: every launch
///         uses the configured chunker (auto-probe unless a chunk was
///         set explicitly)
enum class tuner_mode { off, on };

constexpr const char* to_string(tuner_mode m) {
  return m == tuner_mode::off ? "off" : "on";
}

/// Parses "on" | "off" (throws std::invalid_argument).
tuner_mode parse_tuner_mode(const std::string& text);

/// Parses the OP2_TILE / config::tile grammar: "" | "off" | "<elems>".
/// Returns 0 for off or the positive fixed tile size.  Throws
/// std::invalid_argument otherwise.
int parse_tile_spec(const std::string& text);

struct config {
  backend bk = backend::seq;
  unsigned threads = 1;
  /// Elements per plan block (the paper's blockIdx granule).
  int block_size = 128;
  /// Blocks per for_each chunk for the hpx backends; 0 selects the
  /// auto-partitioner (Section III-A1's default).
  std::size_t static_chunk = 0;
  /// Registry name of the backend to run (canonical or alias).  When
  /// non-empty this takes precedence over `bk`, and may name any
  /// registered backend, including ones the enum has no value for.
  std::string backend_name;
  /// Rollback/retry/fallback behaviour for failing loops (off by
  /// default; also settable via OP2_FAILURE_POLICY).
  failure_policy on_failure;
  /// Capture-once/replay-many launch descriptors: op_par_loop caches
  /// the validated frame, plan, bound views and reduction scratch per
  /// call site and replays them allocation-free on repeat invocations.
  /// Off (OP2_PREPARED=off) forces the one-shot path on every call —
  /// the control arm of the equivalence tests.
  bool prepared_loops = true;
  /// Cross-loop fusion (OP2_FUSE, default on): op_par_loop_fused call
  /// sites run their member loops as one element-contiguous traversal
  /// when the fusion planner's legality rules allow it.  Off executes
  /// the members as individual prepared loops — bit-identical results,
  /// the control arm of the fusion tests and benchmarks.
  bool fuse = true;
  /// Tile size for fused direct chains (OP2_TILE): "" or "off" runs
  /// each plan block/range as one tile; "<elems>" fixes the tile.  A multi-step fused launch runs every
  /// step of the chain over one tile before advancing, so the tile's
  /// working set stays cache-hot across time steps.
  std::string tile;
  /// Capture-time grain choice (see tuner_mode / OP2_TUNER).  Applies
  /// only to prepared loops whose backend honours the chunk spec and
  /// whose configured chunker is the auto-partitioner; explicit
  /// chunkers are always respected.
  tuner_mode tuner = tuner_mode::on;
  /// Chunker spec override (OP2_CHUNK): "auto" | "static:N" |
  /// "dynamic:N" | "guided:N".  Empty defers to
  /// static_chunk (legacy knob) then the auto-partitioner.
  std::string chunker;
  /// Bounded in-flight window for the dataflow API (OP2_DATAFLOW_WINDOW):
  /// at most this many op_par_loop futures outstanding at once; further
  /// submissions block (helping the scheduler) until a node completes.
  /// 0 = unbounded, the pre-backpressure behaviour.
  std::size_t dataflow_window = 0;
  /// Stall monitor period (OP2_WATCHDOG_MS): init() starts the hpxlite
  /// watchdog with this timeout.  With a ladder policy the watchdog
  /// supervises (a stall verdict cancels the stuck loop's token and the
  /// ladder re-runs it); otherwise it diagnoses (prints and aborts).
  /// 0 = no watchdog.
  long watchdog_ms = 0;
  /// Shard count for the hpx_shard backend (OP2_SHARDS): the primary
  /// set is owner/halo-partitioned into this many runtime shards.
  /// 0 = auto (one shard per worker thread, at least one).
  int shards = 0;
  /// Halo depth in adjacency hops (OP2_HALO_DEPTH, default 1): how far
  /// each shard's read-only replica extends past its owned region.
  int halo_depth = 1;
  /// Overlap schedule toggle (OP2_SHARD_OVERLAP, default on).  Off
  /// makes the hpx_shard backend wait each halo-exchange fence BEFORE
  /// dispatching the interior span — the "fenced" baseline the overlap
  /// ablation measures against.  Correctness is identical either way.
  bool shard_overlap = true;
  /// Simulated per-round exchange latency in microseconds
  /// (OP2_EXCHANGE_DELAY_US, default 0): the shm transport's progress
  /// thread completes each shard's fence no earlier than round start +
  /// this delay, making the overlap win deterministic and observable
  /// in tests and the ablation.
  int exchange_delay_us = 0;
  /// Wire protocol behind the exchange seam (OP2_WIRE): "" or "raw"
  /// keeps the perfect in-process mailbox transport; "reliable" runs
  /// framed datagrams (CRC32C, sequence numbers, ack + exponential-
  /// backoff retransmit — op2/exchange.hpp) over the in-process
  /// carrier.  Auto-upgraded to reliable while OP2_WIRE_FAULT is
  /// configured, so chaos always meets the protocol built to heal it.
  std::string wire;
  /// Initial per-frame ack deadline for the reliable wire in
  /// milliseconds (OP2_WIRE_TIMEOUT_MS, default 25); attempt k waits
  /// timeout * 2^(k-1).
  int wire_timeout_ms = 25;
  /// Retransmit budget per frame (OP2_WIRE_RETRIES, default 5): after
  /// 1 + retries transmissions without an ack the link is declared
  /// dead and its rounds fail with exchange_error.
  int wire_retries = 5;
};

/// Shards the runtime would use right now: cfg.shards, or (auto) one
/// per worker thread.
int effective_shards(const config& cfg);

/// Convenience constructor for string-selected backends: validates
/// `backend_name` against the registry (throwing the "unknown backend
/// ... available: ..." error) and fills in the matching enum value for
/// built-ins so legacy `.bk` readers stay coherent.
config make_config(const std::string& backend_name, unsigned threads = 1,
                   int block_size = 128, std::size_t static_chunk = 0);

/// Initialises the OP2 runtime: records `cfg`, spins up the fork-join
/// team (forkjoin backend) or resets the hpxlite worker pool (hpx
/// backends) to cfg.threads.  Callable repeatedly; each call drains and
/// replaces the previous worker pool.  Also clears the plan cache, and
/// applies the resilience environment knobs: OP2_FAULT installs a
/// fault-injection spec, OP2_FAILURE_POLICY overrides cfg.on_failure,
/// and OP2_WATCHDOG_MS starts the hpxlite stall watchdog with that
/// timeout (0 disables).
void init(const config& cfg);

/// Tears down worker pools and clears the plan cache.
void finalize();

/// The active configuration (init() must have been called; a default
/// seq/1-thread config is active otherwise).
const config& current_config();

/// Canonical registry name of the active backend ("seq" before init).
const std::string& current_backend_name();

/// The executor op_par_loop dispatches to — the registry's shared
/// instance for current_backend_name() (never destroyed, so references
/// stay valid in asynchronous continuations).
loop_executor& current_executor();

/// The fork-join team for the forkjoin backend (created by init()).
hpxlite::fork_join_team& team();

namespace detail {

/// The fork-join team if one is active, else null — used by the
/// prepared-loop capture to size per-worker reduction slots without
/// triggering team()'s not-initialised error.
hpxlite::fork_join_team* team_if_active() noexcept;

/// Monotonic counter bumped by every init()/finalize(): a prepared
/// loop captured under one runtime configuration (backend, threads,
/// block_size, static_chunk, failure policy) must re-capture after any
/// reconfiguration.  Defined in prepared_loop.cpp.
std::uint64_t prepared_epoch() noexcept;
void bump_prepared_epoch() noexcept;

}  // namespace detail

}  // namespace op2
