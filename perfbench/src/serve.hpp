// The serve phase: Airfoil jobs through op2::service from 8 steady
// tenants (4 at 30x15 cells, 4 at 120x60) plus a bursty tenant, every
// job's checksum checked against a seq reference for its mesh size.
// Its closed-loop capacity is measured in rounds interleaved with the
// solve phase's; the traced run also feeds it an open loop of seeded
// Poisson arrivals, each job timed from its due time.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct serve_result {
  /// seq references plus the median service start (pool, service,
  /// tenant warm-up) over the capacity rounds.
  double setup_s = 0.0;
  int rounds = 0;
  int fills = 0;
  // Open-loop counts (the capacity phase's jobs are only checked).
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;         // threw, or resolved failed/cancelled
  std::uint64_t wrong = 0;          // completed with a wrong checksum
  std::uint64_t checked = 0;        // every job run, both phases
  std::uint64_t capacity_failed = 0;  // failed or wrong, capacity phase
  std::uint64_t over_limit = 0;     // completed past the latency limit
  std::uint64_t peak_running = 0;
  std::vector<double> latency_ms;   // completed steady jobs, from due time
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<double> late_ms;      // generator lateness per submission
  /// Closed-loop capacity: every steady tenant's queue filled at once,
  /// completed jobs over the drain time; upper quartile of the fills.
  double capacity_jobs_per_s = 0.0;
  host_noise noise;  // over the open loop
  unsigned pool_workers = 0;
  unsigned runners = 0;
};

/// The open loop's offered rate (jobs/s) and the latency limit (ms)
/// slo_miss_ratio is judged against, frozen from a calibration (see
/// serve.cpp).
double serve_rate_jobs_per_s();
double serve_latency_limit_ms();

/// The serve phase.  Every capacity round starts the service on a
/// fresh pool (set-up), runs closed-loop fills and stops it, so the
/// rounds can interleave with the solve phase's, which re-initialise
/// the op2 runtime: a slow stretch of the host hits both alike.
class server {
 public:
  /// Computes the seq reference checksums.
  explicit server(std::uint64_t seed);

  void capacity_round(int fills);
  /// Starts the service once more and feeds it an open loop of `jobs`
  /// steady-tenant arrivals plus the bursty tenant's bursts.
  void open_loop(int jobs);
  /// Reduces the rounds into setup_s and capacity_jobs_per_s.
  const serve_result& finish();

 private:
  std::uint64_t seed_;
  double small_ref_ = 0.0;
  double large_ref_ = 0.0;
  double refs_s_ = 0.0;
  std::vector<double> starts_;
  std::vector<double> rates_;
  serve_result res_;
};

}  // namespace perfbench
