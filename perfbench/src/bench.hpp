// Shared pieces of the Airfoil benchmark: workload shapes, the span
// recorder, the metric sink, sample statistics and host readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process started measuring.
double now_s();

// --- workloads --------------------------------------------------------

/// One workload: the mesh the seven drivers solve, how a timed sample
/// is shaped, how much of the run's measuring time the drivers' timed
/// samples get, and how much service work the serve phase does.
struct workload {
  std::string name;
  int imax = 0;
  int jmax = 0;
  /// Iterations per timed sample.  Every sample starts from the
  /// free-stream state, so every sample of every driver ends at the
  /// same iteration count and is checked against the same oracle.
  int iters_per_sample = 0;
  /// Timed samples per driver over the whole run.
  int min_samples = 0;
  int max_samples = 0;
  /// Interleaved rounds of the solve phase: every driver runs once per
  /// round, from a fresh runtime and a fresh tuner each time.
  int rounds = 0;
  /// Data set-ups per run (mesh, sim and shard decomposition);
  /// setup_s reports their median.
  int setup_reps = 0;
  /// Share of --seconds given to the threaded drivers' timed samples.
  double solve_share = 0.0;
  /// Closed-loop fills of the service after every solve round
  /// (service_jobs_per_s is the upper quartile of their drain rates).
  int fills_per_round = 0;
  /// Steady-tenant jobs of the traced run's open loop: 1000 where the
  /// service is the workload (p99 has 10 jobs beyond it), fewer where
  /// it only feeds the per-layer service readings.
  int open_loop_jobs = 0;
};

/// The named workloads; "tiny" is the self-test size.  Throws
/// std::invalid_argument for an unknown name.
workload find_workload(const std::string& name);

/// The seed's perturbation of the mesh: wall-bump height and extent.
/// Shapes (cell, edge and boundary counts) never change with the seed.
struct bump {
  double height = 0.08;
  double begin = 1.5;
  double end = 2.5;
};
bump seeded_bump(std::uint64_t seed);

// --- spans ------------------------------------------------------------

/// One recorded interval: name, start, end (seconds on now_s()'s clock)
/// and the index of the span that contains it (-1 for a root).
struct span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int thread = 0;  // 0 = main thread, 1 = service job runners
};

/// In-memory span store.  Disabled (the untraced runs) it records
/// nothing; enabled it keeps every span until write() at the end.
class tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open main-thread span.
  int open(const std::string& name);
  void close(int id);
  /// Adds a finished span from any thread (service jobs).
  void add(const std::string& name, double start, double end, int parent,
           int thread);

  std::vector<span> spans() const;
  /// Chrome trace-event JSON (ph "X" events, microseconds).
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

tracer& trace();

/// RAII span that always measures its own duration (seconds()) and
/// records itself only while tracing is enabled.
class scoped_span {
 public:
  explicit scoped_span(const std::string& name);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  /// Seconds since construction; closes the span on first call.
  double stop();

 private:
  double start_;
  double seconds_ = -1.0;
  int id_ = -1;
};

// --- metrics ----------------------------------------------------------

struct metric {
  double value = 0.0;
  std::string unit;
};

/// Name -> value with unit, in insertion-independent (sorted) order.
using metric_map = std::map<std::string, metric>;

// --- statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

// --- host readings ----------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat's "cpu" line.
struct cpu_times {
  std::uint64_t busy = 0;   // user + nice + system + irq + softirq
  std::uint64_t steal = 0;
  std::uint64_t total = 0;  // every column
  bool valid = false;
};
cpu_times read_cpu_times();

/// Steal and busy time between two readings, as percent of all CPU
/// time over the interval (0 when /proc/stat is unreadable).
struct host_noise {
  double steal_pct = 0.0;
  double busy_pct = 0.0;
};
host_noise noise_between(const cpu_times& a, const cpu_times& b);

double peak_rss_mib();
/// Last-level cache size the machine reports (bytes; 0 if unknown).
std::uint64_t llc_bytes();
unsigned host_cpus();

}  // namespace perfbench
