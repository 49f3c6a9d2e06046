// The solve phase: the seven Airfoil drivers on one mesh, each warmed
// to tuner convergence and then timed as whole iterations, every
// sample checked bit for bit against the seq oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "airfoil/sharded.hpp"
#include "airfoil/solver.hpp"
#include "bench.hpp"

namespace perfbench {

enum class driver_kind { classic, async, dataflow, sharded };

struct arm_spec {
  std::string name;     // metric suffix: seq, seq_fused, forkjoin, ...
  std::string backend;  // op2 registry name
  unsigned threads = 1;
  bool fuse = true;
  driver_kind kind = driver_kind::classic;
  /// Iterates indirect loops in plan (colour) order.  Such drivers
  /// match seq to rounding and each other bit for bit (the program's
  /// two-tier contract), so they are checked bit for bit against the
  /// coloured reference rather than against seq itself.
  bool plan_order = false;
};

/// seq (1 thread, fusion off — the oracle), seq_fused (1 thread), and
/// the five threaded drivers at `threads` workers.
std::vector<arm_spec> driver_arms(unsigned threads);

/// The threaded drivers only (forkjoin, hpx_foreach, hpx_async,
/// hpx_dataflow, hpx_shard) at `threads` workers.
std::vector<arm_spec> threaded_arms(unsigned threads);

/// What the data set-up built, plus its timings (medians over reps).
struct solve_setup {
  std::unique_ptr<airfoil::sim> sim;
  std::unique_ptr<airfoil::shard_sim> shards;
  std::vector<double> q0;  // free-stream field every sample starts from
  double generate_mesh_s = 0.0;
  double make_sim_s = 0.0;
  double decompose_s = 0.0;
  double data_setup_s = 0.0;  // median of the three together
  std::uint64_t working_set_bytes = 0;  // computed: all dats and maps
  int halo_cells = 0;
};

solve_setup build_setup(const workload& w, const bump& b, int nshards);

/// The seq driver's result after iters_per_sample iterations, and the
/// coloured reference: forkjoin at 1 thread, itself checked against
/// seq to rounding.
struct oracle {
  bool set = false;
  std::vector<double> q;
  std::vector<double> rms;
  bool colored_set = false;
  std::vector<double> colored_q;
  std::string colored_error;  // "" when it agreed with seq
};

/// Computes the coloured reference (needs the seq oracle).  Returns ""
/// when it agrees with seq to rounding, else why not.
std::string build_colored_reference(solve_setup& su, const workload& w,
                                    oracle& truth);

struct solve_options {
  double budget_s = 1.0;   // timed-sample budget for this arm
  /// Time seq and seq_fused too.  Otherwise each runs one sample in the
  /// first round: the oracle and its check.
  bool time_baselines = false;
  /// After the untraced samples, a second batch with op2 profiling on
  /// (the traced run): loop_ms, the shard columns and profiled_*.
  bool profiled = false;
  /// Self-test hook: nudges one value of this arm's q before each check.
  std::string perturb_arm;
  /// Interleaved rounds; 0 takes the workload's.
  int rounds = 0;
};

struct arm_result {
  arm_spec spec;
  std::string config_text;
  // Per round: iterations until every tuned loop converged, and the
  // wall time of init + capture + that warm-up; medians over rounds.
  std::vector<double> warm_iters_round, warm_s_round, first_sample_s;
  double warm_iters = 0.0;
  double warm_s = 0.0;
  std::set<std::string> unconverged;  // never converged by the cap
  double capture_ms = 0.0;  // first sample minus the steady median
  std::vector<double> sample_s;  // wall seconds per timed sample
  std::vector<double> profiled_sample_s;
  double iters_per_s = 0.0;      // fastest quarter of samples
  double ms_per_iter = 0.0;      // median over samples
  double profiled_ms_per_iter = 0.0;  // median over profiled samples
  host_noise noise;
  int checks = 0;
  int failures = 0;
  std::string error;
  // Counters over the timed samples (totals, then per iteration).
  int iters = 0;
  int profiled_iters = 0;
  std::uint64_t tasks = 0, steals = 0, helped = 0, plan_lookups = 0;
  double tasks_per_iter = 0.0;
  double steals_per_iter = 0.0;
  double helped_per_iter = 0.0;
  double plan_lookups_per_iter = 0.0;
  std::size_t dataflow_peak = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t cpu_busy = 0, cpu_steal = 0, cpu_total = 0;
  /// Converged chunk per tuned loop ("res_calc" -> 12).
  std::map<std::string, std::size_t> tuner_chunks;
  // Profiled samples only: ms per iteration by loop row (adt_calc,
  // res_calc, bres_calc, update, save_soln, update_save_soln) and mean
  // ms per call, max over shards; shard exchange and overlap.
  struct loop_total {
    double seconds = 0.0;
    double calls = 0.0;
  };
  std::map<std::string, std::map<int, loop_total>> loop_acc;
  std::map<int, double> exchange_s, overlap_s;
  std::map<std::string, double> loop_ms;
  std::map<std::string, double> loop_call_ms;
  double exchange_ms = 0.0;  // per iteration, max over shards
  double overlap_ms = 0.0;
};

/// Runs `arms` in w.rounds interleaved rounds (every arm once per
/// round, then `after_round`, so a slow stretch of the host hits every
/// arm alike), then reduces each arm's samples.  The first seq round
/// sets the oracle and builds the coloured reference.
std::vector<arm_result> run_arms(const std::vector<arm_spec>& arms,
                                 solve_setup& su, const workload& w,
                                 oracle& truth, const solve_options& opt,
                                 const std::function<void()>& after_round);

}  // namespace perfbench
