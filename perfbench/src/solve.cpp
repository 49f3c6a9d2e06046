#include "solve.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "airfoil/mesh.hpp"
#include "hpxlite/scheduler.hpp"
#include "op2/op2.hpp"

namespace perfbench {

std::vector<arm_spec> driver_arms(unsigned threads) {
  std::vector<arm_spec> arms = {
      {"seq", "seq", 1, false, driver_kind::classic},
      {"seq_fused", "seq", 1, true, driver_kind::classic},
  };
  for (auto& a : threaded_arms(threads)) {
    arms.push_back(std::move(a));
  }
  return arms;
}

std::vector<arm_spec> threaded_arms(unsigned threads) {
  return {
      {"forkjoin", "forkjoin", threads, true, driver_kind::classic, true},
      {"hpx_foreach", "hpx_foreach", threads, true, driver_kind::classic,
       true},
      {"hpx_async", "hpx_async", threads, true, driver_kind::async, true},
      {"hpx_dataflow", "hpx_dataflow", threads, true, driver_kind::dataflow,
       true},
      // Sharded flux loops stage per-edge slots and apply them in global
      // edge order: bit for bit against seq itself.
      {"hpx_shard", "hpx_shard", threads, true, driver_kind::sharded, false},
  };
}

// --- set-up -----------------------------------------------------------

namespace {

std::uint64_t computed_working_set(const airfoil::sim& s) {
  const auto n = [](const op2::op_set& set) {
    return static_cast<std::uint64_t>(set.size());
  };
  const std::uint64_t d = sizeof(double);
  const std::uint64_t i = sizeof(int);
  return n(s.nodes) * 2 * d                     // p_x
         + n(s.cells) * (4 + 4 + 1 + 4) * d     // p_q p_qold p_adt p_res
         + n(s.bedges) * i                      // p_bound
         + n(s.cells) * 4 * i                   // pcell
         + n(s.edges) * (2 + 2) * i             // pedge pecell
         + n(s.bedges) * (2 + 1) * i;           // pbedge pbecell
}

}  // namespace

solve_setup build_setup(const workload& w, const bump& b, int nshards) {
  airfoil::mesh_params mp;
  mp.imax = w.imax;
  mp.jmax = w.jmax;
  mp.bump_height = b.height;
  mp.bump_begin = b.begin;
  mp.bump_end = b.end;

  solve_setup su;
  std::vector<double> gen, mk, dec, total;
  for (int rep = 0; rep < std::max(1, w.setup_reps); ++rep) {
    // Release the previous repetition first: peak memory stays at one
    // set-up, which matters on the DRAM-sized mesh.
    su.shards.reset();
    su.sim.reset();
    scoped_span all("setup");
    scoped_span g("airfoil::generate_mesh");
    auto mesh = airfoil::generate_mesh(mp);
    gen.push_back(g.stop());
    scoped_span m("airfoil::make_sim");
    su.sim = std::make_unique<airfoil::sim>(airfoil::make_sim(std::move(mesh)));
    mk.push_back(m.stop());
    scoped_span d("airfoil::make_shard_sim");
    su.shards = std::make_unique<airfoil::shard_sim>(
        airfoil::make_shard_sim(su.sim->mesh, nshards));
    dec.push_back(d.stop());
    total.push_back(all.stop());
  }
  su.generate_mesh_s = median(gen);
  su.make_sim_s = median(mk);
  su.decompose_s = median(dec);
  su.data_setup_s = median(total);
  const auto q = su.sim->p_q.data<double>();
  su.q0.assign(q.begin(), q.end());
  su.working_set_bytes = computed_working_set(*su.sim);
  for (const auto& sh : su.shards->shards) {
    su.halo_cells += sh.local.cells.size() - sh.nowned;
  }
  return su;
}

// --- one arm ------------------------------------------------------------

namespace {

const char* driver_call(driver_kind k) {
  switch (k) {
    case driver_kind::classic:
      return "airfoil::run_classic";
    case driver_kind::async:
      return "airfoil::run_async";
    case driver_kind::dataflow:
      return "airfoil::run_dataflow";
    case driver_kind::sharded:
      return "airfoil::run_sharded";
  }
  return "?";
}

airfoil::run_result run_driver(const arm_spec& a, solve_setup& su, int k) {
  switch (a.kind) {
    case driver_kind::classic:
      return airfoil::run_classic(*su.sim, k);
    case driver_kind::async:
      return airfoil::run_async(*su.sim, k);
    case driver_kind::dataflow:
      return airfoil::run_dataflow(*su.sim, k);
    case driver_kind::sharded:
      return airfoil::run_sharded(*su.shards, k);
  }
  throw std::logic_error("unknown driver");
}

void reset_driver(const arm_spec& a, solve_setup& su) {
  if (a.kind == driver_kind::sharded) {
    airfoil::scatter_q(*su.shards, su.q0);
  } else {
    airfoil::reset_solution(*su.sim);
  }
}

/// Compares the arm's field and rms history with the oracle (setting
/// it on the first seq sample).  Returns "" on a match, else why not.
std::string check_sample(const arm_spec& a, solve_setup& su,
                         const airfoil::run_result& r, oracle& truth,
                         bool perturb) {
  std::vector<double> gathered;
  std::span<double> q;
  if (a.kind == driver_kind::sharded) {
    gathered = airfoil::gather_q(*su.shards);
    q = gathered;
  } else {
    q = su.sim->p_q.data<double>();
  }
  if (perturb && !q.empty()) {
    q[q.size() / 2] = std::nextafter(q[q.size() / 2], 1e300);
  }
  if (!truth.set) {
    if (a.name != "seq") {
      return "no seq oracle yet";
    }
    truth.q.assign(q.begin(), q.end());
    truth.rms = r.rms_history;
    truth.set = true;
    return "";
  }
  if (a.plan_order && !truth.colored_set) {
    return "no coloured reference";
  }
  const auto& ref = a.plan_order ? truth.colored_q : truth.q;
  if (q.size() != ref.size() ||
      std::memcmp(q.data(), ref.data(), q.size() * sizeof(double)) != 0) {
    std::size_t bad = 0;
    while (bad < q.size() && bad < ref.size() &&
           std::memcmp(&q[bad], &ref[bad], sizeof(double)) == 0) {
      ++bad;
    }
    std::ostringstream why;
    why.precision(17);
    why << "p_q differs from " << (a.plan_order ? "the coloured reference" : "seq")
        << " at index " << bad;
    if (bad < q.size() && bad < ref.size()) {
      why << " (" << q[bad] << " vs " << ref[bad] << ")";
    }
    return why.str();
  }
  if (r.rms_history.size() != truth.rms.size()) {
    return "rms history length differs from seq";
  }
  for (std::size_t i = 0; i < truth.rms.size(); ++i) {
    const double a_ = r.rms_history[i];
    const double b_ = truth.rms[i];
    if (!(std::fabs(a_ - b_) <= 1e-12 * std::max(std::fabs(a_), std::fabs(b_)))) {
      std::ostringstream why;
      why.precision(17);
      why << "rms[" << i << "] " << a_ << " vs seq " << b_;
      return why.str();
    }
  }
  return "";
}

/// Warm-up cap in iterations: the grain controller locks its best
/// candidate after this many probing feeds, so every loop fed at least
/// once per iteration has converged by then.
const int kWarmCapIters = hpxlite::grain_controller::options{}.max_probe_feeds;

/// Tuned loops of the active backend/thread count that have not yet
/// converged once, among those fed at least once per iteration of the
/// `iters` run so far (a loop fed once per sample, like the first
/// iteration's standalone save_soln, cannot reach the probe-feed bound
/// within the cap and is left out, as is a controller never asked for a
/// chunk, which ignores its feeds).  A loop that converged and went
/// back to probing on a slow run is the program's steady behaviour, not
/// warm-up: on the DRAM mesh that happens every few iterations.  The
/// tuner is reset before every round, so every feed counted here
/// happened in this round.
std::vector<std::string> tuner_unconverged(const std::string& backend,
                                           unsigned threads, int iters) {
  std::vector<std::string> out;
  for (const auto& e : op2::tuner::snapshot()) {
    if (e.backend == backend && e.threads == threads && e.chunk != 0 &&
        e.state == hpxlite::grain_controller::state::probing &&
        e.total_probe_feeds == e.probe_feeds &&
        e.total_feeds >= static_cast<std::uint64_t>(iters)) {
      out.push_back(e.loop);
    }
  }
  return out;
}

std::string strip_shard(const std::string& name) {
  const auto at = name.find('@');
  return at == std::string::npos ? name : name.substr(0, at);
}

int shard_of(const std::string& name) {
  const auto at = name.find("@s");
  return at == std::string::npos ? 0 : std::atoi(name.c_str() + at + 2);
}

/// Adds one profiling snapshot to the arm's per-loop totals, keyed by
/// loop row and shard.  The update_save_soln row is the whole
/// cell-direct tail: the fused launch plus the standalone update and
/// save_soln launches, so it exists for fused and unfused drivers alike.
void add_loop_rows(const std::map<std::string, op2::loop_profile>& snap,
                   arm_result& res) {
  for (const auto& [name, prof] : snap) {
    const bool fused = name.find('+') != std::string::npos;
    const std::string key = fused ? "update_save_soln" : strip_shard(name);
    auto& a = res.loop_acc[key][shard_of(name)];
    a.seconds += prof.total_seconds;
    a.calls += static_cast<double>(prof.invocations);
    if (key == "update" || key == "save_soln") {
      res.loop_acc["update_save_soln"][shard_of(name)].seconds +=
          prof.total_seconds;
    }
  }
}

hpxlite::scheduler_stats pool_stats() {
  return hpxlite::runtime::exists() ? hpxlite::runtime::get().stats()
                                    : hpxlite::scheduler_stats{};
}

std::string describe(const arm_spec& a, const op2::config& cfg,
                     const solve_setup& su) {
  std::ostringstream s;
  s << "backend=" << op2::current_backend_name() << " threads=" << cfg.threads
    << " block=" << cfg.block_size << " fuse=" << (cfg.fuse ? "on" : "off")
    << " tuner=" << op2::to_string(cfg.tuner)
    << " chunker=" << (cfg.chunker.empty() ? "auto" : cfg.chunker)
    << " shards="
    << (a.kind == driver_kind::sharded
            ? std::to_string(su.shards->shards.size())
            : std::string("-"))
    << " wire=" << (cfg.wire.empty() ? "raw" : cfg.wire);
  return s.str();
}

void run_round(const arm_spec& spec, solve_setup& su, const workload& w,
               oracle& truth, const solve_options& opt, arm_result& res) {
  const int k = w.iters_per_sample;
  const bool perturb = opt.perturb_arm == spec.name;
  const bool timed_arm = opt.time_baselines || spec.backend != "seq";
  scoped_span arm_span("arm/" + spec.name);
  const auto cpu0 = read_cpu_times();

  auto cfg = op2::make_config(spec.backend, spec.threads);
  cfg.fuse = spec.fuse;
  const double warm0 = now_s();
  {
    scoped_span s("op2::init");
    // A fresh tuner as well as a fresh runtime: every round pays the
    // capture and the warm-up to convergence that a new process pays
    // once, and no round times a loop that is still probing.
    op2::tuner::reset();
    op2::init(cfg);
  }
  res.spec = spec;
  res.config_text = describe(spec, op2::current_config(), su);
  const std::string backend = op2::current_backend_name();

  // One sample = reset (untimed) + k iterations (timed) + check
  // (untimed).  Returns the timed seconds.
  const auto sample = [&](const char* phase) {
    {
      scoped_span r("reset");
      reset_driver(spec, su);
    }
    scoped_span s(std::string(phase) + "/" + spec.name);
    airfoil::run_result r;
    {
      scoped_span call(driver_call(spec.kind));
      r = run_driver(spec, su, k);
    }
    const double secs = s.stop();
    scoped_span c("check");
    const auto why = check_sample(spec, su, r, truth, perturb);
    ++res.checks;
    if (!why.empty()) {
      ++res.failures;
      if (res.error.empty()) {
        res.error = why;
      }
    }
    return secs;
  };

  try {
    // Warm-up: the first sample captures every launch descriptor; keep
    // going until every tuned loop has converged once, up to the cap.
    const double first = sample("warmup");
    int warm = k;
    while (warm < kWarmCapIters &&
           !tuner_unconverged(backend, cfg.threads, warm).empty()) {
      sample("warmup");
      warm += k;
    }
    res.first_sample_s.push_back(first);
    res.warm_iters_round.push_back(warm);
    res.warm_s_round.push_back(now_s() - warm0);
    for (auto& loop : tuner_unconverged(backend, cfg.threads, warm)) {
      res.unconverged.insert(std::move(loop));
    }
    // The oracle-only arms stop here: their one sample set or checked
    // the oracle.
    if (timed_arm) {
      const auto sched0 = pool_stats();
      const auto plans0 = op2::plan_cache_lookups();
      const auto wire0 = su.shards->xq->wire_stats();
      op2::reset_dataflow_window_peak();
      const int rounds = opt.rounds > 0 ? opt.rounds : w.rounds;
      const int per_round = (w.min_samples + rounds - 1) / rounds;
      const auto timed = [&](const char* phase, std::vector<double>& out,
                             double budget_s) {
        const double t0 = now_s();
        int n = 0;
        while (n < per_round ||
               (now_s() - t0 < budget_s / rounds &&
                n < w.max_samples / rounds)) {
          out.push_back(sample(phase));
          ++n;
        }
        return k * n;
      };
      res.iters += timed("sample", res.sample_s, opt.budget_s);
      const auto sched1 = pool_stats();
      res.tasks += sched1.tasks_executed - sched0.tasks_executed;
      res.steals += sched1.tasks_stolen - sched0.tasks_stolen;
      res.helped +=
          sched1.helped_while_waiting - sched0.helped_while_waiting;
      res.plan_lookups += op2::plan_cache_lookups() - plans0;
      res.dataflow_peak = std::max(res.dataflow_peak,
                                   op2::get_dataflow_window_stats().peak);

      if (opt.profiled) {
        // Flush the untimed batch's last exchange round while profiling
        // is still off, so it is not counted as a profiled round.
        su.shards->xq->flush_stats();
        op2::profiling::reset();
        op2::profiling::enable(true);
        // Half the budget: these samples feed per-layer readings only.
        res.profiled_iters += timed("profiled-sample", res.profiled_sample_s,
                                    opt.budget_s / 2);
        su.shards->xq->flush_stats();
        add_loop_rows(op2::profiling::snapshot(), res);
        if (spec.kind == driver_kind::sharded) {
          for (const auto& [shard, p] : op2::profiling::shard_snapshot()) {
            res.exchange_s[shard] += p.exchange_seconds;
            res.overlap_s[shard] += p.overlap_seconds;
          }
        }
        op2::profiling::enable(false);
        op2::profiling::reset();
      }
      const auto wire1 = su.shards->xq->wire_stats();
      res.retransmits += wire1.retransmits - wire0.retransmits;
      res.wire_errors += wire1.wire_errors - wire0.wire_errors;
      for (const auto& e : op2::tuner::snapshot()) {
        if (e.backend == backend && e.threads == cfg.threads &&
            e.total_feeds > 0) {
          res.tuner_chunks[e.loop] = e.chunk;
        }
      }
    }
  } catch (const std::exception& e) {
    ++res.checks;
    ++res.failures;
    res.error = std::string("threw: ") + e.what();
    op2::profiling::enable(false);
  }
  const auto cpu1 = read_cpu_times();
  res.cpu_busy += cpu1.busy - cpu0.busy;
  res.cpu_steal += cpu1.steal - cpu0.steal;
  res.cpu_total += cpu1.total - cpu0.total;
  op2::finalize();
}

void finish_arm(arm_result& res, int k) {
  // The rate of the fastest quarter of samples: other tenants of the
  // host only ever slow a sample down, and on a shared VM they did so
  // for stretches of tens of seconds (sample times doubling for a third
  // of a run), which moved the median by more than the drivers differ.
  const double fast_s = percentile(res.sample_s, 0.25);
  res.iters_per_s = fast_s > 0.0 ? static_cast<double>(k) / fast_s : 0.0;
  res.ms_per_iter = 1e3 * median(res.sample_s) / static_cast<double>(k);
  res.warm_iters = median(res.warm_iters_round);
  res.warm_s = median(res.warm_s_round);
  if (!res.sample_s.empty()) {
    res.capture_ms =
        1e3 * (median(res.first_sample_s) - median(res.sample_s));
  }
  if (!res.profiled_sample_s.empty()) {
    res.profiled_ms_per_iter =
        1e3 * median(res.profiled_sample_s) / static_cast<double>(k);
  }
  const double per = 1.0 / static_cast<double>(std::max(1, res.iters));
  res.tasks_per_iter = per * static_cast<double>(res.tasks);
  res.steals_per_iter = per * static_cast<double>(res.steals);
  res.helped_per_iter = per * static_cast<double>(res.helped);
  res.plan_lookups_per_iter = per * static_cast<double>(res.plan_lookups);
  const double pper = 1.0 / static_cast<double>(std::max(1, res.profiled_iters));
  for (const auto& [key, shards] : res.loop_acc) {
    double worst = 0.0;
    double worst_call = 0.0;
    for (const auto& [s, a] : shards) {
      worst = std::max(worst, a.seconds);
      if (a.calls > 0.0) {
        worst_call = std::max(worst_call, a.seconds / a.calls);
      }
    }
    res.loop_ms[key] = 1e3 * worst * pper;
    res.loop_call_ms[key] = 1e3 * worst_call;
  }
  for (const auto& [shard, secs] : res.exchange_s) {
    res.exchange_ms = std::max(res.exchange_ms, 1e3 * secs * pper);
  }
  for (const auto& [shard, secs] : res.overlap_s) {
    res.overlap_ms = std::max(res.overlap_ms, 1e3 * secs * pper);
  }
  if (res.cpu_total > 0) {
    const auto total = static_cast<double>(res.cpu_total);
    res.noise.steal_pct = 100.0 * static_cast<double>(res.cpu_steal) / total;
    res.noise.busy_pct = 100.0 * static_cast<double>(res.cpu_busy) / total;
  }
}

}  // namespace

std::vector<arm_result> run_arms(const std::vector<arm_spec>& arms,
                                 solve_setup& su, const workload& w,
                                 oracle& truth, const solve_options& opt,
                                 const std::function<void()>& after_round) {
  std::vector<arm_result> out(arms.size());
  const int rounds = opt.rounds > 0 ? opt.rounds : w.rounds;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (round > 0 && !opt.time_baselines && arms[i].backend == "seq") {
        continue;  // oracle-only: one sample in the first round
      }
      run_round(arms[i], su, w, truth, opt, out[i]);
      if (arms[i].name == "seq" && !truth.colored_set) {
        truth.colored_error = build_colored_reference(su, w, truth);
      }
    }
    if (after_round) {
      after_round();
    }
  }
  for (auto& r : out) {
    finish_arm(r, w.iters_per_sample);
  }
  return out;
}

std::string build_colored_reference(solve_setup& su, const workload& w,
                                    oracle& truth) {
  scoped_span span("colored-reference");
  op2::init(op2::make_config("forkjoin", 1));
  airfoil::reset_solution(*su.sim);
  const auto r = airfoil::run_classic(*su.sim, w.iters_per_sample);
  const auto q = su.sim->p_q.data<double>();
  truth.colored_q.assign(q.begin(), q.end());
  truth.colored_set = true;
  op2::finalize();
  // Colour order reassociates the indirect increments: agreement with
  // seq is to rounding, judged against the field's magnitude.
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    scale = std::max(scale, std::fabs(truth.q[i]));
    worst = std::max(worst, std::fabs(q[i] - truth.q[i]));
  }
  if (q.size() != truth.q.size() || !(worst <= 1e-12 * scale)) {
    std::ostringstream why;
    why << "coloured reference differs from seq by " << worst;
    return why.str();
  }
  for (std::size_t i = 0; i < truth.rms.size(); ++i) {
    const double a = r.rms_history[i];
    const double b = truth.rms[i];
    if (!(std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b)))) {
      return "coloured reference rms differs from seq";
    }
  }
  return "";
}

}  // namespace perfbench
