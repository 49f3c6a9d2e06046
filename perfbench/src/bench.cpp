#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- workloads --------------------------------------------------------

namespace {

const std::vector<workload>& workloads() {
  // name, imax, jmax, iters/sample, min/max samples, rounds, setup
  // reps, solve share, fills per round, open-loop jobs
  static const std::vector<workload> all = {
      {"airfoil-paper", 400, 100, 10, 16, 400, 16, 3, 0.50, 2, 300},
      {"airfoil-dram", 2800, 700, 2, 4, 40, 2, 2, 0.30, 8, 300},
      {"service-mix", 120, 60, 10, 16, 400, 8, 3, 0.30, 8, 1000},
      {"tiny", 24, 12, 3, 2, 4, 2, 2, 0.50, 2, 40},
  };
  return all;
}

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

workload find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

bump seeded_bump(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eedb0b5ULL;
  bump b;
  b.height = 0.06 + 0.04 * unit(state);
  b.begin = 1.4 + 0.2 * unit(state);
  b.end = b.begin + 0.9 + 0.2 * unit(state);
  return b;
}

// --- spans ------------------------------------------------------------

int tracer::open(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_s(), 0.0, parent, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void tracer::close(int id) {
  if (id < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything above it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) {
      break;
    }
  }
}

void tracer::add(const std::string& name, double start, double end,
                 int parent, int thread) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, thread});
}

std::vector<span> tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << s.thread << ", \"ts\": " << s.start * 1e6
        << ", \"dur\": " << (s.end - s.start) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}" << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

tracer& trace() {
  static tracer t;
  return t;
}

scoped_span::scoped_span(const std::string& name)
    : start_(now_s()), id_(trace().open(name)) {}

scoped_span::~scoped_span() { stop(); }

double scoped_span::stop() {
  if (seconds_ < 0.0) {
    seconds_ = now_s() - start_;
    trace().close(id_);
  }
  return seconds_;
}

// --- statistics -------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- host readings ----------------------------------------------------

cpu_times read_cpu_times() {
  cpu_times t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") {
    return t;
  }
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t col[8] = {};
  for (auto& c : col) {
    if (!(in >> c)) {
      return t;
    }
  }
  t.busy = col[0] + col[1] + col[2] + col[5] + col[6];
  t.steal = col[7];
  for (const auto c : col) {
    t.total += c;
  }
  t.valid = true;
  return t;
}

host_noise noise_between(const cpu_times& a, const cpu_times& b) {
  host_noise n;
  if (!a.valid || !b.valid || b.total <= a.total) {
    return n;
  }
  const auto total = static_cast<double>(b.total - a.total);
  n.steal_pct = 100.0 * static_cast<double>(b.steal - a.steal) / total;
  n.busy_pct = 100.0 * static_cast<double>(b.busy - a.busy) / total;
  return n;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) {
      continue;
    }
    std::uint64_t v = 0;
    std::size_t pos = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(text[pos] - '0');
      ++pos;
    }
    if (pos < text.size() && (text[pos] == 'K' || text[pos] == 'k')) {
      v *= 1024;
    } else if (pos < text.size() && text[pos] == 'M') {
      v *= 1024 * 1024;
    }
    best = std::max(best, v);
  }
  return best;
}

unsigned host_cpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
