#include "op2/tuner.hpp"

#include <mutex>
#include <variant>

#include "op2/loop_executor.hpp"

namespace op2::tuner {

namespace {

struct registry_entry {
  std::string loop;
  std::string backend;
  unsigned threads = 1;
  unsigned bucket = 0;
  std::shared_ptr<hpxlite::grain_controller> controller;
};

struct tuner_state {
  std::mutex mutex;
  std::vector<registry_entry> entries;  // acquisition order
};

tuner_state& state() {
  static tuner_state s;
  return s;
}

}  // namespace

unsigned size_bucket(std::size_t set_size) {
  unsigned bucket = 0;
  while (set_size > 1) {
    set_size >>= 1;
    ++bucket;
  }
  return bucket;
}

bool applicable(const loop_executor& exec) {
  const config& cfg = current_config();
  if (cfg.tuner == tuner_mode::off) {
    return false;
  }
  if (!exec.capabilities().honors_chunk) {
    return false;
  }
  // Only the auto-partitioner is replaced; an explicit chunker choice
  // (static/dynamic/guided) is always respected as configured.
  if (!cfg.chunker.empty()) {
    return std::holds_alternative<hpxlite::auto_chunk_size>(
        parse_chunk_spec(cfg.chunker));
  }
  return cfg.static_chunk == 0;
}

std::shared_ptr<hpxlite::grain_controller> acquire(const std::string& loop,
                                                   std::size_t set_size) {
  const config& cfg = current_config();
  const std::string& backend = current_backend_name();
  const unsigned bucket = size_bucket(set_size);

  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& e : s.entries) {
    if (e.loop == loop && e.backend == backend && e.threads == cfg.threads &&
        e.bucket == bucket) {
      return e.controller;
    }
  }
  s.entries.push_back({loop, backend, cfg.threads, bucket,
                       std::make_shared<hpxlite::grain_controller>()});
  return s.entries.back().controller;
}

std::vector<entry_info> snapshot() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<entry_info> out;
  out.reserve(s.entries.size());
  for (const auto& e : s.entries) {
    entry_info info;
    info.loop = e.loop;
    info.backend = e.backend;
    info.threads = e.threads;
    info.bucket = e.bucket;
    info.chunk = e.controller->current_chunk();
    info.state = e.controller->current_state();
    info.total_feeds = e.controller->uses();
    out.push_back(std::move(info));
  }
  return out;
}

void reset() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.entries.clear();
}

}  // namespace op2::tuner
