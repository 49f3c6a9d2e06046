// The capture-time grain choice for prepared loops.
//
// When a prepared loop is captured on a backend that honours chunk
// sizes, and the configuration leaves the grain to the runtime (the
// auto chunker, OP2_TUNER=on), its launch is given a static chunk of
// hpxlite::default_chunk(n, threads) = max(1, n / (4 * threads)) plan
// blocks, where n is the block count of the loop's widest colour (all
// blocks for a direct loop).  Every replay runs with that chunk: hpx
// for_each partitions each colour by it, forkjoin deals it round-robin.
// Nothing is timed, probed or re-chosen; a recapture (a resized set,
// a new runtime epoch) applies the same rule again.
//
// The registry records each choice per (loop name × backend × thread
// count × set-size bucket), for tests, benchmarks and the profiling
// columns.  It lives for the process, like the profiling slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hpxlite/grain_controller.hpp"
#include "op2/runtime.hpp"

namespace op2 {

class loop_executor;

namespace tuner {

/// Power-of-two bucket of a set size (floor(log2(n)), 0 for n <= 1):
/// meshes within 2x of each other share a registry entry.
unsigned size_bucket(std::size_t set_size);

/// True when the active configuration wants `exec`'s loops given a
/// capture-time chunk: tuner mode is on, the executor honours the chunk
/// spec, and the configured chunker is the auto-partitioner (an
/// explicit static / dynamic / guided choice is always respected).
bool applicable(const loop_executor& exec);

/// The registry record for `loop` iterating a set of `set_size`
/// elements under the current backend/thread configuration, created on
/// first use.
std::shared_ptr<hpxlite::grain_controller> acquire(const std::string& loop,
                                                   std::size_t set_size);

/// One registry entry, for tests and benchmarks.
struct entry_info {
  std::string loop;
  std::string backend;
  unsigned threads = 1;
  unsigned bucket = 0;
  std::size_t chunk = 0;
  hpxlite::grain_controller::state state =
      hpxlite::grain_controller::state::probing;
  std::uint64_t probe_feeds = 0;        // always 0: nothing is probed
  std::uint64_t total_probe_feeds = 0;  // always 0
  std::uint64_t total_feeds = 0;        // captures that chose the chunk
};

/// All live entries, in acquisition order.
std::vector<entry_info> snapshot();

/// Drops every entry (tests and benchmarks).
void reset();

}  // namespace tuner
}  // namespace op2
