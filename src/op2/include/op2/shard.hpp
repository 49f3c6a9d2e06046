// Shard-aware decomposition — N runtime shards in one process.
//
// The op2 core's "one global address space" model is extended here into
// owner/halo partitions: a primary set (cells, for airfoil) is split
// into N shards, each owning a contiguous-by-global-id slice plus a
// read-only halo of depth `halo_depth` replicated from neighbouring
// shards.  Per shard, the local element order is
//
//   [ owned elements, ascending global id | halo elements, ascending ]
//
// so `owned_count()` is simultaneously the owned-region size and the
// first halo-local index.  Import/export lists are per directed shard
// pair, both sides sorted by ascending global id, so a halo exchange is
// a pack (gather export rows) + publish + consume + unpack (scatter
// into the halo region) with no per-element index traffic on the wire.
//
// Execution model: a shard's loops run inside a `shard_scope`, which
// makes the thread-local `shard_context` visible to op_par_loop.  The
// erased loop closures clamp iteration to `[0, iterate_end)` and gate
// any chunk that crosses `interior_end` on the shard's `shard_fence` —
// the future of the in-flight halo exchange.  That keeps EVERY backend
// correct (the seq floor and every degradation-ladder rung run the same
// closures); the `hpx_shard` backend additionally schedules the
// interior span before waiting the fence so the exchange overlaps
// interior computation.
//
// Determinism: the decomposition is a pure function of (partitioning,
// adjacency map, depth).  Combined with the tie-broken RCB in
// partition.hpp this makes shard layouts reproducible across runs —
// the invariant golden tests rely on.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <vector>

#include "hpxlite/future.hpp"
#include "hpxlite/spinlock.hpp"
#include "op2/map.hpp"
#include "op2/partition.hpp"

namespace op2 {

// ---------------------------------------------------------------------
// shard_fence — completion gate for one shard's in-flight halo exchange.
//
// One fence per shard, re-armed every exchange round; its address is
// stable so prepared-loop closures may capture the pointer once.  The
// producer side (the exchange progress thread) calls complete() after
// the halo region is unpacked; consumers call wait(), which is a no-op
// once the round is complete.  wait() is concurrent-safe (it rides
// shared_future) and, on an hpxlite worker, helps execute queued tasks
// while blocked, so fencing from inside a parallel loop cannot deadlock
// the pool.
//
// arm() must not race outstanding waiters: the driver's stage structure
// (all of a round's loops finish before the next exchange starts)
// guarantees that.
class shard_fence {
 public:
  shard_fence() = default;
  shard_fence(const shard_fence&) = delete;
  shard_fence& operator=(const shard_fence&) = delete;

  /// Starts a new exchange round: waiters block until complete().
  void arm() {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    promise_ = hpxlite::promise<void>();
    gate_ = promise_.get_future().share();
    blocked_seconds_ = 0.0;
    exchange_seconds_ = 0.0;
    armed_at_ = std::chrono::steady_clock::now();
    armed_ = true;
    failed_.store(false, std::memory_order_release);
    ready_.store(false, std::memory_order_release);
  }

  /// Producer side: the halo region is filled; release the waiters.
  /// The release store on ready_ orders the unpack writes before any
  /// fast-path waiter's reads.
  void complete() {
    hpxlite::promise<void> p;
    {
      std::lock_guard<hpxlite::spinlock> lock(lock_);
      if (!armed_) {
        return;
      }
      armed_ = false;  // a round resolves exactly once
      exchange_seconds_ =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        armed_at_)
              .count();
      p = std::move(promise_);
    }
    // ready_ first, so a waiter released by set_value() already sees
    // ready() == true; the release store still orders the producer's
    // halo writes before any fast-path waiter's reads.
    ready_.store(true, std::memory_order_release);
    p.set_value();
  }

  /// Producer side, failure flavour: the round cannot complete (a dead
  /// link, a shut-down transport).  Releases the waiters by completing
  /// the gate with `err` — every wait() of this round (the gated
  /// boundary chunks of every backend, including each retry/ladder
  /// rung) rethrows it, so the failure surfaces through the normal
  /// loop-failure machinery instead of hanging the fence.
  void complete_error(std::exception_ptr err) {
    hpxlite::promise<void> p;
    {
      std::lock_guard<hpxlite::spinlock> lock(lock_);
      if (!armed_) {
        return;
      }
      armed_ = false;  // a round resolves exactly once
      exchange_seconds_ =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        armed_at_)
              .count();
      p = std::move(promise_);
    }
    failed_.store(true, std::memory_order_release);
    ready_.store(true, std::memory_order_release);
    p.set_exception(std::move(err));
  }

  /// Consumer side: returns once the current round (if any) completed;
  /// rethrows the round's error if it completed via complete_error().
  /// Records how long this call actually blocked; concurrent waiters
  /// overlap, so the round's blocked time is the max, not the sum.
  void wait() const {
    if (ready_.load(std::memory_order_acquire) &&
        !failed_.load(std::memory_order_acquire)) {
      return;
    }
    hpxlite::shared_future<void> gate;
    {
      std::lock_guard<hpxlite::spinlock> lock(lock_);
      if (!gate_.valid()) {
        return;  // never armed
      }
      gate = gate_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    gate.wait();
    const double blocked =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    {
      std::lock_guard<hpxlite::spinlock> lock(lock_);
      if (blocked > blocked_seconds_) {
        blocked_seconds_ = blocked;
      }
    }
    gate.get();  // no-op on success; rethrows a complete_error() round
  }

  bool ready() const { return ready_.load(std::memory_order_acquire); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Stats for the most recently completed round (exchange = armed →
  /// complete, blocked = longest wait() stall; overlap = the hidden
  /// remainder).  Valid after complete(), consumed before re-arm.
  double last_exchange_seconds() const {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    return exchange_seconds_;
  }
  double last_blocked_seconds() const {
    std::lock_guard<hpxlite::spinlock> lock(lock_);
    return blocked_seconds_;
  }

 private:
  mutable hpxlite::spinlock lock_;
  hpxlite::promise<void> promise_;
  hpxlite::shared_future<void> gate_;
  std::atomic<bool> ready_{true};
  std::atomic<bool> failed_{false};
  bool armed_ = false;
  std::chrono::steady_clock::time_point armed_at_{};
  double exchange_seconds_ = 0.0;
  mutable double blocked_seconds_ = 0.0;
};

// ---------------------------------------------------------------------
// shard_context — per-loop execution window, installed by shard_scope.
//
// interior_end: first element whose inputs depend on the in-flight
//               exchange; chunks reaching past it gate on `fence`.
// iterate_end:  first element NOT executed (clamps off the halo suffix
//               for loops that must touch owned elements only).
// A loop whose set is laid out interior-first (see shard.hpp header
// comment) needs nothing else: clamping + gating in the erased closures
// makes the semantics identical on every backend.
struct shard_context {
  bool active = false;
  int shard = 0;
  int interior_end = std::numeric_limits<int>::max();
  int iterate_end = std::numeric_limits<int>::max();
  const shard_fence* fence = nullptr;

  /// Blocks until the shard's exchange round completed (no-op without a
  /// fence or once complete).
  void gate() const {
    if (fence != nullptr) {
      fence->wait();
    }
  }

  friend bool operator==(const shard_context&,
                         const shard_context&) = default;
};

namespace detail {
/// The calling thread's ambient shard context (inactive by default).
const shard_context& current_shard_context();
void set_current_shard_context(const shard_context& ctx);
}  // namespace detail

/// RAII: installs `ctx` as the thread's ambient shard context for the
/// op_par_loops issued in this scope; restores the previous one on
/// exit.  Scopes nest (the driver runs one scope per shard task).
class shard_scope {
 public:
  explicit shard_scope(const shard_context& ctx)
      : prev_(detail::current_shard_context()) {
    detail::set_current_shard_context(ctx);
  }
  ~shard_scope() { detail::set_current_shard_context(prev_); }
  shard_scope(const shard_scope&) = delete;
  shard_scope& operator=(const shard_scope&) = delete;

 private:
  shard_context prev_;
};

// ---------------------------------------------------------------------
// Owner/halo partition of one primary set.

/// One directed neighbour relation: `elements` are global ids of the
/// primary set, ascending.  For an import link they are elements owned
/// by `peer` and replicated here; for an export link, elements owned
/// here that `peer` replicates.  Matching import/export links list the
/// SAME elements in the SAME order — the wire format carries data only.
struct shard_link {
  int peer = -1;
  std::vector<int> elements;
};

/// One shard's view of the partitioned set.
struct shard_part {
  std::vector<int> owned;  // global ids, ascending
  std::vector<int> halo;   // global ids, ascending (all depths merged)
  std::vector<shard_link> imports;  // sorted by peer
  std::vector<shard_link> exports;  // sorted by peer
  /// Dense global → local translation (-1 = not present).  Local ids
  /// are owned-first: owned[i] ↦ i, halo[j] ↦ owned.size() + j.
  std::vector<int> local_of;

  int owned_count() const { return static_cast<int>(owned.size()); }
  int halo_count() const { return static_cast<int>(halo.size()); }
  int local_count() const {
    return static_cast<int>(owned.size() + halo.size());
  }
  /// Global id of local element `l`.
  int global_of(int l) const {
    return l < owned_count()
               ? owned[static_cast<std::size_t>(l)]
               : halo[static_cast<std::size_t>(l - owned_count())];
  }
};

/// The full decomposition: ownership plus every shard's halo and
/// import/export lists.  A pure, deterministic function of its inputs.
struct halo_partition {
  int nshards = 1;
  int halo_depth = 1;
  partitioning parts;  // owner of each primary element
  std::vector<shard_part> shards;
};

/// Builds the owner/halo decomposition of `parts`'s element set.
/// `via` is any map whose TARGET is the partitioned set (for airfoil,
/// pecell: edges → cells); two elements are adjacent when some row of
/// `via` references both.  The halo of a shard is everything reachable
/// from its owned region in ≤ `halo_depth` adjacency hops, minus the
/// owned region itself.  Throws std::invalid_argument on a map whose
/// target size disagrees with `parts` or on halo_depth < 1.
halo_partition build_halo_partition(const partitioning& parts,
                                    const op_map& via, int halo_depth);

}  // namespace op2
