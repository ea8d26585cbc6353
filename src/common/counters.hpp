// Process-wide event counters for the H-arithmetic hot path: QR+SVD
// recompressions, rounded additions and their fast paths, lazy-accumulator
// updates/flushes, and workspace arena hits/misses.
//
// They live in `common` (not `core`) because the rk and la layers bump them
// and must not depend on higher layers. All operations are relaxed atomics:
// the counters are monotonically increasing tallies read only at quiescent
// points (after wait_all / between bench phases), never synchronization.
#pragma once

#include <atomic>
#include <cstdint>

namespace hcham {

struct ArithCounters {
  std::atomic<std::uint64_t> truncations{0};       ///< QR+SVD recompressions
  std::atomic<std::uint64_t> rounded_adds{0};      ///< eager rounded additions
  std::atomic<std::uint64_t> rounded_add_fastpaths{0};  ///< truncate skipped
  std::atomic<std::uint64_t> acc_updates{0};   ///< deferred factor appends
  std::atomic<std::uint64_t> acc_flushes{0};   ///< pending -> truncated
  std::atomic<std::uint64_t> acc_budget_flushes{0};  ///< forced by rank budget
  std::atomic<std::uint64_t> acc_compactions{0};  ///< pending-tail compressions
  std::atomic<std::uint64_t> ws_hits{0};    ///< arena requests served in place
  std::atomic<std::uint64_t> ws_misses{0};  ///< arena requests that malloc'd
  // Batched leaf-kernel streams (la/batch.hpp): flushed streams, total leaf
  // descriptors pushed, descriptors executed inside a same-shape bucket of
  // >= HCHAM_BATCH_MIN_BUCKET entries, and descriptors executed immediately
  // (stream disabled or unbatchable).
  std::atomic<std::uint64_t> batch_streams{0};
  std::atomic<std::uint64_t> batch_ops{0};
  std::atomic<std::uint64_t> batch_bucketed_ops{0};
  std::atomic<std::uint64_t> batch_immediate_ops{0};
  // SVD work (la/svd.hpp): Jacobi sweeps run and columns the pivoted-QR
  // front end revealed (the r' the sweeps ran over), summed over calls.
  std::atomic<std::uint64_t> svd_sweeps{0};
  std::atomic<std::uint64_t> svd_revealed_cols{0};

  void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.fetch_add(n, std::memory_order_relaxed);
  }
};

inline ArithCounters& arith_counters() {
  static ArithCounters counters;
  return counters;
}

/// Plain-integer copy of the counters, for reporting and differencing.
struct ArithCounterSnapshot {
  std::uint64_t truncations = 0;
  std::uint64_t rounded_adds = 0;
  std::uint64_t rounded_add_fastpaths = 0;
  std::uint64_t acc_updates = 0;
  std::uint64_t acc_flushes = 0;
  std::uint64_t acc_budget_flushes = 0;
  std::uint64_t acc_compactions = 0;
  std::uint64_t ws_hits = 0;
  std::uint64_t ws_misses = 0;
  std::uint64_t batch_streams = 0;
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_bucketed_ops = 0;
  std::uint64_t batch_immediate_ops = 0;
  std::uint64_t svd_sweeps = 0;
  std::uint64_t svd_revealed_cols = 0;
};

inline ArithCounterSnapshot snapshot_arith_counters() {
  const ArithCounters& c = arith_counters();
  ArithCounterSnapshot s;
  s.truncations = c.truncations.load(std::memory_order_relaxed);
  s.rounded_adds = c.rounded_adds.load(std::memory_order_relaxed);
  s.rounded_add_fastpaths =
      c.rounded_add_fastpaths.load(std::memory_order_relaxed);
  s.acc_updates = c.acc_updates.load(std::memory_order_relaxed);
  s.acc_flushes = c.acc_flushes.load(std::memory_order_relaxed);
  s.acc_budget_flushes =
      c.acc_budget_flushes.load(std::memory_order_relaxed);
  s.acc_compactions = c.acc_compactions.load(std::memory_order_relaxed);
  s.ws_hits = c.ws_hits.load(std::memory_order_relaxed);
  s.ws_misses = c.ws_misses.load(std::memory_order_relaxed);
  s.batch_streams = c.batch_streams.load(std::memory_order_relaxed);
  s.batch_ops = c.batch_ops.load(std::memory_order_relaxed);
  s.batch_bucketed_ops =
      c.batch_bucketed_ops.load(std::memory_order_relaxed);
  s.batch_immediate_ops =
      c.batch_immediate_ops.load(std::memory_order_relaxed);
  s.svd_sweeps = c.svd_sweeps.load(std::memory_order_relaxed);
  s.svd_revealed_cols = c.svd_revealed_cols.load(std::memory_order_relaxed);
  return s;
}

inline void reset_arith_counters() {
  ArithCounters& c = arith_counters();
  c.truncations.store(0, std::memory_order_relaxed);
  c.rounded_adds.store(0, std::memory_order_relaxed);
  c.rounded_add_fastpaths.store(0, std::memory_order_relaxed);
  c.acc_updates.store(0, std::memory_order_relaxed);
  c.acc_flushes.store(0, std::memory_order_relaxed);
  c.acc_budget_flushes.store(0, std::memory_order_relaxed);
  c.acc_compactions.store(0, std::memory_order_relaxed);
  c.ws_hits.store(0, std::memory_order_relaxed);
  c.ws_misses.store(0, std::memory_order_relaxed);
  c.batch_streams.store(0, std::memory_order_relaxed);
  c.batch_ops.store(0, std::memory_order_relaxed);
  c.batch_bucketed_ops.store(0, std::memory_order_relaxed);
  c.batch_immediate_ops.store(0, std::memory_order_relaxed);
  c.svd_sweeps.store(0, std::memory_order_relaxed);
  c.svd_revealed_cols.store(0, std::memory_order_relaxed);
}

/// Process-wide tallies for the task-graph capture/replay layer (DESIGN.md
/// section 10): epochs captured into a CapturedGraph, epochs dispatched by
/// replay, graph-cache traffic, offline-pass output, and the wall time of
/// the submission phase split by mode so benches can report the
/// live-inference vs replay-rebind overhead ratio.
struct RuntimeCounters {
  std::atomic<std::uint64_t> graph_captures{0};   ///< epochs recorded
  std::atomic<std::uint64_t> graph_replays{0};    ///< epochs replayed
  std::atomic<std::uint64_t> graph_cache_hits{0};
  std::atomic<std::uint64_t> graph_cache_misses{0};
  std::atomic<std::uint64_t> graph_cache_evictions{0};
  std::atomic<std::uint64_t> graph_fused_pairs{0};  ///< chain-fusion output
  std::atomic<std::uint64_t> submit_live_ns{0};    ///< STF inference phases
  std::atomic<std::uint64_t> submit_replay_ns{0};  ///< closure re-bind phases
  // Nested sub-epochs (DESIGN.md section 11): parallel-mode openings, epochs
  // the gate kept inline, nested tasks executed, and how many of those ran
  // on a worker other than the sub-epoch's owner.
  std::atomic<std::uint64_t> nested_epochs{0};        ///< parallel mode
  std::atomic<std::uint64_t> nested_inline{0};        ///< gate kept inline
  std::atomic<std::uint64_t> nested_tasks{0};
  std::atomic<std::uint64_t> nested_steals{0};
  // Lock-light scheduler visibility (DESIGN.md section 14): top-level task
  // steals (a pop served from another worker's queue), pops that found no
  // victim at all, park/targeted-wake events, and the data-affinity placer's
  // hit/miss split (hit = a ready task was routed to the worker owning the
  // plurality of its input bytes; miss = no known writer, fell back to the
  // releasing worker or the seed cursor).
  std::atomic<std::uint64_t> ll_steals{0};
  std::atomic<std::uint64_t> ll_failed_steals{0};
  std::atomic<std::uint64_t> ll_parks{0};
  std::atomic<std::uint64_t> ll_wakes{0};
  std::atomic<std::uint64_t> affinity_hits{0};
  std::atomic<std::uint64_t> affinity_misses{0};
};

inline RuntimeCounters& runtime_counters() {
  static RuntimeCounters counters;
  return counters;
}

struct RuntimeCounterSnapshot {
  std::uint64_t graph_captures = 0;
  std::uint64_t graph_replays = 0;
  std::uint64_t graph_cache_hits = 0;
  std::uint64_t graph_cache_misses = 0;
  std::uint64_t graph_cache_evictions = 0;
  std::uint64_t graph_fused_pairs = 0;
  std::uint64_t submit_live_ns = 0;
  std::uint64_t submit_replay_ns = 0;
  std::uint64_t nested_epochs = 0;
  std::uint64_t nested_inline = 0;
  std::uint64_t nested_tasks = 0;
  std::uint64_t nested_steals = 0;
  std::uint64_t ll_steals = 0;
  std::uint64_t ll_failed_steals = 0;
  std::uint64_t ll_parks = 0;
  std::uint64_t ll_wakes = 0;
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_misses = 0;
};

inline RuntimeCounterSnapshot snapshot_runtime_counters() {
  const RuntimeCounters& c = runtime_counters();
  RuntimeCounterSnapshot s;
  s.graph_captures = c.graph_captures.load(std::memory_order_relaxed);
  s.graph_replays = c.graph_replays.load(std::memory_order_relaxed);
  s.graph_cache_hits = c.graph_cache_hits.load(std::memory_order_relaxed);
  s.graph_cache_misses =
      c.graph_cache_misses.load(std::memory_order_relaxed);
  s.graph_cache_evictions =
      c.graph_cache_evictions.load(std::memory_order_relaxed);
  s.graph_fused_pairs = c.graph_fused_pairs.load(std::memory_order_relaxed);
  s.submit_live_ns = c.submit_live_ns.load(std::memory_order_relaxed);
  s.submit_replay_ns = c.submit_replay_ns.load(std::memory_order_relaxed);
  s.nested_epochs = c.nested_epochs.load(std::memory_order_relaxed);
  s.nested_inline = c.nested_inline.load(std::memory_order_relaxed);
  s.nested_tasks = c.nested_tasks.load(std::memory_order_relaxed);
  s.nested_steals = c.nested_steals.load(std::memory_order_relaxed);
  s.ll_steals = c.ll_steals.load(std::memory_order_relaxed);
  s.ll_failed_steals = c.ll_failed_steals.load(std::memory_order_relaxed);
  s.ll_parks = c.ll_parks.load(std::memory_order_relaxed);
  s.ll_wakes = c.ll_wakes.load(std::memory_order_relaxed);
  s.affinity_hits = c.affinity_hits.load(std::memory_order_relaxed);
  s.affinity_misses = c.affinity_misses.load(std::memory_order_relaxed);
  return s;
}

inline void reset_runtime_counters() {
  RuntimeCounters& c = runtime_counters();
  c.graph_captures.store(0, std::memory_order_relaxed);
  c.graph_replays.store(0, std::memory_order_relaxed);
  c.graph_cache_hits.store(0, std::memory_order_relaxed);
  c.graph_cache_misses.store(0, std::memory_order_relaxed);
  c.graph_cache_evictions.store(0, std::memory_order_relaxed);
  c.graph_fused_pairs.store(0, std::memory_order_relaxed);
  c.submit_live_ns.store(0, std::memory_order_relaxed);
  c.submit_replay_ns.store(0, std::memory_order_relaxed);
  c.nested_epochs.store(0, std::memory_order_relaxed);
  c.nested_inline.store(0, std::memory_order_relaxed);
  c.nested_tasks.store(0, std::memory_order_relaxed);
  c.nested_steals.store(0, std::memory_order_relaxed);
  c.ll_steals.store(0, std::memory_order_relaxed);
  c.ll_failed_steals.store(0, std::memory_order_relaxed);
  c.ll_parks.store(0, std::memory_order_relaxed);
  c.ll_wakes.store(0, std::memory_order_relaxed);
  c.affinity_hits.store(0, std::memory_order_relaxed);
  c.affinity_misses.store(0, std::memory_order_relaxed);
}

/// Process-wide tallies for the operator lifecycle layer (DESIGN.md
/// section 13): Woodbury update/solve/rebase activity, factor-store
/// traffic, and session-cache hit/miss/eviction/spill events. Same contract
/// as the other counter blocks: relaxed monotone tallies, read at quiescent
/// points only.
struct LifecycleCounters {
  std::atomic<std::uint64_t> woodbury_updates{0};  ///< rank-k deltas absorbed
  std::atomic<std::uint64_t> woodbury_solves{0};   ///< updated-operator solves
  std::atomic<std::uint64_t> woodbury_prepares{0};  ///< A^-1 U + capacitance
  std::atomic<std::uint64_t> woodbury_rebases{0};  ///< delta folded + refactor
  std::atomic<std::uint64_t> factor_saves{0};      ///< store files written
  std::atomic<std::uint64_t> factor_loads{0};      ///< mmap cold-starts
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> cache_spills{0};        ///< evicted to disk
  std::atomic<std::uint64_t> cache_spill_reloads{0};  ///< restored from disk

  void bump(std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }
};

inline LifecycleCounters& lifecycle_counters() {
  static LifecycleCounters counters;
  return counters;
}

struct LifecycleCounterSnapshot {
  std::uint64_t woodbury_updates = 0;
  std::uint64_t woodbury_solves = 0;
  std::uint64_t woodbury_prepares = 0;
  std::uint64_t woodbury_rebases = 0;
  std::uint64_t factor_saves = 0;
  std::uint64_t factor_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_spills = 0;
  std::uint64_t cache_spill_reloads = 0;
};

inline LifecycleCounterSnapshot snapshot_lifecycle_counters() {
  const LifecycleCounters& c = lifecycle_counters();
  LifecycleCounterSnapshot s;
  s.woodbury_updates = c.woodbury_updates.load(std::memory_order_relaxed);
  s.woodbury_solves = c.woodbury_solves.load(std::memory_order_relaxed);
  s.woodbury_prepares = c.woodbury_prepares.load(std::memory_order_relaxed);
  s.woodbury_rebases = c.woodbury_rebases.load(std::memory_order_relaxed);
  s.factor_saves = c.factor_saves.load(std::memory_order_relaxed);
  s.factor_loads = c.factor_loads.load(std::memory_order_relaxed);
  s.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = c.cache_misses.load(std::memory_order_relaxed);
  s.cache_evictions = c.cache_evictions.load(std::memory_order_relaxed);
  s.cache_spills = c.cache_spills.load(std::memory_order_relaxed);
  s.cache_spill_reloads =
      c.cache_spill_reloads.load(std::memory_order_relaxed);
  return s;
}

inline void reset_lifecycle_counters() {
  LifecycleCounters& c = lifecycle_counters();
  c.woodbury_updates.store(0, std::memory_order_relaxed);
  c.woodbury_solves.store(0, std::memory_order_relaxed);
  c.woodbury_prepares.store(0, std::memory_order_relaxed);
  c.woodbury_rebases.store(0, std::memory_order_relaxed);
  c.factor_saves.store(0, std::memory_order_relaxed);
  c.factor_loads.store(0, std::memory_order_relaxed);
  c.cache_hits.store(0, std::memory_order_relaxed);
  c.cache_misses.store(0, std::memory_order_relaxed);
  c.cache_evictions.store(0, std::memory_order_relaxed);
  c.cache_spills.store(0, std::memory_order_relaxed);
  c.cache_spill_reloads.store(0, std::memory_order_relaxed);
}

}  // namespace hcham
