#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "la/workspace.hpp"

namespace hcham::rt {

namespace {

/// History record of one submitted task, kept for graph() / to_dot() and
/// the simulator. The closure and the collapsed accesses live only in the
/// epoch tables (Impl::fns, Impl::live) and are dropped when the epoch
/// retires.
struct Task {
  std::string label;
  int priority = 0;
  std::vector<TaskId> successors;
  index_t num_deps = 0;  ///< static in-degree
  double duration_s = 0.0;
  TaskId last_edge_to = -1;  ///< dedupe mark: all edges to one task are
                             ///< added within a single submit() call
};

struct HandleState {
  std::string name;
  std::size_t bytes = 0;  ///< payload size (affinity edge weight; 0 = 1 vote)
  TaskId last_writer = -1;
  std::vector<TaskId> readers_since_write;
};

/// Ready-queue order over epoch slots: higher priority first, then the
/// older (lower) slot first when popped from a max-heap. Slot order is
/// submission order for live and replayed epochs alike.
struct SlotPrioLess {
  const std::vector<int>* prio;
  bool operator()(TaskId a, TaskId b) const {
    const int pa = (*prio)[static_cast<std::size_t>(a)];
    const int pb = (*prio)[static_cast<std::size_t>(b)];
    if (pa != pb) return pa < pb;
    return a > b;
  }
};

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Worker context of the calling thread: which engine's pool it belongs to
// (compared by Impl address, stored untyped so the anonymous namespace need
// not name the private Impl), its worker id, and whether it is currently
// inside a nested task (nesting-inside-nesting stays inline). Set only by
// the pool threads.
thread_local const void* tls_worker_pool = nullptr;
thread_local int tls_worker_id = -1;
thread_local bool tls_in_nested_task = false;

}  // namespace

// Deferred-mode state of one NestedEpoch (DESIGN.md section 11). Built
// single-threaded by the owner during submit(); after wait() publishes the
// epoch in the engine's registry, `ready` and the per-task pending counters
// are touched only under Engine::Impl::nested_mu (ready) or atomically
// (pending), and `remaining` is each executor's last touch of the epoch so
// the owner can destroy it the moment the count reaches zero.
struct NestedEpochImpl {
  struct NestedTask {
    std::function<void()> fn;
    std::string label;
    int priority = 0;
    std::vector<TaskId> successors;
    std::atomic<index_t> pending{0};
    TaskId last_edge_to = -1;  ///< dedupe mark, as in Engine's add_edge
  };
  struct NestedHandle {
    TaskId last_writer = -1;
    std::vector<TaskId> readers_since_write;
  };

  Engine::Impl* eng = nullptr;
  bool is_parallel = false;
  bool sealed = false;
  int owner_worker = -1;
  std::deque<NestedTask> tasks;  // deque: stable refs, atomics never move
  std::vector<NestedHandle> handles;
  index_t edges = 0;
  index_t inline_tasks = 0;   ///< inline mode's task count (tasks stays empty)
  std::deque<TaskId> ready;   ///< guarded by eng->nested_mu
  std::atomic<index_t> remaining{0};
  std::atomic<index_t> stolen{0};
  std::mutex err_mu;  ///< parallel mode: guards first_error
  std::exception_ptr first_error;
};

// Every wait_all() executes one CapturedGraph over epoch-local slots: a
// replayed epoch runs the graph it was armed with, a live epoch is first
// lowered into `live` (its successors, in-degrees and submit-time
// priorities; accesses are collapsed into it at submit). Two executors run
// it: the pool loop for every multi-worker epoch, and the inline executor
// on the calling thread for one worker and for the schedule fuzzer.
struct Engine::Impl {
  Options opts;
  std::vector<Task> tasks;
  std::vector<HandleState> handles;
  std::vector<TraceEvent> trace;

  std::exception_ptr first_error;
  std::mutex err_mu;  // guards first_error on the pool (cold)
  int seed_rr = 0;    ///< round-robin seed target for initially-ready tasks
  std::atomic<bool> executing{false};  ///< set for the span of wait_all()
  index_t edge_counter = 0;  ///< inferred-edge count (fault injection)

  /// Tasks below this index belong to fully-drained earlier epochs: every
  /// edge into them is already satisfied and their closures are gone. A
  /// long-lived engine (a serve session runs thousands of solve epochs
  /// against one factorization) would otherwise re-scan the entire task
  /// history and hold every submitted closure alive forever.
  index_t retired = 0;

  // --- the epoch graph ---------------------------------------------------
  //
  // `live` is the graph of the epoch [retired, tasks.size()) under
  // construction: submit() appends its collapsed accesses (when the
  // checker, a capture or affinity needs them) and wait_all() lowers the
  // rest. `fns` holds the epoch's closures by slot — appended by live
  // submits, bound in order by replay submits.
  CapturedGraph live;
  std::vector<std::function<void()>> fns;
  const CapturedGraph* eg = nullptr;  ///< the executing epoch's graph
  TaskId eg_base = 0;  ///< id of slot 0: the first task id live, 0 replayed
  std::vector<double> epoch_dur;  ///< measured duration per slot

  // Access-conflict checker state (under mu; valid during wait_all when
  // opts.check_conflicts). One entry per handle: the running writer slot
  // (if any), the count of running readers, and one reader for diagnostics.
  std::mutex mu;
  std::vector<TaskId> active_writer;
  std::vector<index_t> active_readers;
  std::vector<TaskId> reader_witness;
  std::vector<std::string> conflict_log;

  // --- pool state (valid during run_pool) --------------------------------
  //
  // Each worker owns one cache-line-isolated queue slot (deque for ws, heap
  // for lws) guarded by its own small mutex, plus a private parking condvar.
  // The atomic `size` mirrors the queue occupancy so steal-victim selection
  // and the park/unpark double-check never touch the queue mutexes. Under
  // the prio policy the central heap stays central (its ordering is the
  // policy), but it has a dedicated mutex touched once per batched push/pop
  // instead of one global lock around every scheduling decision.
  struct alignas(64) WorkerState {
    std::mutex mu;                 // guards deque and heap
    std::deque<TaskId> deque;      // ws ready queue (LIFO owner, FIFO thief)
    std::vector<TaskId> heap;      // lws priority heap
    std::atomic<index_t> size{0};  // occupancy mirror (victim pick, parking)
    std::mutex park_mu;
    std::condition_variable park_cv;
    unsigned wake_epoch = 0;  // under park_mu; bumped once per targeted wake
    std::vector<TraceEvent> local_trace;  // merged into `trace` after join
    std::vector<std::uint64_t> by_worker;  // aff_target scratch, size P
  };
  std::vector<std::unique_ptr<WorkerState>> ll_workers;
  std::mutex prio_mu;  // guards prio_heap
  std::vector<TaskId> prio_heap;
  std::atomic<index_t> prio_size{0};
  std::unique_ptr<std::atomic<index_t>[]> pending;  ///< per slot
  std::atomic<index_t> remaining{0};
  /// Parked-worker bitset: bit w % 64 of word w / 64 set = worker w parked.
  std::size_t parked_words = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> parked_mask;

  // --- nested sub-epoch state (DESIGN.md section 11) ---------------------
  //
  // Sub-epochs in their wait() phase register here so idle pool workers can
  // steal their tasks. nested_ready_total mirrors the summed ready-queue
  // occupancy (same role as the pool's occupancy mirrors: parking
  // double-checks and steal attempts never take nested_mu when it is zero);
  // publish (under nested_mu, then fetch_add) precedes the targeted
  // ll_wake, pairing with ll_park's announce-then-recheck. nested_live
  // counts constructed-but-undestroyed NestedEpoch objects — capture/replay
  // arming rejects while any are live, since a sub-epoch spanning parent
  // epochs would corrupt the captured closure-slot order.
  std::mutex nested_mu;  // guards nested_epochs and every epoch's `ready`
  std::vector<NestedEpochImpl*> nested_epochs;
  std::atomic<index_t> nested_ready_total{0};
  std::atomic<index_t> nested_live{0};
  std::atomic<index_t> nested_edge_counter{0};  // nested fault injection

  // --- capture / replay state (DESIGN.md section 10) ---------------------
  bool capture_armed = false;  ///< record the next epoch into `captured`
  std::shared_ptr<const CapturedGraph> captured;
  std::shared_ptr<const CapturedGraph> replay;  ///< armed replay graph
  index_t replay_next = 0;
  std::atomic<std::uint64_t> epochs_captured{0};
  std::atomic<std::uint64_t> epochs_replayed{0};

  // --- data-affinity scheduling state (DESIGN.md section 14) --------------
  //
  // Placement is a hint layered on top of the dependency graph: it decides
  // WHICH ready queue a released task lands in, never WHEN it becomes
  // ready, so any placement (including a racy or stale one) executes the
  // same happens-before order and produces bit-identical results.
  bool aff_track = false;  ///< collapse accesses at submit for affinity use
  bool aff_epoch = false;  ///< placement active for the current epoch
  int aff_steal_scan = 4;  ///< queued tasks scored per victim (env, per epoch)
  /// Last worker that wrote each handle, persisted across epochs (a solve
  /// epoch inherits the factorization's tile ownership). -1 = never written
  /// on this engine's pool.
  std::vector<int> h_last_worker;
  /// Epoch view of h_last_worker, updated by workers as they finish writes
  /// (relaxed: a stale read only costs locality, never correctness).
  std::unique_ptr<std::atomic<int>[]> aff_owner;
  std::size_t aff_owner_count = 0;
  /// Intended owner per slot, set before the slot is queued; the steal
  /// scorer prefers slots that were NOT routed to their victim ("cold")
  /// when a steal is unavoidable.
  std::unique_ptr<std::atomic<int>[]> ll_owner;
  /// Input-handle signature per slot: one hash bit per read/readwrite
  /// handle. Thieves take only slots overlapping their own recent-write
  /// signature in the first scan pass.
  std::vector<std::uint64_t> aff_in_sig;

  static std::uint64_t aff_sig_bit(index_t h) {
    return std::uint64_t{1}
           << ((static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ull) >> 58);
  }

  /// The placement gate, re-read per epoch so HCHAM_AFFINITY_DISABLE can
  /// flip between epochs: affinity needs tracked accesses, a multi-worker
  /// pool, and a policy with per-worker queues (prio's central heap has no
  /// placement to speak of).
  bool aff_enabled_epoch() const {
    return aff_track && opts.num_workers > 1 &&
           opts.policy != SchedulerPolicy::Priority && !affinity_disabled();
  }

  /// Size the epoch owner map to `nh` handles and load the persistent
  /// last-writer view into it.
  void aff_owner_setup(std::size_t nh) {
    if (h_last_worker.size() < nh) h_last_worker.resize(nh, -1);
    aff_owner = std::make_unique<std::atomic<int>[]>(nh);
    aff_owner_count = nh;
    for (std::size_t i = 0; i < nh; ++i)
      aff_owner[i].store(h_last_worker[i], std::memory_order_relaxed);
    aff_steal_scan = static_cast<int>(
        env_long_bounded("HCHAM_AFFINITY_STEAL_SCAN", 4, 1, 64));
  }

  /// Persist the epoch's final owner view and drop the epoch arrays.
  void aff_owner_teardown() {
    for (std::size_t i = 0; i < aff_owner_count; ++i)
      h_last_worker[i] = aff_owner[i].load(std::memory_order_relaxed);
    aff_owner.reset();
    aff_owner_count = 0;
    ll_owner.reset();
    aff_in_sig.clear();
    aff_epoch = false;
  }

  /// Affinity target of `slot`, or -1 for none: under replay the captured
  /// graph's offline partition (valid only when it was computed for this
  /// pool width); live, the worker owning the plurality of the slot's
  /// input bytes, ties to the lowest worker. `by_worker` is P entries of
  /// scratch.
  int aff_target(TaskId slot, std::vector<std::uint64_t>& by_worker) const {
    const CapturedGraph& g = *eg;
    const auto s = static_cast<std::size_t>(slot);
    if (replay != nullptr)
      return g.placement_workers == opts.num_workers && s < g.placement.size()
                 ? g.placement[s]
                 : -1;
    std::fill(by_worker.begin(), by_worker.end(), 0);
    bool any = false;
    for (index_t e = g.acc_off[s]; e < g.acc_off[s + 1]; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      if (!g.acc_read[ei]) continue;  // pure output
      const auto h = static_cast<std::size_t>(g.acc_handle[ei]);
      if (h >= aff_owner_count) continue;
      const int ow = aff_owner[h].load(std::memory_order_relaxed);
      if (ow < 0 || ow >= opts.num_workers) continue;
      by_worker[static_cast<std::size_t>(ow)] +=
          g.acc_bytes[ei] ? g.acc_bytes[ei] : 1;
      any = true;
    }
    if (!any) return -1;
    int best = -1;
    std::uint64_t best_bytes = 0;
    for (int v = 0; v < opts.num_workers; ++v)
      if (by_worker[static_cast<std::size_t>(v)] > best_bytes) {
        best_bytes = by_worker[static_cast<std::size_t>(v)];
        best = v;
      }
    return best;
  }

  // Submission-phase stopwatch: opened by the first submit() of an epoch
  // (or by begin_replay) and closed on wait_all() entry. Feeds the
  // submit_live_ns / submit_replay_ns counters the overhead bench gates on.
  bool submit_clock_open = false;
  std::chrono::steady_clock::time_point submit_clock_start;
  double last_submit_s = 0.0;

  explicit Impl(Options o) : opts(o) {
    HCHAM_CHECK(opts.num_workers >= 1);
    // Decided once per engine: an engine built under HCHAM_AFFINITY_DISABLE
    // never pays the access-collapse cost at submit (the referee engines of
    // the property tests and the locality bench). The per-epoch placement
    // gate re-reads the knob on top of this.
    aff_track = opts.num_workers > 1 &&
                opts.policy != SchedulerPolicy::Priority &&
                !affinity_disabled();
    parked_words = (static_cast<std::size_t>(opts.num_workers) + 63) / 64;
    parked_mask = std::make_unique<std::atomic<std::uint64_t>[]>(parked_words);
    live.acc_off.push_back(0);
  }

  bool all_drained() const {
    return retired == static_cast<index_t>(tasks.size());
  }

  void open_submit_clock() {
    if (submit_clock_open) return;
    submit_clock_open = true;
    submit_clock_start = std::chrono::steady_clock::now();
  }

  void close_submit_clock(bool replay_mode) {
    if (!submit_clock_open) {
      last_submit_s = 0.0;
      return;
    }
    submit_clock_open = false;
    last_submit_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - submit_clock_start)
                        .count();
    auto& counter = replay_mode ? runtime_counters().submit_replay_ns
                                : runtime_counters().submit_live_ns;
    counter.fetch_add(static_cast<std::uint64_t>(last_submit_s * 1.0e9),
                      std::memory_order_relaxed);
  }

  void add_edge(TaskId from, TaskId to) {
    if (from == to) return;  // a task never depends on itself (a self-edge
                             // would leave pending > 0 forever: deadlock)
    if (from < retired) return;  // satisfied by an earlier epoch
    Task& src = tasks[static_cast<std::size_t>(from)];
    if (src.last_edge_to == to) return;  // dedupe within this submit
    src.last_edge_to = to;
    if (edge_counter++ == opts.fault_drop_edge) return;  // fault injection
    src.successors.push_back(to);
    ++tasks[static_cast<std::size_t>(to)].num_deps;
  }

  /// Append the task's accesses to `live`, collapsed to one entry per
  /// handle (a task may list a handle several times): mixed read+write
  /// becomes read+write — still exclusive for the checker, still an input
  /// for placement.
  void collapse_accesses(const std::vector<Access>& accesses) {
    CapturedGraph& g = live;
    const std::size_t first = g.acc_handle.size();
    for (const Access& a : accesses) {
      const auto w = static_cast<std::uint8_t>(a.mode != AccessMode::Read);
      const auto r = static_cast<std::uint8_t>(a.mode != AccessMode::Write);
      std::size_t k = first;
      while (k < g.acc_handle.size() && g.acc_handle[k] != a.handle.id) ++k;
      if (k < g.acc_handle.size()) {
        g.acc_write[k] |= w;
        g.acc_read[k] |= r;
        continue;
      }
      g.acc_handle.push_back(a.handle.id);
      g.acc_write.push_back(w);
      g.acc_read.push_back(r);
      g.acc_bytes.push_back(static_cast<std::uint64_t>(
          handles[static_cast<std::size_t>(a.handle.id)].bytes));
      g.max_handle = std::max(g.max_handle, a.handle.id);
    }
  }

  /// Lower the live epoch [retired, tasks.size()) into `live`: successors
  /// in CSR over epoch slots, in-degrees (every edge stays in the epoch:
  /// edges into drained epochs are never added), submit-time priorities,
  /// and labels when the checker or a capture will name slots.
  void lower_epoch() {
    CapturedGraph& g = live;
    const auto base = static_cast<std::size_t>(retired);
    const std::size_t n = tasks.size() - base;
    g.count = static_cast<index_t>(n);
    g.succ_off.assign(n + 1, 0);
    g.pending0.resize(n);
    g.priority.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Task& t = tasks[base + i];
      g.succ_off[i + 1] =
          g.succ_off[i] + static_cast<index_t>(t.successors.size());
      g.pending0[i] = t.num_deps;
      g.priority[i] = t.priority;
    }
    g.succ.reserve(static_cast<std::size_t>(g.succ_off[n]));
    for (std::size_t i = 0; i < n; ++i)
      for (const TaskId s : tasks[base + i].successors) {
        HCHAM_DCHECK(s >= retired && s - retired < g.count);
        g.succ.push_back(s - retired);
      }
    if (opts.check_conflicts || capture_armed) {
      g.label.resize(n);
      for (std::size_t i = 0; i < n; ++i) g.label[i] = tasks[base + i].label;
    }
  }

  // --- access-conflict checker (all under mu) ----------------------------

  void report_conflict(index_t slot, index_t other, index_t handle,
                       const char* kind) {
    const CapturedGraph& g = *eg;
    auto name = [&g](index_t s) {
      const auto i = static_cast<std::size_t>(s);
      return i < g.label.size() && !g.label[i].empty()
                 ? " [" + g.label[i] + "]"
                 : std::string();
    };
    std::ostringstream msg;
    msg << kind << " access conflict on handle #" << handle;
    if (handle < static_cast<index_t>(handles.size()) &&
        !handles[static_cast<std::size_t>(handle)].name.empty())
      msg << " '" << handles[static_cast<std::size_t>(handle)].name << "'";
    const bool replayed = replay != nullptr;
    msg << (replayed ? ": replay slot " : ": task ") << eg_base + slot
        << name(slot) << " started while " << (replayed ? "slot " : "task ")
        << eg_base + other << name(other) << " was running";
    conflict_log.push_back(msg.str());
  }

  /// The checker arrays cover the graph's handle range: a replayed graph
  /// may have been captured on another engine (shared cache) whose handle
  /// space is larger than this one's.
  void checker_reset() {
    conflict_log.clear();
    const auto nh = static_cast<std::size_t>(std::max<index_t>(
        static_cast<index_t>(handles.size()), eg->max_handle + 1));
    active_writer.assign(nh, -1);
    active_readers.assign(nh, 0);
    reader_witness.assign(nh, -1);
  }

  /// Mark the slot's accesses active; any overlap with a running writer
  /// (or a running reader, for a writer) is a missing dependency edge.
  void checker_enter(index_t slot) {
    const CapturedGraph& g = *eg;
    const auto s = static_cast<std::size_t>(slot);
    for (index_t e = g.acc_off[s]; e < g.acc_off[s + 1]; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const auto h = static_cast<std::size_t>(g.acc_handle[ei]);
      if (!g.acc_write[ei]) {
        if (active_writer[h] >= 0)
          report_conflict(slot, active_writer[h], g.acc_handle[ei], "R/W");
        ++active_readers[h];
        reader_witness[h] = slot;
      } else {
        if (active_writer[h] >= 0)
          report_conflict(slot, active_writer[h], g.acc_handle[ei], "W/W");
        else if (active_readers[h] > 0)
          report_conflict(slot, reader_witness[h], g.acc_handle[ei], "W/R");
        active_writer[h] = slot;
      }
    }
  }

  void checker_leave(index_t slot) {
    const CapturedGraph& g = *eg;
    const auto s = static_cast<std::size_t>(slot);
    for (index_t e = g.acc_off[s]; e < g.acc_off[s + 1]; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const auto h = static_cast<std::size_t>(g.acc_handle[ei]);
      if (!g.acc_write[ei]) {
        --active_readers[h];
      } else if (active_writer[h] == slot) {
        // A conflicting second writer may have overwritten the entry.
        active_writer[h] = -1;
      }
    }
  }

  /// Seed target for tasks that are ready at submission time ("released by
  /// the main thread"): spread round-robin across workers. The cursor is
  /// reset at the start of every pool epoch so multi-epoch programs seed
  /// exactly like the simulator's replay (which restarts at worker 0 per
  /// call).
  int next_seed_worker() {
    const int w = seed_rr;
    seed_rr = (seed_rr + 1) % opts.num_workers;
    return w;
  }

  // --- the inline executor ------------------------------------------------

  /// Run the epoch on the calling thread: in slot order (a valid
  /// topological order: STF edges and captured edges point forward), or
  /// under fuzz_schedule in a seed-chosen random topological order — at
  /// every step one of the currently-ready slots is drawn uniformly. The
  /// fuzzer explores legal schedules the three production policies never
  /// produce, deterministically per seed. Fusion is irrelevant here: a
  /// fused tail is released by its lone predecessor like any successor.
  void run_inline() {
    const CapturedGraph& g = *eg;
    la::WorkspaceLease workspace_lease;
    const auto t0 = std::chrono::steady_clock::now();
    auto run = [&](TaskId slot) {
      const double start =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      Timer timer;
      try {
        fns[static_cast<std::size_t>(slot)]();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
      const double dur = timer.seconds();
      epoch_dur[static_cast<std::size_t>(slot)] = dur;
      if (opts.record_trace)
        trace.push_back(TraceEvent{eg_base + slot, 0, start, start + dur});
    };
    if (!opts.fuzz_schedule) {
      for (TaskId i = 0; i < g.count; ++i) run(i);
      return;
    }
    Rng rng(opts.fuzz_seed);
    std::vector<index_t> left_deps(g.pending0);
    std::vector<TaskId> ready;
    for (TaskId i = 0; i < g.count; ++i)
      if (left_deps[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
    index_t left = g.count;
    while (!ready.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(ready.size()));
      const TaskId id = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      run(id);
      const auto s = static_cast<std::size_t>(id);
      for (index_t e = g.succ_off[s]; e < g.succ_off[s + 1]; ++e) {
        const TaskId succ = g.succ[static_cast<std::size_t>(e)];
        if (--left_deps[static_cast<std::size_t>(succ)] == 0)
          ready.push_back(succ);
      }
      --left;
    }
    HCHAM_CHECK_MSG(left == 0, "fuzzed schedule stalled: cycle in task graph");
  }

  // --- the pool loop ------------------------------------------------------

  bool ll_has_ready() const {
    if (opts.policy == SchedulerPolicy::Priority) return prio_size.load() > 0;
    for (const auto& w : ll_workers)
      if (w->size.load() > 0) return true;
    return false;
  }

  /// Publish a batch of newly-ready slots with ONE lock acquisition: the
  /// releasing worker's own queue (ws/lws, the simulator's
  /// push(id, releasing_worker) model) or the central prio heap.
  void ll_push_batch(int w, const std::vector<TaskId>& batch) {
    const SlotPrioLess less{&eg->priority};
    switch (opts.policy) {
      case SchedulerPolicy::Priority: {
        std::lock_guard<std::mutex> lk(prio_mu);
        for (const TaskId id : batch) {
          prio_heap.push_back(id);
          std::push_heap(prio_heap.begin(), prio_heap.end(), less);
        }
        prio_size.fetch_add(static_cast<index_t>(batch.size()));
        break;
      }
      case SchedulerPolicy::WorkStealing: {
        auto& q = *ll_workers[static_cast<std::size_t>(w)];
        std::lock_guard<std::mutex> lk(q.mu);
        for (const TaskId id : batch) q.deque.push_back(id);
        q.size.fetch_add(static_cast<index_t>(batch.size()));
        break;
      }
      case SchedulerPolicy::LocalityWorkStealing: {
        auto& q = *ll_workers[static_cast<std::size_t>(w)];
        std::lock_guard<std::mutex> lk(q.mu);
        for (const TaskId id : batch) {
          q.heap.push_back(id);
          std::push_heap(q.heap.begin(), q.heap.end(), less);
        }
        q.size.fetch_add(static_cast<index_t>(batch.size()));
        break;
      }
    }
  }

  /// Affinity-aware steal (DESIGN.md section 14), shared by the ws and lws
  /// policies under aff_epoch. Pass 1 takes only slots whose input handles
  /// overlap the thief's recent-write signature, skipping victims with no
  /// overlapping queued slot; pass 2 (a steal is unavoidable) prefers a
  /// slot that was NOT routed to its victim ("cold") within the scan
  /// window, falling back to the queue's steal-side default. Victims whose
  /// occupancy mirror reads zero are skipped without locking in both
  /// passes.
  TaskId ll_steal_scored(int w, std::uint64_t my_sig) {
    const bool is_ws = opts.policy == SchedulerPolicy::WorkStealing;
    const auto scan = static_cast<std::size_t>(aff_steal_scan);
    for (int pass = my_sig != 0 ? 0 : 1; pass < 2; ++pass) {
      for (int d = 1; d < opts.num_workers; ++d) {
        const int v = (w + d) % opts.num_workers;
        auto& vq = *ll_workers[static_cast<std::size_t>(v)];
        if (vq.size.load() == 0) continue;
        std::lock_guard<std::mutex> lk(vq.mu);
        const std::size_t n = is_ws ? vq.deque.size() : vq.heap.size();
        if (n == 0) continue;
        const std::size_t k = std::min(n, scan);
        // Scan the steal side: the deque front for ws; for lws the heap's
        // array head, which holds the highest-priority entries.
        std::size_t take = n;
        if (pass == 0) {
          for (std::size_t i = 0; i < k; ++i) {
            const TaskId id = is_ws ? vq.deque[i] : vq.heap[i];
            if (aff_in_sig[static_cast<std::size_t>(id)] & my_sig) {
              take = i;
              break;
            }
          }
          if (take == n) continue;  // zero overlap here: skip this victim
        } else {
          take = 0;
          for (std::size_t i = 0; i < k; ++i) {
            const TaskId id = is_ws ? vq.deque[i] : vq.heap[i];
            if (ll_owner[static_cast<std::size_t>(id)].load(
                    std::memory_order_relaxed) != v) {
              take = i;
              break;
            }
          }
        }
        TaskId id;
        if (is_ws) {
          id = vq.deque[take];
          vq.deque.erase(vq.deque.begin() + static_cast<std::ptrdiff_t>(take));
        } else {
          id = vq.heap[take];
          vq.heap[take] = vq.heap.back();
          vq.heap.pop_back();
          std::make_heap(vq.heap.begin(), vq.heap.end(),
                         SlotPrioLess{&eg->priority});
        }
        vq.size.fetch_sub(1);
        runtime_counters().ll_steals.fetch_add(1, std::memory_order_relaxed);
        return id;
      }
    }
    runtime_counters().ll_failed_steals.fetch_add(1,
                                                  std::memory_order_relaxed);
    return -1;
  }

  /// Route a batch of newly-ready slots to their affinity targets with one
  /// queue lock per distinct target, then wake parked workers for every
  /// routed slot this worker will not immediately take itself. `self_busy`
  /// marks releases from inside a fused chain, where the releasing worker
  /// keeps running the chain and every routed slot is surplus.
  void ll_dispatch_affinity(int w, const std::vector<TaskId>& batch,
                            std::vector<int>& targets,
                            std::vector<TaskId>& sub, bool self_busy) {
    targets.clear();
    bool keeps = false;
    auto& rc = runtime_counters();
    auto& by_worker = ll_workers[static_cast<std::size_t>(w)]->by_worker;
    for (const TaskId id : batch) {
      int t = aff_target(id, by_worker);
      if (t < 0) {
        t = w;
        rc.affinity_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        rc.affinity_hits.fetch_add(1, std::memory_order_relaxed);
      }
      targets.push_back(t);
      if (t == w) keeps = true;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int t = targets[i];
      if (t < 0) continue;  // already pushed with an earlier group
      sub.clear();
      for (std::size_t j = i; j < batch.size(); ++j) {
        if (targets[j] != t) continue;
        sub.push_back(batch[j]);
        targets[j] = -1;
      }
      for (const TaskId id : sub)
        ll_owner[static_cast<std::size_t>(id)].store(t,
                                                     std::memory_order_relaxed);
      ll_push_batch(t, sub);
    }
    const auto wake =
        static_cast<index_t>(batch.size()) - ((keeps && !self_busy) ? 1 : 0);
    if (wake > 0) ll_wake(wake);
  }

  TaskId ll_pop(int w, std::uint64_t my_sig) {
    const SlotPrioLess less{&eg->priority};
    switch (opts.policy) {
      case SchedulerPolicy::Priority: {
        if (prio_size.load() == 0) return -1;
        std::lock_guard<std::mutex> lk(prio_mu);
        if (prio_heap.empty()) return -1;
        std::pop_heap(prio_heap.begin(), prio_heap.end(), less);
        const TaskId id = prio_heap.back();
        prio_heap.pop_back();
        prio_size.fetch_sub(1);
        return id;
      }
      case SchedulerPolicy::WorkStealing: {
        auto& own = *ll_workers[static_cast<std::size_t>(w)];
        if (own.size.load() > 0) {
          std::lock_guard<std::mutex> lk(own.mu);
          if (!own.deque.empty()) {
            const TaskId id = own.deque.back();  // LIFO on the owner side
            own.deque.pop_back();
            own.size.fetch_sub(1);
            return id;
          }
        }
        if (aff_epoch) return ll_steal_scored(w, my_sig);
        // Steal from the most loaded worker (FIFO on the thief side); the
        // occupancy mirrors make victim selection lock-free.
        int victim = -1;
        index_t best = 0;
        for (int v = 0; v < opts.num_workers; ++v) {
          if (v == w) continue;
          const index_t sz =
              ll_workers[static_cast<std::size_t>(v)]->size.load();
          if (sz > best) {
            best = sz;
            victim = v;
          }
        }
        if (victim < 0) return -1;
        auto& vq = *ll_workers[static_cast<std::size_t>(victim)];
        std::lock_guard<std::mutex> lk(vq.mu);
        if (vq.deque.empty()) {
          runtime_counters().ll_failed_steals.fetch_add(
              1, std::memory_order_relaxed);
          return -1;
        }
        const TaskId id = vq.deque.front();
        vq.deque.pop_front();
        vq.size.fetch_sub(1);
        runtime_counters().ll_steals.fetch_add(1, std::memory_order_relaxed);
        return id;
      }
      case SchedulerPolicy::LocalityWorkStealing: {
        auto& own = *ll_workers[static_cast<std::size_t>(w)];
        if (own.size.load() > 0) {
          std::lock_guard<std::mutex> lk(own.mu);
          if (!own.heap.empty()) {
            std::pop_heap(own.heap.begin(), own.heap.end(), less);
            const TaskId id = own.heap.back();
            own.heap.pop_back();
            own.size.fetch_sub(1);
            return id;
          }
        }
        if (aff_epoch) return ll_steal_scored(w, my_sig);
        // Steal from neighbours in ring order, respecting priorities; the
        // occupancy mirrors skip empty victims without locking.
        for (int d = 1; d < opts.num_workers; ++d) {
          const int v = (w + d) % opts.num_workers;
          auto& vq = *ll_workers[static_cast<std::size_t>(v)];
          if (vq.size.load() == 0) continue;
          std::lock_guard<std::mutex> lk(vq.mu);
          if (vq.heap.empty()) continue;
          std::pop_heap(vq.heap.begin(), vq.heap.end(), less);
          const TaskId id = vq.heap.back();
          vq.heap.pop_back();
          vq.size.fetch_sub(1);
          runtime_counters().ll_steals.fetch_add(1,
                                                 std::memory_order_relaxed);
          return id;
        }
        runtime_counters().ll_failed_steals.fetch_add(
            1, std::memory_order_relaxed);
        return -1;
      }
    }
    return -1;
  }

  bool any_parked() const {
    for (std::size_t k = 0; k < parked_words; ++k)
      if (parked_mask[k].load() != 0) return true;
    return false;
  }

  /// Wake up to `count` parked workers, one targeted notify each (never a
  /// broadcast). The mask snapshot may be stale; waking an already-running
  /// worker is a harmless extra epoch bump. Bits are cleared by their
  /// owners on unpark, so a missed targeted wake can never hide a worker
  /// from later wakes or from termination.
  void ll_wake(index_t count) {
    for (std::size_t k = 0; k < parked_words && count > 0; ++k) {
      std::uint64_t mask = parked_mask[k].load();
      while (count > 0 && mask != 0) {
        const std::size_t w =
            k * 64 + static_cast<std::size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        auto& ws = *ll_workers[w];
        {
          std::lock_guard<std::mutex> lk(ws.park_mu);
          ++ws.wake_epoch;
        }
        ws.park_cv.notify_one();
        runtime_counters().ll_wakes.fetch_add(1, std::memory_order_relaxed);
        --count;
      }
    }
  }

  void ll_wake_all() {
    for (const auto& wsp : ll_workers) {
      {
        std::lock_guard<std::mutex> lk(wsp->park_mu);
        ++wsp->wake_epoch;
      }
      wsp->park_cv.notify_one();
    }
  }

  /// Park worker `w` until a targeted wake. Publish-then-wake on the
  /// release side pairs with announce-then-recheck here (both seq_cst), so
  /// either the parker sees the published work in the occupancy mirrors or
  /// the releaser sees the parked bit and bumps the epoch.
  void ll_park(int w) {
    auto& me = *ll_workers[static_cast<std::size_t>(w)];
    std::atomic<std::uint64_t>& word =
        parked_mask[static_cast<std::size_t>(w) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (w % 64);
    word.fetch_or(bit);
    if (remaining.load() == 0 || ll_has_ready() ||
        nested_ready_total.load() != 0) {
      word.fetch_and(~bit);
      return;
    }
    {
      std::unique_lock<std::mutex> lk(me.park_mu);
      const unsigned seen = me.wake_epoch;
      // Second check under park_mu: a wake that raced ahead of us has
      // already bumped the epoch (publish precedes bump), so its work is
      // visible here and we must not sleep waiting for a second wake.
      if (remaining.load() != 0 && !ll_has_ready() &&
          nested_ready_total.load() == 0) {
        runtime_counters().ll_parks.fetch_add(1, std::memory_order_relaxed);
        me.park_cv.wait(lk, [&] { return me.wake_epoch != seen; });
      }
    }
    word.fetch_and(~bit);
  }

  // --- nested sub-epoch execution (DESIGN.md section 11) -----------------

  /// Count of ready (queued, unclaimed) slots across the pool's occupancy
  /// mirrors; feeds the nesting gate's occupancy heuristic.
  index_t ll_ready_count() const {
    if (opts.policy == SchedulerPolicy::Priority) return prio_size.load();
    index_t n = 0;
    for (const auto& w : ll_workers) n += w->size.load();
    return n;
  }

  /// Occupancy side of the nesting gate: splitting a tile task only pays
  /// when some worker could actually pick up the pieces — a parked worker,
  /// or fewer queued parent tasks than workers (so at least one worker is
  /// spinning idle or soon will be; "+1" counts the caller's own task as
  /// occupying the caller).
  bool nested_workers_available() const {
    return any_parked() ||
           ll_ready_count() + 1 < static_cast<index_t>(opts.num_workers);
  }

  /// Pop one ready task of `ne` (the owner's help loop).
  TaskId nested_pop(NestedEpochImpl& ne) {
    std::lock_guard<std::mutex> lk(nested_mu);
    if (ne.ready.empty()) return -1;
    const TaskId id = ne.ready.front();
    ne.ready.pop_front();
    nested_ready_total.fetch_sub(1);
    return id;
  }

  /// Run nested task `id` of `ne` on `worker`, release its successors, and
  /// retire it. The decrement of ne.remaining is the executor's LAST touch
  /// of the epoch: once it reaches zero the owner may unregister and
  /// destroy `ne`, so nothing here may read it afterwards.
  void nested_execute(NestedEpochImpl& ne, TaskId id, int worker) {
    NestedEpochImpl::NestedTask& t = ne.tasks[static_cast<std::size_t>(id)];
    const bool was_nested = tls_in_nested_task;
    tls_in_nested_task = true;  // nested-inside-nested stays inline
    std::exception_ptr error;
    try {
      t.fn();
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_nested_task = was_nested;
    if (error) {
      std::lock_guard<std::mutex> lk(ne.err_mu);
      if (!ne.first_error) ne.first_error = error;
    }
    index_t released = 0;
    {
      std::lock_guard<std::mutex> lk(nested_mu);
      for (const TaskId succ : t.successors)
        if (ne.tasks[static_cast<std::size_t>(succ)].pending.fetch_sub(1) ==
            1) {
          ne.ready.push_back(succ);
          ++released;
        }
      if (released > 0) nested_ready_total.fetch_add(released);
    }
    if (released > 1) ll_wake(released - 1);  // executor takes one itself
    runtime_counters().nested_tasks.fetch_add(1, std::memory_order_relaxed);
    if (worker != ne.owner_worker) {
      ne.stolen.fetch_add(1);
      runtime_counters().nested_steals.fetch_add(1,
                                                 std::memory_order_relaxed);
    }
    ne.remaining.fetch_sub(1);  // last touch — `ne` may now be destroyed
  }

  /// Idle-loop hook: steal one nested task from any registered sub-epoch.
  /// Returns false without touching nested_mu when no nested work exists.
  bool try_steal_nested(int w) {
    if (nested_ready_total.load() == 0) return false;
    NestedEpochImpl* ne = nullptr;
    TaskId id = -1;
    {
      std::lock_guard<std::mutex> lk(nested_mu);
      for (NestedEpochImpl* cand : nested_epochs) {
        if (cand->ready.empty()) continue;
        ne = cand;
        id = cand->ready.front();
        cand->ready.pop_front();
        nested_ready_total.fetch_sub(1);
        break;
      }
    }
    if (ne == nullptr) return false;
    nested_execute(*ne, id, w);
    return true;
  }

  void ll_worker_loop(int w, const std::chrono::steady_clock::time_point t0) {
    const CapturedGraph& g = *eg;
    auto& me = *ll_workers[static_cast<std::size_t>(w)];
    std::vector<TaskId> batch;
    std::vector<int> targets;
    std::vector<TaskId> sub;
    // Recent-write signature for the steal scorer: reset every kSigDecay
    // tasks so long epochs track what is still cache-warm, not history.
    std::uint64_t my_sig = 0;
    int sig_age = 0;
    constexpr int kSigDecay = 128;
    int idle_rounds = 0;
    constexpr int kSpinRounds = 6;   // exponential pause backoff ...
    constexpr int kYieldRounds = 4;  // ... then yields, then park
    while (remaining.load() != 0) {
      TaskId id = ll_pop(w, my_sig);
      if (id < 0) {
        // Idle: prefer stealing a nested task over backing off — the
        // sub-epoch's owner is blocked in wait() until it drains.
        if (try_steal_nested(w)) {
          idle_rounds = 0;
          continue;
        }
        ++idle_rounds;
        if (idle_rounds <= kSpinRounds) {
          for (int i = 0; i < (1 << idle_rounds); ++i) cpu_pause();
        } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
          std::this_thread::yield();
        } else {
          ll_park(w);
          idle_rounds = 0;
        }
        continue;
      }
      idle_rounds = 0;
      // Run the popped slot, then walk its fused chain inline: each fused
      // tail has in-degree 1, so this worker owns it outright and skips the
      // queue round-trip (the offline fusion pass, graph_cache.hpp). Live
      // graphs are not fused.
      while (id >= 0) {
        const auto slot = static_cast<std::size_t>(id);
        // The checker enters after the pop and leaves before successors
        // are released, so every edge orders a leave before an enter.
        if (opts.check_conflicts) {
          std::lock_guard<std::mutex> lk(mu);
          checker_enter(id);
        }
        const double start =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        Timer timer;
        std::exception_ptr error;
        try {
          fns[slot]();
        } catch (...) {
          error = std::current_exception();
        }
        const double dur = timer.seconds();
        if (opts.check_conflicts) {
          std::lock_guard<std::mutex> lk(mu);
          checker_leave(id);
        }
        if (error) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = error;
        }
        epoch_dur[slot] = dur;
        if (aff_epoch) {
          // Publish write ownership before releasing successors, so a
          // successor's placement sees this slot's outputs as ours.
          std::uint64_t bits = 0;
          for (index_t e = g.acc_off[slot]; e < g.acc_off[slot + 1]; ++e) {
            const auto ei = static_cast<std::size_t>(e);
            if (!g.acc_write[ei]) continue;
            const index_t h = g.acc_handle[ei];
            if (static_cast<std::size_t>(h) < aff_owner_count)
              aff_owner[static_cast<std::size_t>(h)].store(
                  w, std::memory_order_relaxed);
            bits |= aff_sig_bit(h);
          }
          if (++sig_age >= kSigDecay) {
            my_sig = 0;
            sig_age = 0;
          }
          my_sig |= bits;
        }
        // Batched successor release: resolve all dependency counters first,
        // publish the newly-ready set with one lock, then hand the surplus
        // (everything this worker won't immediately run itself) to parked
        // workers with targeted wakeups. With a fused tail this worker
        // stays busy, so every released slot is surplus.
        const TaskId fused = g.fused_next.empty() ? -1 : g.fused_next[slot];
        batch.clear();
        for (index_t e = g.succ_off[slot]; e < g.succ_off[slot + 1]; ++e) {
          const TaskId succ = g.succ[static_cast<std::size_t>(e)];
          if (succ == fused) continue;  // runs inline below, never queued
          if (pending[static_cast<std::size_t>(succ)].fetch_sub(1) == 1)
            batch.push_back(succ);
        }
        if (!batch.empty()) {
          if (aff_epoch) {
            ll_dispatch_affinity(w, batch, targets, sub,
                                 /*self_busy=*/fused >= 0);
          } else {
            ll_push_batch(w, batch);
            const auto surplus =
                static_cast<index_t>(batch.size()) - (fused >= 0 ? 0 : 1);
            if (surplus > 0) ll_wake(surplus);
          }
        }
        if (opts.record_trace)
          me.local_trace.push_back(
              TraceEvent{eg_base + id, w, start, start + dur});
        if (remaining.fetch_sub(1) == 1) {
          // A fused tail still pending would keep `remaining` above 1, so
          // reaching 0 here means the chain (and the epoch) is done.
          ll_wake_all();
          return;
        }
        id = fused;
      }
    }
  }

  /// Seed one initially-ready slot. The round-robin cursor is advanced for
  /// every ready slot under every policy (prio simply ignores it), exactly
  /// like the simulator's seeding — also when affinity overrides the
  /// target, so the cursor positions tests assert stay policy-independent.
  /// Under aff_epoch a seed with an affinity target (inputs with a known
  /// last writer, or a replayed slot's offline placement) goes to that
  /// owner instead of the cursor's worker.
  void ll_seed(TaskId id, std::vector<std::uint64_t>& by_worker) {
    int target = next_seed_worker();
    if (aff_epoch) {
      const int own = aff_target(id, by_worker);
      auto& rc = runtime_counters();
      if (own >= 0) {
        target = own;
        rc.affinity_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        rc.affinity_misses.fetch_add(1, std::memory_order_relaxed);
      }
      ll_owner[static_cast<std::size_t>(id)].store(target,
                                                   std::memory_order_relaxed);
    }
    const SlotPrioLess less{&eg->priority};
    if (opts.policy == SchedulerPolicy::Priority) {
      prio_heap.push_back(id);
      std::push_heap(prio_heap.begin(), prio_heap.end(), less);
      prio_size.fetch_add(1);
    } else if (opts.policy == SchedulerPolicy::WorkStealing) {
      auto& q = *ll_workers[static_cast<std::size_t>(target)];
      q.deque.push_back(id);
      q.size.fetch_add(1);
    } else {
      auto& q = *ll_workers[static_cast<std::size_t>(target)];
      q.heap.push_back(id);
      std::push_heap(q.heap.begin(), q.heap.end(), less);
      q.size.fetch_add(1);
    }
  }

  /// Merge the per-worker trace buffers in start order; only this epoch's
  /// slice is sorted (timestamps are relative to each epoch's start).
  void merge_ll_trace() {
    if (!opts.record_trace) return;
    const auto epoch_begin = static_cast<std::ptrdiff_t>(trace.size());
    for (const auto& wsp : ll_workers)
      trace.insert(trace.end(), wsp->local_trace.begin(),
                   wsp->local_trace.end());
    std::stable_sort(trace.begin() + epoch_begin, trace.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.start_s < b.start_s;
                     });
  }

  /// Run the epoch graph on a fresh pool of opts.num_workers threads.
  void run_pool() {
    const CapturedGraph& g = *eg;
    const auto n = static_cast<std::size_t>(g.count);
    const auto P = static_cast<std::size_t>(opts.num_workers);
    const auto t0 = std::chrono::steady_clock::now();
    seed_rr = 0;  // simulator replays restart the round-robin each epoch
    ll_workers.clear();
    for (std::size_t w = 0; w < P; ++w)
      ll_workers.push_back(std::make_unique<WorkerState>());
    prio_heap.clear();
    prio_size.store(0);
    for (std::size_t k = 0; k < parked_words; ++k) parked_mask[k].store(0);
    pending = std::make_unique<std::atomic<index_t>[]>(n);
    aff_epoch = aff_enabled_epoch();
    if (aff_epoch) {
      aff_owner_setup(std::max(handles.size(),
                               static_cast<std::size_t>(g.max_handle + 1)));
      for (const auto& wsp : ll_workers) wsp->by_worker.assign(P, 0);
      ll_owner = std::make_unique<std::atomic<int>[]>(n);
      aff_in_sig.assign(n, 0);
      if (has_access_bytes(g))
        for (std::size_t i = 0; i < n; ++i)
          for (index_t e = g.acc_off[i]; e < g.acc_off[i + 1]; ++e) {
            const auto ei = static_cast<std::size_t>(e);
            if (g.acc_read[ei]) aff_in_sig[i] |= aff_sig_bit(g.acc_handle[ei]);
          }
    }
    for (std::size_t i = 0; i < n; ++i) pending[i].store(g.pending0[i]);
    // Seeding runs before any worker starts, so it borrows worker 0's
    // affinity scratch.
    for (std::size_t i = 0; i < n; ++i)
      if (g.pending0[i] == 0)
        ll_seed(static_cast<TaskId>(i), ll_workers[0]->by_worker);
    if (n == 0) {
      if (aff_epoch) aff_owner_teardown();
      return;
    }
    remaining.store(g.count);
    std::vector<std::thread> pool;
    pool.reserve(P);
    for (int w = 0; w < opts.num_workers; ++w)
      pool.emplace_back([this, w, t0] {
        la::WorkspaceLease workspace_lease(w);
        // Publish the worker context so tasks run here can open parallel
        // nested sub-epochs (and thieves arrive with an arena leased).
        tls_worker_pool = this;
        tls_worker_id = w;
        ll_worker_loop(w, t0);
        tls_worker_pool = nullptr;
        tls_worker_id = -1;
      });
    for (auto& th : pool) th.join();
    if (aff_epoch) aff_owner_teardown();
    merge_ll_trace();
  }

  /// Execute graph `g` (slot i traced as task `base + i`) with the pool
  /// loop, or inline for one worker or the fuzzer.
  void execute(const CapturedGraph& g, TaskId base) {
    eg = &g;
    eg_base = base;
    epoch_dur.assign(static_cast<std::size_t>(g.count), 0.0);
    if (opts.check_conflicts) checker_reset();
    if (opts.num_workers == 1 || opts.fuzz_schedule) {
      run_inline();
    } else {
      run_pool();
    }
    eg = nullptr;
  }

  // --- capture (DESIGN.md section 10) -------------------------------------

  /// Turn the executed live graph into the CapturedGraph: the measured
  /// durations feed the offline passes (critical path, fusion, placement).
  /// A failed or conflicted epoch is discarded: callers see the exception
  /// and must not cache it.
  void finish_capture() {
    capture_armed = false;
    captured.reset();
    if (first_error || !conflict_log.empty()) return;
    live.duration_s = std::move(epoch_dur);
    assign_critical_path_priorities(live);
    fuse_linear_chains(live);
    if (!affinity_disabled()) assign_affinity_placement(live, opts.num_workers);
    epochs_captured.fetch_add(1, std::memory_order_relaxed);
    runtime_counters().graph_captures.fetch_add(1,
                                                std::memory_order_relaxed);
    runtime_counters().graph_fused_pairs.fetch_add(
        static_cast<std::uint64_t>(live.fused_pairs),
        std::memory_order_relaxed);
    captured = std::make_shared<const CapturedGraph>(std::move(live));
  }

  /// Run the live epoch [retired, tasks.size()), keep its durations in the
  /// task history (graph(), to_dot() and the simulator read them), hand
  /// the graph to an armed capture, and retire the epoch: its closures and
  /// accesses are dropped and the live range advances.
  void run_live_epoch() {
    lower_epoch();
    const TaskId base = retired;
    execute(live, base);
    for (std::size_t i = 0; i < epoch_dur.size(); ++i)
      tasks[static_cast<std::size_t>(base) + i].duration_s = epoch_dur[i];
    if (capture_armed) finish_capture();
    retired = static_cast<index_t>(tasks.size());
    fns.clear();
    live = CapturedGraph{};
    live.acc_off.push_back(0);
  }
};

Engine::Engine() : Engine(Options{}) {}
Engine::Engine(Options opts) : impl_(std::make_unique<Impl>(opts)) {}
Engine::~Engine() = default;

Handle Engine::register_data(std::string name, std::size_t bytes) {
  // During replay no accesses are interpreted, so per-epoch scratch data
  // (e.g. the solver's RHS panels) gets a placeholder handle instead of
  // growing the engine's handle table on every replayed epoch.
  if (impl_->replay != nullptr) return Handle{-1};
  impl_->handles.push_back(HandleState{std::move(name), bytes, -1, {}});
  return Handle{static_cast<index_t>(impl_->handles.size()) - 1};
}

TaskId Engine::submit(std::function<void()> fn, std::vector<Access> accesses,
                      int priority, std::string label) {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "submit() called while wait_all() is running");
  im.open_submit_clock();
  if (im.replay != nullptr) {
    // Replay re-bind: the captured graph already fixes edges, priorities,
    // and access semantics, so only the closure is taken; everything else
    // the caller passes is ignored. Submission order IS the slot order.
    HCHAM_CHECK_MSG(im.replay_next < im.replay->count,
                    "replay: more submissions than captured slots");
    im.fns[static_cast<std::size_t>(im.replay_next)] = std::move(fn);
    return im.replay_next++;
  }
  for (const Access& a : accesses)
    HCHAM_CHECK_MSG(a.handle.valid() &&
                        a.handle.id < static_cast<index_t>(im.handles.size()),
                    "unknown data handle");
  const TaskId id = static_cast<TaskId>(im.tasks.size());
  Task t;
  t.label = std::move(label);
  t.priority = priority;
  im.tasks.push_back(std::move(t));
  im.fns.push_back(std::move(fn));
  // The checker and the affinity placer read the collapsed accesses at
  // execution time; a capture records them so replays stay checkable.
  if (im.opts.check_conflicts || im.capture_armed || im.aff_track)
    im.collapse_accesses(accesses);
  im.live.acc_off.push_back(static_cast<index_t>(im.live.acc_handle.size()));

  for (const Access& a : accesses) {
    HandleState& hs = im.handles[static_cast<std::size_t>(a.handle.id)];
    if (a.mode == AccessMode::Read) {
      if (hs.last_writer >= 0) im.add_edge(hs.last_writer, id);
      // Dedupe: a task that lists the same handle twice (or writes then
      // reads it) is one reader, not several.
      if (hs.readers_since_write.empty() ||
          hs.readers_since_write.back() != id)
        hs.readers_since_write.push_back(id);
    } else {
      // Write / ReadWrite: after the last writer and every reader since.
      if (hs.last_writer >= 0) im.add_edge(hs.last_writer, id);
      for (const TaskId r : hs.readers_since_write)
        if (r != id) im.add_edge(r, id);
      hs.readers_since_write.clear();
      hs.last_writer = id;
    }
  }
  return id;
}

void Engine::wait_all() {
  struct ExecGuard {
    std::atomic<bool>& flag;
    explicit ExecGuard(std::atomic<bool>& f) : flag(f) {
      flag.store(true, std::memory_order_release);
    }
    ~ExecGuard() { flag.store(false, std::memory_order_release); }
  } guard(impl_->executing);
  Impl& im = *impl_;
  im.close_submit_clock(im.replay != nullptr);
  if (im.replay != nullptr) {
    // Replay dispatch: the captured DAG runs as-is; the engine's own
    // task/handle history is untouched, so there is nothing to retire.
    // The armed state is always cleared — also when dispatch throws on a
    // slot-count mismatch — so the engine stays usable.
    struct ReplayGuard {
      Impl& im;
      ~ReplayGuard() {
        im.replay.reset();
        im.fns.clear();
        im.replay_next = 0;
      }
    } rguard{im};
    HCHAM_CHECK_MSG(
        im.replay_next == im.replay->count,
        "replay: " + std::to_string(im.replay_next) + " closures bound for " +
            std::to_string(im.replay->count) + " captured slots");
    im.execute(*im.replay, 0);
    im.epochs_replayed.fetch_add(1, std::memory_order_relaxed);
    runtime_counters().graph_replays.fetch_add(1, std::memory_order_relaxed);
  } else {
    im.run_live_epoch();
  }
  // A conflict means the engine itself scheduled two overlapping accesses:
  // more fundamental than any task failure, so it is surfaced first.
  if (!im.conflict_log.empty()) {
    im.first_error = nullptr;
    throw Error(im.conflict_log.front() +
                (im.conflict_log.size() > 1
                     ? " (+" + std::to_string(im.conflict_log.size() - 1) +
                           " more)"
                     : ""));
  }
  // Surface the first task failure to the caller. Remaining tasks have
  // been drained (dependents of the failed task still ran; kernels are
  // written to be safe on inconsistent inputs), so the engine stays usable.
  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
}

index_t Engine::num_tasks() const {
  return static_cast<index_t>(impl_->tasks.size());
}

index_t Engine::num_edges() const {
  index_t e = 0;
  for (const Task& t : impl_->tasks)
    e += static_cast<index_t>(t.successors.size());
  return e;
}

int Engine::num_workers() const { return impl_->opts.num_workers; }
SchedulerPolicy Engine::policy() const { return impl_->opts.policy; }

int Engine::seed_cursor() const { return impl_->seed_rr; }

bool Engine::begin_capture() {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "begin_capture() called while wait_all() is running");
  // A live nested sub-epoch would corrupt the captured closure-slot order:
  // its tasks bypass submit(), so the capture could never replay them.
  HCHAM_CHECK_MSG(im.nested_live.load() == 0,
                  "begin_capture: engine has live nested sub-epochs");
  if (im.capture_armed || im.replay != nullptr || !im.all_drained())
    return false;
  im.capture_armed = true;
  im.captured.reset();
  return true;
}

std::shared_ptr<const CapturedGraph> Engine::end_capture() {
  Impl& im = *impl_;
  im.capture_armed = false;  // also cancels an armed capture before wait_all
  std::shared_ptr<const CapturedGraph> g = std::move(im.captured);
  im.captured.reset();
  return g;
}

void Engine::begin_replay(std::shared_ptr<const CapturedGraph> graph) {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(graph != nullptr, "begin_replay: null graph");
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "begin_replay() called while wait_all() is running");
  HCHAM_CHECK_MSG(!im.capture_armed && im.replay == nullptr,
                  "begin_replay: capture/replay already armed");
  HCHAM_CHECK_MSG(im.all_drained(),
                  "begin_replay: engine has undrained live tasks");
  HCHAM_CHECK_MSG(im.nested_live.load() == 0,
                  "begin_replay: engine has live nested sub-epochs");
  im.replay = std::move(graph);
  im.fns.assign(static_cast<std::size_t>(im.replay->count), nullptr);
  im.replay_next = 0;
  im.open_submit_clock();
}

bool Engine::capturing() const { return impl_->capture_armed; }
bool Engine::replaying() const { return impl_->replay != nullptr; }
bool Engine::drained() const { return impl_->all_drained(); }

Engine::ReplayStats Engine::replay_stats() const {
  return ReplayStats{
      impl_->epochs_captured.load(std::memory_order_relaxed),
      impl_->epochs_replayed.load(std::memory_order_relaxed)};
}

double Engine::last_submit_phase_s() const { return impl_->last_submit_s; }

int Engine::parked_workers() const {
  int n = 0;
  for (std::size_t k = 0; k < impl_->parked_words; ++k)
    n += std::popcount(impl_->parked_mask[k].load());
  return n;
}

bool Engine::on_worker_thread() const {
  return tls_worker_pool == impl_.get() && tls_worker_id >= 0 &&
         !tls_in_nested_task;
}

TaskGraph Engine::graph() const {
  TaskGraph g;
  g.nodes.reserve(impl_->tasks.size());
  for (const Task& t : impl_->tasks) {
    TaskGraph::Node n;
    n.label = t.label;
    n.priority = t.priority;
    n.duration_s = t.duration_s;
    n.successors = t.successors;
    n.num_dependencies = t.num_deps;
    g.nodes.push_back(std::move(n));
  }
  return g;
}

const std::vector<TraceEvent>& Engine::trace() const { return impl_->trace; }

const std::vector<std::string>& Engine::conflicts() const {
  return impl_->conflict_log;
}

std::string Engine::to_dot() const {
  const std::vector<Task>& tasks = impl_->tasks;
  std::ostringstream out;
  out << "digraph tasks {\n";
  for (std::size_t i = 0; i < tasks.size(); ++i)
    out << "  t" << i << " [label=\""
        << (tasks[i].label.empty() ? std::to_string(i) : tasks[i].label)
        << "\"];\n";
  for (std::size_t i = 0; i < tasks.size(); ++i)
    for (const TaskId s : tasks[i].successors)
      out << "  t" << i << " -> t" << s << ";\n";
  out << "}\n";
  return out.str();
}

// --- NestedEpoch (DESIGN.md section 11) ------------------------------------

NestedEpoch::NestedEpoch(Engine& engine, double est_flops)
    : impl_(std::make_unique<NestedEpochImpl>()) {
  NestedEpochImpl& im = *impl_;
  im.eng = engine.impl_.get();
  im.eng->nested_live.fetch_add(1);
  // The env knobs are read per construction (not cached) so tests can flip
  // them with setenv between epochs; the gate runs once per tile task,
  // which is far too coarse for getenv to matter.
  if (env_long("HCHAM_NESTED_DISABLE", 0) != 0 || !engine.on_worker_thread()) {
    runtime_counters().nested_inline.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (env_long("HCHAM_NESTED_FORCE", 0) == 0) {
    const double min_flops =
        env_double_bounded("HCHAM_NESTED_MIN_FLOPS", 1.0e7, 0.0, 1.0e18);
    if (est_flops < min_flops || !im.eng->nested_workers_available()) {
      runtime_counters().nested_inline.fetch_add(1,
                                                 std::memory_order_relaxed);
      return;
    }
  }
  im.is_parallel = true;
  im.owner_worker = tls_worker_id;
  runtime_counters().nested_epochs.fetch_add(1, std::memory_order_relaxed);
}

NestedEpoch::~NestedEpoch() {
  try {
    wait();
  } catch (...) {
    // Drain-only destructor: the error was already recorded; a caller that
    // cares must wait() explicitly.
  }
  impl_->eng->nested_live.fetch_sub(1);
}

Handle NestedEpoch::register_data(std::string, std::size_t) {
  NestedEpochImpl& im = *impl_;
  HCHAM_CHECK_MSG(!im.sealed, "NestedEpoch: register_data() after wait()");
  // Handles are sub-epoch-local; names are accepted for symmetry with
  // Engine::register_data but nested graphs are never rendered.
  im.handles.emplace_back();
  return Handle{static_cast<index_t>(im.handles.size()) - 1};
}

TaskId NestedEpoch::submit(std::function<void()> fn,
                           std::vector<Access> accesses, int priority,
                           std::string label) {
  NestedEpochImpl& im = *impl_;
  HCHAM_CHECK_MSG(!im.sealed, "NestedEpoch: submit() after wait()");
  if (!im.is_parallel) {
    // Inline mode: submission order is a valid topological order of the
    // graph the accesses imply, so running immediately is bit-identical to
    // any parallel schedule. Errors are collected, not raised — the
    // sub-epoch drains fully, exactly like parallel mode — and the first
    // one is rethrown from wait().
    const TaskId id = im.inline_tasks++;
    try {
      fn();
    } catch (...) {
      if (!im.first_error) im.first_error = std::current_exception();
    }
    return id;
  }
  const TaskId id = static_cast<TaskId>(im.tasks.size());
  im.tasks.emplace_back();
  NestedEpochImpl::NestedTask& t = im.tasks.back();
  t.fn = std::move(fn);
  t.label = std::move(label);
  t.priority = priority;
  // Same STF inference as Engine::submit, on the sub-epoch's own handle
  // table. Submission is single-threaded (the owner), so no locks; the
  // pending counters become shared only after wait() publishes the epoch.
  index_t pending = 0;
  auto add_edge = [&im, &pending, id](TaskId from) {
    if (from == id) return;
    NestedEpochImpl::NestedTask& src =
        im.tasks[static_cast<std::size_t>(from)];
    if (src.last_edge_to == id) return;  // dedupe within this submit
    src.last_edge_to = id;
    // Engine-wide nested fault injection: dropping an edge here leaves the
    // successor's pending count consistent (both sides skipped), so the
    // graph still drains — it just races, which is the point.
    if (im.eng->nested_edge_counter.fetch_add(1) ==
        im.eng->opts.nested_fault_drop_edge)
      return;
    src.successors.push_back(id);
    ++im.edges;
    ++pending;
  };
  for (const Access& a : accesses) {
    HCHAM_CHECK_MSG(
        a.handle.valid() &&
            a.handle.id < static_cast<index_t>(im.handles.size()),
        "unknown nested data handle");
    NestedEpochImpl::NestedHandle& hs =
        im.handles[static_cast<std::size_t>(a.handle.id)];
    if (a.mode == AccessMode::Read) {
      if (hs.last_writer >= 0) add_edge(hs.last_writer);
      if (hs.readers_since_write.empty() ||
          hs.readers_since_write.back() != id)
        hs.readers_since_write.push_back(id);
    } else {
      if (hs.last_writer >= 0) add_edge(hs.last_writer);
      for (const TaskId r : hs.readers_since_write)
        if (r != id) add_edge(r);
      hs.readers_since_write.clear();
      hs.last_writer = id;
    }
  }
  t.pending.store(pending, std::memory_order_relaxed);
  return id;
}

void NestedEpoch::wait() {
  NestedEpochImpl& im = *impl_;
  if (!im.sealed) {
    im.sealed = true;
    if (im.is_parallel && !im.tasks.empty()) {
      Engine::Impl& eng = *im.eng;
      const auto n = static_cast<index_t>(im.tasks.size());
      im.remaining.store(n);
      // Publish: register the epoch and its initially-ready set under
      // nested_mu, bump the occupancy mirror, THEN wake parked workers —
      // pairing with ll_park's announce-then-recheck, so a parking worker
      // either sees nested_ready_total or receives the targeted wake.
      index_t ready0 = 0;
      {
        std::lock_guard<std::mutex> lk(eng.nested_mu);
        eng.nested_epochs.push_back(&im);
        for (TaskId i = 0; i < n; ++i)
          if (im.tasks[static_cast<std::size_t>(i)].pending.load(
                  std::memory_order_relaxed) == 0) {
            im.ready.push_back(i);
            ++ready0;
          }
        eng.nested_ready_total.fetch_add(ready0);
      }
      if (ready0 > 1) eng.ll_wake(ready0 - 1);  // owner takes one itself
      // Owner help loop: run this epoch's ready tasks (never other
      // epochs' — the owner must not sink into a sibling's subgraph while
      // its own could drain); when none are ready, thieves hold the tail,
      // so back off lightly until remaining hits zero.
      int idle = 0;
      constexpr int kSpin = 6;
      while (im.remaining.load() != 0) {
        const TaskId id = eng.nested_pop(im);
        if (id >= 0) {
          idle = 0;
          eng.nested_execute(im, id, im.owner_worker);
          continue;
        }
        ++idle;
        if (idle <= kSpin) {
          for (int i = 0; i < (1 << idle); ++i) cpu_pause();
        } else {
          std::this_thread::yield();
        }
      }
      {
        std::lock_guard<std::mutex> lk(eng.nested_mu);
        eng.nested_epochs.erase(std::find(eng.nested_epochs.begin(),
                                          eng.nested_epochs.end(), &im));
      }
    }
  }
  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
}

bool NestedEpoch::parallel() const { return impl_->is_parallel; }

index_t NestedEpoch::num_tasks() const {
  return impl_->is_parallel ? static_cast<index_t>(impl_->tasks.size())
                            : impl_->inline_tasks;
}

index_t NestedEpoch::num_edges() const { return impl_->edges; }

index_t NestedEpoch::stolen() const { return impl_->stolen.load(); }

TaskGraph TaskGraph::tail_from(index_t first) const {
  HCHAM_CHECK(first >= 0 && first <= num_tasks());
  TaskGraph g;
  g.nodes.reserve(static_cast<std::size_t>(num_tasks() - first));
  for (index_t i = first; i < num_tasks(); ++i) {
    Node n = nodes[static_cast<std::size_t>(i)];
    for (TaskId& s : n.successors) {
      HCHAM_CHECK_MSG(s >= first, "edge crosses the sub-graph boundary");
      s -= first;
    }
    g.nodes.push_back(std::move(n));
  }
  return g;
}

double TaskGraph::critical_path_s() const {
  // Task ids ascend in submission order and edges point forward, so a
  // reverse sweep computes longest paths.
  std::vector<double> cp(nodes.size(), 0.0);
  for (index_t i = static_cast<index_t>(nodes.size()) - 1; i >= 0; --i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    double best = 0.0;
    for (const TaskId s : n.successors)
      best = std::max(best, cp[static_cast<std::size_t>(s)]);
    cp[static_cast<std::size_t>(i)] = n.duration_s + best;
  }
  double result = 0.0;
  for (const double v : cp) result = std::max(result, v);
  return result;
}

}  // namespace hcham::rt
