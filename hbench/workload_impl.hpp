// Definition of run_workload<T>; run_real.cpp and run_complex.cpp each
// instantiate it once so the two scalar types compile in parallel.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bem/testcase.hpp"
#include "cluster/cluster_tree.hpp"
#include "common/counters.hpp"
#include "core/tile_h.hpp"
#include "la/la.hpp"
#include "lifecycle/factor_store.hpp"
#include "serve/solver_service.hpp"
#include "workload.hpp"

namespace hbench {
namespace detail {

using hcham::index_t;
namespace core = hcham::core;
namespace la = hcham::la;
namespace rt = hcham::rt;
namespace serve = hcham::serve;
namespace bem = hcham::bem;
namespace lifecycle = hcham::lifecycle;

/// The library's default block accuracy; the workloads leave it unchanged.
constexpr double kEps = 1e-4;
constexpr double kForwardErrorBound = 10.0 * kEps;
/// Distinct right-hand sides drawn per run; 32 is the service's default
/// column budget per batch, so serve.batch32_ms solves 32 distinct columns.
constexpr int kPool = 32;

template <typename T>
double forward_error(const T* x, const T* x0, index_t n) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    num += std::norm(std::complex<double>(x[i] - x0[i]));
    den += std::norm(std::complex<double>(x0[i]));
  }
  return std::sqrt(num / den);
}

/// Every answer the run produces passes through here: it counts the
/// operation and fails it when the forward error exceeds the bound.
struct Answers {
  long attempted = 0;
  long failed = 0;
  double max_forward_error = 0.0;

  template <typename T>
  bool check(const T* x, const T* x0, index_t n) {
    const double fe = forward_error(x, x0, n);
    ++attempted;
    max_forward_error = std::max(max_forward_error, fe);
    if (!(fe <= kForwardErrorBound)) {
      ++failed;
      return false;
    }
    return true;
  }
  void fail() {
    ++attempted;
    ++failed;
  }
};

template <typename T>
T draw(SeedRng& rng) {
  if constexpr (std::is_same_v<T, double>) {
    return rng.uniform(-1.0, 1.0);
  } else {
    const double re = rng.uniform(-1.0, 1.0);
    return T(re, rng.uniform(-1.0, 1.0));
  }
}

template <typename T>
la::Matrix<T> column(const la::Matrix<T>& m, index_t c) {
  la::Matrix<T> v(m.rows(), 1);
  la::copy_column(m.cview(), c, v.view(), 0);
  return v;
}

constexpr double flop_factor(bool complex) { return complex ? 4.0 : 1.0; }

/// Median seconds per call of `fn`, over batches long enough for the clock.
template <typename Fn>
double per_call_s(Fn&& fn) {
  long k = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (long i = 0; i < k; ++i) fn();
    if (seconds_since(t0) >= 2e-3 || k >= (1L << 20)) break;
    k *= 2;
  }
  std::vector<double> t;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (long i = 0; i < k; ++i) fn();
    t.push_back(seconds_since(t0) / static_cast<double>(k));
  }
  return median(std::move(t));
}

inline long llc_bytes() {
  const long s = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return s > 0 ? s : 32L << 20;
}

/// Wall times of one assemble -> factorize -> solve repetition.
struct RepTimes {
  double assemble_s = 0.0;
  double factor_s = 0.0;
  double solve_s = 0.0;
  double total_s() const { return assemble_s + factor_s + solve_s; }
};

/// One engine epoch as seen from the benchmark, for the traced run.
struct PhaseLog {
  int span = -1;
  index_t first_task = 0;
  index_t end_task = 0;
  std::size_t first_event = 0;
  std::size_t end_event = 0;
  double wall_s = 0.0;
  double submit_s = 0.0;
};

template <typename T>
struct Rep {
  std::unique_ptr<rt::Engine> engine;
  std::unique_ptr<core::TileHMatrix<T>> a;
  std::vector<T> x;  ///< solution of pool column `rhs`
  index_t rhs = 0;
  RepTimes t;

  void release() {
    a.reset();
    engine.reset();
  }
};

template <typename Fn>
double timed_phase(const char* name, rt::Engine& eng, SpanRecorder& tr,
                   int parent, int rep, std::vector<PhaseLog>& log, Fn&& fn) {
  PhaseLog p;
  p.first_task = eng.num_tasks();
  p.first_event = eng.trace().size();
  p.span = tr.open(name, parent, rep);
  const auto t0 = Clock::now();
  fn();
  p.wall_s = seconds_since(t0);
  tr.close(p.span);
  p.end_task = eng.num_tasks();
  p.end_event = eng.trace().size();
  p.submit_s = eng.last_submit_phase_s();
  if (tr.enabled()) log.push_back(p);
  return p.wall_s;
}

/// Tasks [first, end) of `g` as a graph of their own; valid for one epoch,
/// whose edges never leave it.
inline rt::TaskGraph slice(const rt::TaskGraph& g, index_t first,
                           index_t end) {
  rt::TaskGraph s;
  for (index_t i = first; i < end; ++i) {
    rt::TaskGraph::Node n = g.nodes[static_cast<std::size_t>(i)];
    std::vector<rt::TaskId> succ;
    for (rt::TaskId t : n.successors)
      if (t >= first && t < end) succ.push_back(t - first);
    n.successors = std::move(succ);
    s.nodes.push_back(std::move(n));
  }
  return s;
}

/// Per-layer metrics of one traced repetition: engine task spans placed
/// under their phase span, task time per tile kernel label, and counter
/// deltas.
template <typename T>
std::vector<Metric> rep_layers(const Rep<T>& rep,
                               const std::vector<PhaseLog>& phases,
                               SpanRecorder& tr, int rep_id,
                               const hcham::ArithCounterSnapshot& a0,
                               const hcham::RuntimeCounterSnapshot& r0,
                               double compression) {
  const hcham::ArithCounterSnapshot a1 = hcham::snapshot_arith_counters();
  const hcham::RuntimeCounterSnapshot r1 = hcham::snapshot_runtime_counters();
  const rt::Engine& eng = *rep.engine;
  const rt::TaskGraph g = eng.graph();
  const std::vector<rt::TraceEvent>& ev = eng.trace();

  double busy = 0.0, wall = 0.0, self = 0.0, submit = 0.0, cp = 0.0;
  for (const PhaseLog& p : phases) {
    wall += p.wall_s;
    submit += p.submit_s;
    cp += slice(g, p.first_task, p.end_task).critical_path_s();
    // Event times are relative to the epoch's start; the epoch is placed
    // so that its last task ends where the phase returned.
    double last = 0.0;
    for (std::size_t e = p.first_event; e < p.end_event; ++e)
      last = std::max(last, ev[e].end_s);
    const Span ps = tr.span(p.span);  // copied: add() may reallocate
    const double anchor = std::max(ps.start_s, ps.end_s - last);
    for (std::size_t e = p.first_event; e < p.end_event; ++e) {
      const rt::TraceEvent& te = ev[e];
      busy += te.end_s - te.start_s;
      const auto id = static_cast<std::size_t>(te.task);
      tr.add(Span{id < g.nodes.size() ? g.nodes[id].label : "task", p.span,
                  rep_id, 1 + te.worker, anchor + te.start_s,
                  anchor + te.end_s});
    }
    self += tr.self_s(p.span);
  }

  std::map<std::string, std::pair<double, long>> by_label;
  for (const rt::TaskGraph::Node& n : g.nodes) {
    auto& [s, c] = by_label[n.label];
    s += n.duration_s;
    ++c;
  }
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> m = {
      {"runtime.tasks", static_cast<double>(eng.num_tasks()), "count"},
      {"runtime.edges", static_cast<double>(eng.num_edges()), "count"},
      {"runtime.busy_s", busy, "s"},
      {"runtime.idle_frac", 1.0 - frac(busy, kLuWorkers * wall), "1"},
      {"runtime.critical_path_s", cp, "s"},
      {"runtime.self_s", self, "s"},
      {"runtime.submit_s", submit, "s"},
      {"runtime.steals", d(r1.ll_steals, r0.ll_steals), "count"},
      {"runtime.parks", d(r1.ll_parks, r0.ll_parks), "count"},
      {"runtime.wakes", d(r1.ll_wakes, r0.ll_wakes), "count"},
      {"runtime.nested_tasks", d(r1.nested_tasks, r0.nested_tasks), "count"},
  };
  for (const char* label : {"getrf", "trsm", "gemm", "assemble", "solve_l",
                            "solve_u", "gemm_rhs"}) {
    const auto it = by_label.find(label);
    const auto [s, c] =
        it == by_label.end() ? std::pair<double, long>{0.0, 0} : it->second;
    m.push_back({std::string("tile.") + label + "_s", s, "s"});
    m.push_back({std::string("tile.") + label + "_tasks",
                 static_cast<double>(c), "count"});
  }
  const double adds = d(a1.rounded_adds, a0.rounded_adds);
  m.insert(
      m.end(),
      {
          {"rk.truncations", d(a1.truncations, a0.truncations), "count"},
          {"rk.rounded_adds", adds, "count"},
          {"rk.fastpath_frac",
           frac(d(a1.rounded_add_fastpaths, a0.rounded_add_fastpaths), adds),
           "1"},
          {"rk.acc_updates", d(a1.acc_updates, a0.acc_updates), "count"},
          {"rk.acc_flushes", d(a1.acc_flushes, a0.acc_flushes), "count"},
          {"rk.acc_budget_flushes",
           d(a1.acc_budget_flushes, a0.acc_budget_flushes), "count"},
          {"rk.acc_compactions", d(a1.acc_compactions, a0.acc_compactions),
           "count"},
          {"la.ws_hit_frac",
           frac(d(a1.ws_hits, a0.ws_hits),
                d(a1.ws_hits, a0.ws_hits) + d(a1.ws_misses, a0.ws_misses)),
           "1"},
          {"la.batch_bucketed_frac",
           frac(d(a1.batch_bucketed_ops, a0.batch_bucketed_ops),
                d(a1.batch_ops, a0.batch_ops)),
           "1"},
          {"hmatrix.compression", compression, "1"},
      });
  return m;
}

/// Rates of the dense kernels at the workload's shapes (leaf 64, tile NB),
/// a memory copy over four times the last-level cache, the clustering and
/// the kernel entry cost. Traced runs only.
template <typename T>
std::vector<Metric> kernel_layers(const bem::FemBemProblem<T>& problem,
                                  index_t nb, RunResult& out) {
  const double ff = flop_factor(!std::is_same_v<T, double>);
  std::vector<Metric> m;
  const auto gemm_gflops = [&](index_t k) {
    const la::Matrix<T> a = la::Matrix<T>::random(k, k, 1);
    const la::Matrix<T> b = la::Matrix<T>::random(k, k, 2);
    la::Matrix<T> c(k, k);
    const double s = per_call_s([&] {
      la::gemm<T>(la::Op::NoTrans, la::Op::NoTrans, T{1}, a.cview(),
                  b.cview(), T{0}, c.view());
    });
    return ff * 2.0 * static_cast<double>(k * k * k) / s / 1e9;
  };
  m.push_back({"la.gemm_leaf_gflops", gemm_gflops(64), "GFLOP/s"});
  m.push_back({"la.gemm_tile_gflops", gemm_gflops(nb), "GFLOP/s"});
  {
    // Well-conditioned lower triangle so repeated in-place solves stay
    // bounded.
    const index_t k = 64;
    la::Matrix<T> l = la::Matrix<T>::random(k, k, 3);
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < k; ++i)
        l(i, j) = i == j ? T{1} : l(i, j) * T{0.01 / 64.0};
    la::Matrix<T> b = la::Matrix<T>::random(k, k, 4);
    const double s = per_call_s([&] {
      la::trsm<T>(la::Side::Left, la::Uplo::Lower, la::Op::NoTrans,
                  la::Diag::NonUnit, T{1}, l.cview(), b.view());
    });
    m.push_back({"la.trsm_leaf_gflops",
                 ff * static_cast<double>(k * k * k) / s / 1e9, "GFLOP/s"});
  }
  {
    la::Matrix<T> a0 = la::Matrix<T>::random(nb, nb, 5);
    for (index_t i = 0; i < nb; ++i) a0(i, i) += T(static_cast<double>(nb));
    la::Matrix<T> a(nb, nb);
    std::vector<index_t> ipiv(static_cast<std::size_t>(nb));
    std::vector<double> t;
    for (int r = 0; r < 5; ++r) {
      la::copy(a0.cview(), a.view());
      const auto t0 = Clock::now();
      la::getrf(a.view(), ipiv.data());
      t.push_back(seconds_since(t0));
    }
    const double flops =
        ff * 2.0 / 3.0 * static_cast<double>(nb) * static_cast<double>(nb * nb);
    m.push_back({"la.getrf_tile_gflops", flops / median(t) / 1e9, "GFLOP/s"});
  }
  {
    const long llc = llc_bytes();
    const std::size_t bytes = static_cast<std::size_t>(4 * llc) & ~std::size_t{127};
    const std::size_t half = bytes / 2;
    std::unique_ptr<char[]> buf(new char[bytes]);
    std::memset(buf.get(), 1, bytes);
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      std::memcpy(buf.get() + half, buf.get(), half);
      t.push_back(seconds_since(t0));
    }
    m.push_back({"la.stream_gbps", 2.0 * static_cast<double>(half) /
                                       median(t) / 1e9,
                 "GB/s"});
    out.notes.push_back("la.stream_gbps: copy of " + std::to_string(half) +
                        " B within a " + std::to_string(bytes) +
                        " B array; LLC " + std::to_string(llc) + " B");
  }
  {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      std::vector<hcham::cluster::Point3> pts = problem.points();
      const auto t0 = Clock::now();
      const hcham::cluster::TileClustering c =
          hcham::cluster::build_ntiles_clustering(
              std::move(pts), nb, core::TileHOptions{}.clustering);
      t.push_back(seconds_since(t0));
    }
    m.push_back({"cluster.build_ms", 1e3 * median(t), "ms"});
  }
  {
    const index_t k = std::min<index_t>(nb, problem.size() / 2);
    T sink{};
    const auto t0 = Clock::now();
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < k; ++i) sink += problem.entry(i, k + j);
    const double s = seconds_since(t0);
    volatile double keep = std::abs(sink);
    (void)keep;
    m.push_back({"bem.entry_ns",
                 1e9 * s / static_cast<double>(k * k), "ns"});
  }
  return m;
}

template <typename T>
RunResult run(const WorkloadSpec& spec, const RunArgs& args) {
  const auto t_start = Clock::now();
  RunResult out;
  Answers ans;
  SpanRecorder tr(args.trace);
  const int root = tr.open(spec.name, -1, -1);

  // --- set-up -------------------------------------------------------------
  const int setup_span = tr.open("setup", root, -1);
  const bem::FemBemProblem<T> problem(spec.n);
  const index_t n = problem.size();
  const auto gen = [&problem](index_t i, index_t j) {
    return problem.entry(i, j);
  };
  core::TileHOptions hopts;
  hopts.tile_size = spec.nb;

  SeedRng rng(args.seed);
  la::Matrix<T> x0(n, kPool);
  for (index_t c = 0; c < kPool; ++c)
    for (index_t i = 0; i < n; ++i) x0(i, c) = draw<T>(rng);
  la::Matrix<T> b(n, kPool);  // b = A x0, filled by the warm-up repetition

  std::vector<PhaseLog> phases;
  double compression = 0.0;
  // One assemble -> factorize -> solve; `make_rhs` also fills the RHS pool
  // from the assembled operator before it is factorized (untimed).
  const auto repetition = [&](bool traced, int rep_id, bool make_rhs) {
    Rep<T> r;
    r.engine = std::make_unique<rt::Engine>(rt::Engine::Options{
        .num_workers = kLuWorkers, .record_trace = traced});
    r.rhs = rep_id < 0 ? 0 : rep_id % kPool;
    phases.clear();
    SpanRecorder off(false);
    SpanRecorder& rec = traced ? tr : off;
    const int rs = rec.open("repetition", root, rep_id);
    std::vector<hcham::cluster::Point3> pts = problem.points();
    r.t.assemble_s = timed_phase("assemble", *r.engine, rec, rs, rep_id,
                                 phases, [&] {
      r.a = std::make_unique<core::TileHMatrix<T>>(
          core::TileHMatrix<T>::build(*r.engine, std::move(pts), gen, hopts));
    });
    compression = r.a->compression_ratio();
    if (make_rhs)
      for (index_t c = 0; c < kPool; ++c)
        r.a->matvec(T{1}, &x0(0, c), T{0}, &b(0, c));
    r.t.factor_s = timed_phase("factorize", *r.engine, rec, rs, rep_id, phases,
                               [&] { r.a->factorize(*r.engine); });
    r.x.assign(&b(0, r.rhs), &b(0, r.rhs) + n);
    r.t.solve_s = timed_phase("solve", *r.engine, rec, rs, rep_id, phases, [&] {
      r.a->solve(*r.engine, la::MatrixView<T>(r.x.data(), n, 1, n));
    });
    rec.close(rs);
    ans.check(r.x.data(), &x0(0, r.rhs), n);
    return r;
  };
  const RepTimes warm = repetition(false, -1, true).t;
  tr.close(setup_span);
  const double setup_s = seconds_since(t_start);

  // --- measured repetitions -----------------------------------------------
  const auto t_measure = Clock::now();
  std::vector<double> tts, assemble, factor;
  std::vector<double> tts_traced;
  std::vector<Metric> layers;
  Rep<T> last;
  for (int k = 0;; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    const auto a0 = hcham::snapshot_arith_counters();
    const auto r0 = hcham::snapshot_runtime_counters();
    last.release();  // free the previous repetition before the next one
    last = repetition(traced, k, false);
    if (traced) {
      tts_traced.push_back(last.t.total_s());
      layers = rep_layers(last, phases, tr, k, a0, r0,
                          compression);
      const double factor_bytes =
          sizeof(T) * static_cast<double>(last.a->stored_elements());
      layers.push_back({"hmatrix.factor_mb", factor_bytes / 1e6, "MB"});
      layers.push_back(
          {"la.solve_gbps", factor_bytes / last.t.solve_s / 1e9, "GB/s"});
    } else {
      tts.push_back(last.t.total_s());
      assemble.push_back(last.t.assemble_s);
      factor.push_back(last.t.factor_s);
    }
    const bool enough = !args.trace || !tts_traced.empty();
    if (enough && seconds_since(t_measure) >= spec.lu_share * args.seconds)
      break;
  }

  {
    std::string note = "repetition s (assemble+factor+solve): warm-up " +
                       std::to_string(warm.total_s()) + ", measured";
    for (double t : tts) note += " " + std::to_string(t);
    out.notes.push_back(note);
  }

  // --- persist and cold-start ---------------------------------------------
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/factors-" + spec.name + "-" +
                           std::to_string(::getpid()) + ".bin";
  const int serve_span = tr.open("serve", root, -1);
  const auto a_serve0 = hcham::snapshot_arith_counters();
  const auto r_serve0 = hcham::snapshot_runtime_counters();
  double save_s = 0.0;
  {
    const int s = tr.open("save_factors", serve_span, -1);
    const auto t0 = Clock::now();
    lifecycle::save_factors(*last.a, lifecycle::FactorKind::Lu, path);
    save_s = seconds_since(t0);
    tr.close(s);
  }
  const std::vector<T> x_mem = std::move(last.x);
  const index_t rhs_mem = last.rhs;
  last.release();
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;

  serve::SessionOptions sopts;
  sopts.workers = kServeWorkers;
  std::optional<serve::Session<T>> session;
  std::vector<double> cold;
  for (int c = 0; c < kColdStarts; ++c) {
    session.reset();
    const int s = tr.open("restore", serve_span, -1);
    std::vector<T> x(&b(0, rhs_mem), &b(0, rhs_mem) + n);
    const auto t0 = Clock::now();
    session.emplace(serve::Session<T>::restore(path, sopts));
    session->solve_now(la::MatrixView<T>(x.data(), n, 1, n));
    cold.push_back(seconds_since(t0));
    tr.close(s);
    // The restored factors must answer exactly as the in-memory ones did.
    if (ans.check(x.data(), &x0(0, rhs_mem), n) &&
        std::memcmp(x.data(), x_mem.data(), sizeof(T) * x.size()) != 0) {
      ++ans.failed;
      out.notes.push_back("restored solution differs from the in-memory one");
    }
  }

  // --- closed loop --------------------------------------------------------
  // Waves of kClients single-column requests: each client waits for
  // its reply before the next wave. A wave reaches the service within its
  // batching window, so every wave is served as one batch and the numbers
  // do not depend on how replies and resubmissions happen to interleave.
  std::vector<double> lat;
  serve::StatsSnapshot closed_stats;
  double closed_wall = 0.0;
  {
    const int s = tr.open("closed_loop", serve_span, -1);
    serve::SolverService<T> svc(*session);
    std::vector<std::pair<index_t, std::future<serve::SolveReply<T>>>> wave;
    std::vector<la::Matrix<T>> rhs;
    long sent = 0;
    const auto t0 = Clock::now();
    while (sent < spec.closed_requests) {
      wave.clear();
      rhs.clear();
      for (int i = 0; i < kClients && sent + i < spec.closed_requests;
           ++i)
        rhs.push_back(column(b, (sent + i) % kPool));
      for (la::Matrix<T>& r : rhs)
        wave.emplace_back(sent++ % kPool, svc.submit(std::move(r)));
      for (auto& [c, f] : wave) {
        serve::SolveReply<T> rep = f.get();
        const bool ok = rep.ok() ? ans.check(rep.x.data(), &x0(0, c), n)
                                 : (ans.fail(), false);
        lat.push_back(ok ? rep.latency_s
                         : std::numeric_limits<double>::infinity());
      }
    }
    closed_wall = seconds_since(t0);
    closed_stats = svc.stats();
    tr.close(s);
  }
  const double closed_rps =
      static_cast<double>(std::count_if(
          lat.begin(), lat.end(), [](double l) { return std::isfinite(l); })) /
      closed_wall;

  // --- open loop (traced runs) --------------------------------------------
  // Latency from the due time under a fixed offered load. Its tail is too
  // noisy on a shared 4-vCPU host to bound as an end-to-end metric, so it
  // is reported with the layers.
  std::vector<double> open_lat, late;
  serve::StatsSnapshot open_stats;
  if (args.trace && spec.open_requests > 0) {
    std::vector<OpenLoopSample> samples(
        static_cast<std::size_t>(spec.open_requests));
    const int s = tr.open("open_loop", serve_span, -1);
    const std::vector<double> due =
        poisson_schedule(args.seed ^ 0x6f70656eULL, spec.open_rate,
                         samples.size());
    serve::SolverService<T> svc(*session);
    std::deque<std::pair<std::size_t, std::future<serve::SolveReply<T>>>>
        pending;
    const auto consume = [&](std::size_t i, serve::SolveReply<T> rep) {
      const index_t c = static_cast<index_t>(i % kPool);
      samples[i].service_s = rep.latency_s;
      samples[i].ok = rep.ok() ? ans.check(rep.x.data(), &x0(0, c), n)
                               : (ans.fail(), false);
    };
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      la::Matrix<T> r = column(b, static_cast<index_t>(i % kPool));
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      const auto sent = Clock::now();
      pending.emplace_back(i, svc.submit(std::move(r)));
      samples[i].due_s = due[i];
      samples[i].sent_s = std::chrono::duration<double>(sent - t0).count();
      // Check replies as they arrive, so finished solutions do not pile up.
      while (!pending.empty() &&
             pending.front().second.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        consume(pending.front().first, pending.front().second.get());
        pending.pop_front();
      }
    }
    for (auto& [i, f] : pending) consume(i, f.get());
    open_stats = svc.stats();
    tr.close(s);
    for (const OpenLoopSample& o : samples) {
      open_lat.push_back(latency_from_due_s(o));
      late.push_back(lateness_s(o));
    }
  }

  // --- traced-only layers -------------------------------------------------
  if (args.trace) {
    const auto a_serve1 = hcham::snapshot_arith_counters();
    const auto r_serve1 = hcham::snapshot_runtime_counters();
    const auto batch_ms = [&](index_t cols) {
      std::vector<double> t;
      for (int r = 0; r < 5; ++r) {
        la::Matrix<T> x(n, cols);
        for (index_t c = 0; c < cols; ++c)
          la::copy_column(b.cview(), c, x.view(), c);
        const auto t0 = Clock::now();
        session->solve_now(x.view());
        t.push_back(seconds_since(t0));
        for (index_t c = 0; c < cols; ++c) ans.check(&x(0, c), &x0(0, c), n);
      }
      return 1e3 * median(std::move(t));
    };
    double load_s = 0.0;
    {
      rt::Engine eng(rt::Engine::Options{.num_workers = kServeWorkers});
      const int s = tr.open("load_factors", serve_span, -1);
      const auto t0 = Clock::now();
      lifecycle::LoadedFactors<T> lf = lifecycle::load_factors<T>(eng, path);
      load_s = seconds_since(t0);
      tr.close(s);
    }
    const double d_trunc =
        static_cast<double>(a_serve1.truncations - a_serve0.truncations);
    layers.insert(
        layers.end(),
        {
            {"runtime.graph_replays",
             static_cast<double>(r_serve1.graph_replays - r_serve0.graph_replays),
             "count"},
            {"runtime.graph_cache_hits",
             static_cast<double>(r_serve1.graph_cache_hits -
                                 r_serve0.graph_cache_hits),
             "count"},
            {"rk.serve_truncations", d_trunc, "count"},
            {"serve.batches",
             static_cast<double>(closed_stats.batches + open_stats.batches),
             "count"},
            {"serve.mean_batch_cols",
             static_cast<double>(closed_stats.solved_columns +
                                 open_stats.solved_columns) /
                 static_cast<double>(closed_stats.batches + open_stats.batches),
             "cols"},
            {"serve.queue_peak",
             static_cast<double>(
                 std::max(closed_stats.queue_peak, open_stats.queue_peak)),
             "count"},
            {"serve.rejected",
             static_cast<double>(closed_stats.rejected + open_stats.rejected),
             "count"},
            {"serve.timed_out",
             static_cast<double>(closed_stats.timed_out + open_stats.timed_out),
             "count"},
            {"serve.p50_ms", 1e3 * quantile(lat, 0.50), "ms"},
            {"serve.p99_ms", 1e3 * quantile(lat, 0.99), "ms"},
            {"serve.rps", closed_rps, "1/s"},
            {"serve.open_p50_ms",
             open_lat.empty() ? 0.0 : 1e3 * quantile(open_lat, 0.50), "ms"},
            {"serve.open_p99_ms",
             open_lat.empty() ? 0.0 : 1e3 * quantile(open_lat, 0.99), "ms"},
            {"serve.gen_late_ms", late.empty() ? 0.0 : 1e3 * quantile(late, 0.99),
             "ms"},
            {"serve.batch1_ms", batch_ms(1), "ms"},
            {"serve.batch32_ms", batch_ms(kPool), "ms"},
            {"lifecycle.save_s", save_s, "s"},
            {"lifecycle.load_s", load_s, "s"},
            {"lifecycle.file_mb", file_mb, "MB"},
            {"lifecycle.load_gbps", file_mb / 1e3 / load_s, "GB/s"},
        });
  }
  tr.close(serve_span);
  session.reset();
  std::filesystem::remove(path);

  if (args.trace) {
    const std::vector<Metric> k = kernel_layers(problem, spec.nb, out);
    layers.insert(layers.end(), k.begin(), k.end());
    layers.push_back({"trace.overhead_frac",
                      median(tts_traced) / median(tts) - 1.0, "1"});
    tr.close(root);
    const std::string trace_path = args.out_dir + "/trace-" + spec.name +
                                   "-" + std::to_string(args.seed) + ".json";
    if (!tr.write_chrome(trace_path))
      throw std::runtime_error("cannot write " + trace_path);
    out.notes.push_back("chrome trace: " + trace_path + " (" +
                        std::to_string(tr.spans().size()) + " spans)");
    out.metrics = std::move(layers);
  } else {
    out.metrics = {
        {"time_to_solution_s", median(tts), "s", tts.size()},
        {"assemble_s", median(assemble), "s", assemble.size()},
        {"factor_s", median(factor), "s", factor.size()},
        {"forward_error", ans.max_forward_error, "1",
         static_cast<std::size_t>(ans.attempted)},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", setup_s, "s"},
        {"cold_start_s", median(cold), "s", cold.size()},
    };
  }
  out.notes.push_back(
      "closed loop: " + std::to_string(lat.size()) + " requests, p50 " +
      std::to_string(1e3 * quantile(lat, 0.50)) + " ms, p" +
      std::to_string(highest_supported_percentile(lat.size())) +
      " (the highest percentile with ten samples beyond it) " +
      std::to_string(1e3 * quantile(lat, 0.99)) + " ms, " +
      std::to_string(closed_rps) + " correct solves/s");
  out.attempted = ans.attempted;
  out.failed = ans.failed;
  return out;
}

}  // namespace detail

template <typename T>
RunResult run_workload(const WorkloadSpec& spec, const RunArgs& args) {
  return detail::run<T>(spec, args);
}

}  // namespace hbench
