// Eager vs lazy-accumulated Tile-H LU: the benchmark behind the lazy
// low-rank update accumulators (rk/accumulator.hpp). The same FEM/BEM
// problem is factorized twice in one process -- once with accumulation
// disabled (every Rk update pays an immediate QR+SVD recompression, the
// pre-accumulator behavior) and once enabled (updates append factor
// columns, one truncation per flush) -- and the wall times, truncation
// counts, and forward errors are compared.
//
// Usage: accumulator_lu [--smoke] [--out=PATH] [--mode=eager|lazy|both]
//   --smoke    trimmed size for CI
//   --out=PATH result file (default BENCH_accum.json)
//   --mode=M   run a single mode (skips the comparison gates; handy for
//              profiling one path in isolation)
//
// Records ("accum_lu_eager" / "accum_lu_lazy") carry extra fields:
// "workers", "truncations", "acc_updates", "acc_flushes",
// "acc_budget_flushes", "ws_hit_rate", "forward_error".
//
// Exit status is nonzero when
//   * the truncation count is not reduced >= 3x (counted, deterministic:
//     the per-tile update order is fixed by the DAG's readwrite chains,
//     so the counts do not depend on scheduling), or
//   * on hosts with >= 4 hardware threads, the lazy factorization is not
//     >= 1.3x faster than the eager one (skipped on smaller hosts, where
//     the counter gate still runs), or
//   * the lazy forward error degrades by more than an order of magnitude
//     past the eager one (both should sit near eps).
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "rk/accumulator.hpp"

using namespace hcham;

namespace {

bench::BenchJson g_json;

/// Exact dense matvec from the kernel: b = A x0.
void exact_matvec(const bem::FemBemProblem<double>& problem, const double* x,
                  double* y) {
  const index_t n = problem.size();
  for (index_t i = 0; i < n; ++i) {
    double acc{};
    for (index_t j = 0; j < n; ++j) acc += problem.entry(i, j) * x[j];
    y[i] = acc;
  }
}

struct ModeResult {
  double time_s = 0.0;
  double forward_error = 0.0;
  core::ArithProfile profile;
};

/// One full cycle at the given accumulator setting: fresh assembly (the
/// factorization overwrites the tiles), factorize, solve, compare.
ModeResult run_mode(bool lazy, const bem::FemBemProblem<double>& problem,
                    index_t nb, double eps, int workers, int reps) {
  rk::acc_config().enabled = lazy;
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  const index_t n = problem.size();
  ModeResult out;
  for (int r = 0; r < reps; ++r) {
    rt::Engine engine({.num_workers = workers});
    auto a = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                              bench::tileh_options(nb, eps));
    core::reset_arith_profile();
    a.factorize_submit(engine);
    Timer t;
    engine.wait_all();
    const double time_s = t.seconds();
    if (r == 0 || time_s < out.time_s) out.time_s = time_s;
    out.profile = core::arith_profile();

    if (r == 0) {
      Rng rng(1234);
      std::vector<double> x0(static_cast<std::size_t>(n));
      for (double& v : x0) v = rng.scalar<double>();
      std::vector<double> b(static_cast<std::size_t>(n));
      exact_matvec(problem, x0.data(), b.data());
      la::MatrixView<double> bv(b.data(), n, 1, n);
      a.solve(engine, bv);
      double diff = 0, ref = 0;
      for (index_t i = 0; i < n; ++i) {
        diff += abs_sq(b[static_cast<std::size_t>(i)] -
                       x0[static_cast<std::size_t>(i)]);
        ref += abs_sq(x0[static_cast<std::size_t>(i)]);
      }
      out.forward_error = std::sqrt(diff / ref);
    }
  }
  return out;
}

void report(const char* name, index_t n, int workers, int reps,
            const ModeResult& m) {
  bench::BenchRecord rec;
  rec.name = name;
  rec.size = n;
  rec.reps = reps;
  rec.median_s = rec.min_s = m.time_s;
  rec.extra = {
      {"workers", static_cast<double>(workers)},
      {"truncations", static_cast<double>(m.profile.truncations)},
      {"acc_updates", static_cast<double>(m.profile.acc_updates)},
      {"acc_flushes", static_cast<double>(m.profile.acc_flushes)},
      {"acc_budget_flushes",
       static_cast<double>(m.profile.acc_budget_flushes)},
      {"acc_compactions", static_cast<double>(m.profile.acc_compactions)},
      {"svd_sweeps", static_cast<double>(m.profile.svd_sweeps)},
      {"svd_revealed_cols", static_cast<double>(m.profile.svd_revealed_cols)},
      {"ws_hit_rate", m.profile.ws_hit_rate()},
      {"forward_error", m.forward_error},
  };
  g_json.add(rec);
  std::printf(
      "%-16s N=%-6ld P=%-2d  %.4f s  trunc %-7llu compact %-7llu ferr %.2e "
      "ws_hit %.3f\n",
      name, static_cast<long>(n), workers, m.time_s,
      static_cast<unsigned long long>(m.profile.truncations),
      static_cast<unsigned long long>(m.profile.acc_compactions),
      m.forward_error, m.profile.ws_hit_rate());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_accum.json";
  std::string mode = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else if (std::strncmp(argv[i], "--mode=", 7) == 0) mode = argv[i] + 7;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH] [--mode=M]\n",
                   argv[0]);
      return 2;
    }
  }
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(smoke ? 1500 : 4000);
  const index_t nb = bench::default_tile_size(smoke ? 2000 : 4000);
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = hw >= 4 ? 4 : 1;
  const int reps = smoke ? 2 : 3;
  std::printf(
      "# accumulator_lu%s (git %s) N=%ld NB=%ld eps=%.1e hw_threads=%u "
      "P=%d\n",
      smoke ? " --smoke" : "", bench::bench_git_rev().c_str(),
      static_cast<long>(n), static_cast<long>(nb), eps, hw, workers);

  bem::FemBemProblem<double> problem(n);
  if (mode != "both") {
    const bool lazy_only = mode == "lazy";
    const ModeResult m = run_mode(lazy_only, problem, nb, eps, workers, reps);
    report(lazy_only ? "accum_lu_lazy" : "accum_lu_eager", n, workers, reps,
           m);
    rk::acc_config().enabled = true;
    if (!g_json.write(out))
      std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
    return 0;  // single-mode runs skip the comparison gates
  }
  const ModeResult eager = run_mode(false, problem, nb, eps, workers, reps);
  report("accum_lu_eager", n, workers, reps, eager);
  const ModeResult lazy = run_mode(true, problem, nb, eps, workers, reps);
  report("accum_lu_lazy", n, workers, reps, lazy);
  rk::acc_config().enabled = true;  // restore the default

  const double trunc_ratio =
      lazy.profile.truncations > 0
          ? static_cast<double>(eager.profile.truncations) /
                static_cast<double>(lazy.profile.truncations)
          : 0.0;
  const double speedup =
      lazy.time_s > 0.0 ? eager.time_s / lazy.time_s : 0.0;
  std::printf("# truncations: eager %llu -> lazy %llu (%.2fx reduction)\n",
              static_cast<unsigned long long>(eager.profile.truncations),
              static_cast<unsigned long long>(lazy.profile.truncations),
              trunc_ratio);
  std::printf("# wall time:   eager %.4f s -> lazy %.4f s (%.2fx speedup)\n",
              eager.time_s, lazy.time_s, speedup);

  if (!g_json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  else
    std::printf("# wrote %s (%zu records)\n", out.c_str(),
                g_json.records().size());

  int status = 0;
  if (trunc_ratio < 3.0) {
    std::fprintf(stderr, "FAIL: truncation reduction %.2fx below 3.0x\n",
                 trunc_ratio);
    status = 1;
  }
  if (hw >= 4 && speedup < 1.3) {
    std::fprintf(stderr, "FAIL: lazy speedup %.2fx below 1.3x\n", speedup);
    status = 1;
  } else if (hw < 4) {
    std::printf("# gate: speedup check skipped (hw_threads=%u < 4)\n", hw);
  }
  if (lazy.forward_error > 10.0 * std::max(eager.forward_error, eps)) {
    std::fprintf(stderr,
                 "FAIL: lazy forward error %.2e degrades past eager %.2e\n",
                 lazy.forward_error, eager.forward_error);
    status = 1;
  }
  return status;
}
