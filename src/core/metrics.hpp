// Shared measurement helpers for the experiment harness: forward error
// (paper Fig. 5 metric), compression accounting (Fig. 4 metric), and the
// arithmetic-event profile of the lazy-accumulator / workspace layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "core/tile_h.hpp"
#include "la/norms.hpp"

namespace hcham::core {

/// Arithmetic-event profile over a measured region: truncation and
/// accumulator activity plus workspace-arena reuse. Read at quiescent
/// points (after wait_all); reset between phases to difference.
struct ArithProfile {
  std::uint64_t truncations = 0;
  std::uint64_t rounded_adds = 0;
  std::uint64_t rounded_add_fastpaths = 0;
  std::uint64_t acc_updates = 0;
  std::uint64_t acc_flushes = 0;
  std::uint64_t acc_budget_flushes = 0;
  std::uint64_t acc_compactions = 0;
  std::uint64_t svd_sweeps = 0;         ///< Jacobi sweeps, summed over SVDs
  std::uint64_t svd_revealed_cols = 0;  ///< pivoted-QR columns r', summed
  std::uint64_t ws_hits = 0;
  std::uint64_t ws_misses = 0;

  double ws_hit_rate() const {
    const std::uint64_t total = ws_hits + ws_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(ws_hits) /
                            static_cast<double>(total);
  }
};

inline ArithProfile arith_profile() {
  const ArithCounterSnapshot s = snapshot_arith_counters();
  ArithProfile p;
  p.truncations = s.truncations;
  p.rounded_adds = s.rounded_adds;
  p.rounded_add_fastpaths = s.rounded_add_fastpaths;
  p.acc_updates = s.acc_updates;
  p.acc_flushes = s.acc_flushes;
  p.acc_budget_flushes = s.acc_budget_flushes;
  p.acc_compactions = s.acc_compactions;
  p.svd_sweeps = s.svd_sweeps;
  p.svd_revealed_cols = s.svd_revealed_cols;
  p.ws_hits = s.ws_hits;
  p.ws_misses = s.ws_misses;
  return p;
}

inline void reset_arith_profile() { reset_arith_counters(); }

/// ||x - x0|| / ||x0|| for the solve A x = b with b = A x0 and a random,
/// reproducible x0: the paper's forward-error metric. The matrix must
/// already be factorized; `matvec_exact` supplies the UNfactorized
/// operator (e.g. a fresh Tile-H matrix or the dense kernel).
template <typename T, typename Matvec>
double forward_error_solve(TileHMatrix<T>& factored, rt::Engine& engine,
                           const Matvec& matvec_exact, std::uint64_t seed) {
  const index_t n = factored.size();
  Rng rng(seed);
  std::vector<T> x0(static_cast<std::size_t>(n));
  for (T& v : x0) v = rng.scalar<T>();
  std::vector<T> b(static_cast<std::size_t>(n), T{});
  matvec_exact(x0.data(), b.data());

  la::MatrixView<T> bv(b.data(), n, 1, n);
  factored.solve(engine, bv);

  double diff_sq = 0.0;
  double ref_sq = 0.0;
  for (index_t i = 0; i < n; ++i) {
    diff_sq += static_cast<double>(
        abs_sq(b[static_cast<std::size_t>(i)] - x0[static_cast<std::size_t>(i)]));
    ref_sq +=
        static_cast<double>(abs_sq(x0[static_cast<std::size_t>(i)]));
  }
  return std::sqrt(diff_sq / ref_sq);
}

}  // namespace hcham::core
