// Rank truncation (recompression) of Rk-matrices, the operation that keeps
// H-arithmetic log-linear (paper Section II-A).
//
// The standard QR+SVD scheme is used: factor U = Qu Ru and V = Qv Rv, take
// the SVD of the small core Ru Rv^H (la/svd.hpp: a machine-precision
// pivoted QR, then Jacobi on the revealed columns only), and keep the
// singular triplets above the relative tolerance (and below the rank cap).
// Accumulator compaction shares the same steps but stops after an
// eps-level pivoted QR of the core (detail::recompress). Qu and Qv are never
// formed: they stay Householder reflectors and are applied to the r kept
// columns only, since the kept rank is typically a tenth of the core width
// (DESIGN.md section 9). Rounded addition concatenates factors and
// truncates; the concatenation is exact, so the lazy accumulator
// (accumulator.hpp) can defer the truncate across many additions without
// losing accuracy. All intermediate factors here come from the thread's
// workspace arena (workspace.hpp), so steady-state truncations allocate
// only for the final factors.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/counters.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "la/workspace.hpp"
#include "rk/rk_matrix.hpp"

namespace hcham::rk {

/// Truncation control: keep sigma_i > eps * sigma_0, at most max_rank
/// triplets (max_rank < 0 means unbounded).
struct TruncationParams {
  double eps = 1e-6;
  index_t max_rank = -1;

  index_t select_rank(const std::vector<double>& sigma) const {
    index_t r = la::numerical_rank(sigma, eps);
    if (max_rank >= 0) r = std::min(r, max_rank);
    return r;
  }
};

namespace detail {

/// Recompress the factor columns [from, rank) of `c` in place: QR both
/// factor slices (U = Qu Ru, V = Qv Rv), reveal the rank of the small core
/// Ru Rv^H, and apply Qu and Qv, as reflectors, to the kept part. A flush
/// (`flush` = true, from = 0) runs the SVD of the core and keeps the
/// triplets above the relative tolerance -- the accuracy contract -- and
/// marks the block compressed. A compaction stops after the eps-level
/// pivoted QR of the core (rank control only) and replaces the tail
/// without raising the watermark. A non-finite core raises hcham::Error
/// rather than truncating to a zero block. Returns the new rank of `c`.
template <typename T>
index_t recompress(RkMatrix<T>& c, index_t from, const TruncationParams& params,
                   bool flush) {
  using R = real_t<T>;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t kp = c.rank() - from;
  const index_t ku = std::min(m, kp);
  const index_t kv = std::min(n, kp);

  la::WorkspaceScope ws;
  // Both slices are factored in place in the arena: R in the upper
  // trapezoid, Q as the reflectors below it.
  la::MatrixView<T> fu = ws.matrix<T>(m, kp);
  la::MatrixView<T> fv = ws.matrix<T>(n, kp);
  la::copy(c.u().cview().block(0, from, m, kp), fu);
  la::copy(c.v().cview().block(0, from, n, kp), fv);
  T* tau_u = ws.alloc<T>(ku);
  T* tau_v = ws.alloc<T>(kv);
  la::geqrf(fu, tau_u);
  la::geqrf(fv, tau_v);
  la::MatrixView<T> ru = ws.matrix<T>(ku, kp);
  la::MatrixView<T> rv = ws.matrix<T>(kv, kp);
  la::copy_upper_trapezoid(la::ConstMatrixView<T>(fu), ru);
  la::copy_upper_trapezoid(la::ConstMatrixView<T>(fv), rv);

  la::MatrixView<T> core = ws.matrix<T>(ku, kv);
  la::gemm(la::Op::NoTrans, la::Op::ConjTrans, T{1}, la::ConstMatrixView<T>(ru),
           la::ConstMatrixView<T>(rv), T{}, core);
  HCHAM_CHECK_MSG(la::all_finite(la::ConstMatrixView<T>(core)),
                  "non-finite Rk block");

  // Rank reveal: core ~= lhs(:, 0:r) * rhs(:, 0:r)^H.
  const index_t kk = std::min(ku, kv);
  la::MatrixView<T> lhs = ws.matrix<T>(ku, kk);
  la::MatrixView<T> rhs = ws.matrix<T>(kv, kk);
  index_t r;
  if (flush) {
    R* sigma_r = ws.alloc<R>(kk);
    la::svd_into<T>(la::ConstMatrixView<T>(core), lhs, sigma_r, rhs);
    std::vector<double> sigma(static_cast<std::size_t>(kk));
    std::copy(sigma_r, sigma_r + kk, sigma.begin());
    r = params.select_rank(sigma);
    for (index_t j = 0; j < r; ++j)
      for (index_t i = 0; i < ku; ++i) lhs(i, j) *= T(sigma_r[j]);
  } else {
    la::MatrixView<T> rc = ws.matrix<T>(kk, kv);
    r = la::qr_pivoted_rank_inplace<T>(core, lhs, rc, params.eps,
                                       params.max_rank);
    for (index_t j = 0; j < r; ++j)
      for (index_t i = 0; i < kv; ++i) rhs(i, j) = conj_if(rc(j, i));
  }
  if (flush && r == 0) {
    c.set_zero();
    return 0;
  }

  // nu = Qu [lhs(:, 0:r); 0] and nv = Qv [rhs(:, 0:r); 0]: 4 m kp r flops
  // through the reflectors, where forming Qu alone would cost 2 m kp^2.
  la::Matrix<T> nu(m, r), nv(n, r);
  la::copy(la::ConstMatrixView<T>(lhs).block(0, 0, ku, r),
           nu.view().block(0, 0, ku, r));
  la::copy(la::ConstMatrixView<T>(rhs).block(0, 0, kv, r),
           nv.view().block(0, 0, kv, r));
  la::ormqr_left(la::ConstMatrixView<T>(fu), tau_u, ku, nu.view());
  la::ormqr_left(la::ConstMatrixView<T>(fv), tau_v, kv, nv.view());
  if (flush)
    c.set_factors(std::move(nu), std::move(nv));
  else
    c.replace_tail(from, nu.cview(), nv.cview());
  return c.rank();
}

}  // namespace detail

/// Truncate `a` in place to the requested accuracy (the QR+SVD flush).
/// Returns the new rank.
template <typename T>
index_t truncate(RkMatrix<T>& a, const TruncationParams& params) {
  if (a.rank() == 0) {
    a.mark_compressed();
    return 0;
  }
  arith_counters().bump(arith_counters().truncations);
  return detail::recompress(a, 0, params, /*flush=*/true);
}

/// Compress only the factor columns [from, rank) of `c` in place -- the
/// pending tail of an accumulator target -- leaving the leading columns
/// untouched. Rank revelation on the small core uses the greedy pivoted QR
/// at eps (O(kp^2 r)) and skips the Jacobi step: a compaction only needs
/// rank CONTROL, and the eventual flush still runs the real SVD truncation
/// for the accuracy contract. The dropped mass is below
/// ~eps * sigma_max(tail), so a compaction is no less accurate than the
/// rounded addition of the same contributions would have been. The block
/// stays pending (the watermark does not rise): head and tail are jointly
/// recompressed by the eventual flush.
template <typename T>
index_t compact_tail(RkMatrix<T>& c, index_t from,
                     const TruncationParams& params) {
  if (c.rank() - from <= 0) return c.rank();
  return detail::recompress(c, from, params, /*flush=*/false);
}

namespace detail {

/// Truncate after a rounded addition unless a cheap bound shows it cannot
/// reduce the rank: when the combined rank already fits under the cap and
/// every triplet's Frobenius weight s_i = |u_i| |v_i| stays above the
/// relative tolerance, dropping any triplet would violate the requested
/// accuracy, so keeping all of them (which is exact) is the right answer.
template <typename T>
void truncate_unless_tight(RkMatrix<T>& c, const TruncationParams& params) {
  using R = real_t<T>;
  const index_t k = c.rank();
  if (params.max_rank >= 0 && k <= params.max_rank && k > 0) {
    R smin = std::numeric_limits<R>::max();
    R ssum{};
    for (index_t j = 0; j < k; ++j) {
      const R s = la::nrm2(c.rows(), c.u().cview().col(j)) *
                  la::nrm2(c.cols(), c.v().cview().col(j));
      smin = std::min(smin, s);
      ssum += s;
    }
    if (smin > R(params.eps) * ssum) {
      c.mark_compressed();
      arith_counters().bump(arith_counters().rounded_add_fastpaths);
      return;
    }
  }
  truncate(c, params);
}

}  // namespace detail

/// c += alpha * u * v^H, followed by truncation (unless provably tight).
template <typename T>
void rounded_add_factors(RkMatrix<T>& c, T alpha, la::ConstMatrixView<T> u,
                         la::ConstMatrixView<T> v,
                         const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == u.rows() && c.cols() == v.rows());
  if (u.cols() == 0 || alpha == T{}) return;
  arith_counters().bump(arith_counters().rounded_adds);
  c.append_factors(alpha, u, v);
  detail::truncate_unless_tight(c, params);
}

/// c += alpha * a, followed by truncation ("rounded addition").
template <typename T>
void rounded_add(RkMatrix<T>& c, T alpha, const RkMatrix<T>& a,
                 const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == a.rows() && c.cols() == a.cols());
  if (a.is_zero() || alpha == T{}) return;
  rounded_add_factors(c, alpha, a.u().cview(), a.v().cview(), params);
}

/// Rounded addition consuming `a`: when c is zero the scaled factors are
/// moved into place instead of copied, and truncation is skipped when
/// provably tight.
template <typename T>
void rounded_add(RkMatrix<T>& c, T alpha, RkMatrix<T>&& a,
                 const TruncationParams& params) {
  HCHAM_CHECK(c.rows() == a.rows() && c.cols() == a.cols());
  if (a.is_zero() || alpha == T{}) return;
  arith_counters().bump(arith_counters().rounded_adds);
  if (c.rank() == 0) {
    arith_counters().bump(arith_counters().rounded_add_fastpaths);
    la::scal(alpha, a.u().view());
    c.set_factors(std::move(a.u()), std::move(a.v()));
    detail::truncate_unless_tight(c, params);
    return;
  }
  c.append_factors(alpha, a.u().cview(), a.v().cview());
  detail::truncate_unless_tight(c, params);
}

/// Compress a dense block into an RkMatrix by truncated SVD.
template <typename T>
RkMatrix<T> compress_svd(la::ConstMatrixView<T> a,
                         const TruncationParams& params) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  RkMatrix<T> result(m, n);
  if (k == 0) return result;
  la::WorkspaceScope ws;
  la::MatrixView<T> su = ws.matrix<T>(m, k);
  la::MatrixView<T> sv = ws.matrix<T>(n, k);
  R* sigma_r = ws.alloc<R>(k);
  la::svd_into<T>(a, su, sigma_r, sv);
  std::vector<double> sigma(sigma_r, sigma_r + k);
  const index_t r = params.select_rank(sigma);
  if (r == 0) return result;
  la::Matrix<T> u(m, r), v(n, r);
  for (index_t j = 0; j < r; ++j) {
    const T s_j = T(sigma_r[j]);
    for (index_t i = 0; i < m; ++i) u(i, j) = su(i, j) * s_j;
    for (index_t i = 0; i < n; ++i) v(i, j) = sv(i, j);
  }
  result.set_factors(std::move(u), std::move(v));
  return result;
}

}  // namespace hcham::rk
