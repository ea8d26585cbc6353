// Singular value decomposition by QR-preconditioned, rank-revealing
// one-sided Jacobi (Drmac-Veselic), valid for real and complex scalars.
//
// For A (m x n, m >= n) the greedy column-pivoted QR (qr_pivoted_rank) runs
// first at a machine-precision tolerance, n * eps of the real type:
// A ~= Q * Rr with r' <= n rows, Q orthonormal, and a dropped residual below
// sqrt(n) * n * eps * |A| -- far under any truncation tolerance, so the
// contract sigma_i > eps * sigma_0 of the callers is untouched. One-sided
// Jacobi (Hestenes) then applies plane rotations W to the columns of the
// small, graded factor X = Rr^H (n x r') until they are mutually orthogonal:
// X W = Y, so A ~= (Q W) diag(|y_j|) (Y / |y_j|)^H.
//
// The front end is what makes Jacobi cheap here; without it, Jacobi's
// sweeps were the bottleneck of the H-LU factorization. On the k x k cores
// of the low-rank flushes (k up to 128, a kept rank of 5-6 at eps = 1e-4)
// plain one-sided Jacobi on the full core ran 9 sweeps per call at k <= 64
// and 30 at 64 < k <= 128, grinding until the roundoff-level null-space
// columns were orthogonal to each other, and took 63% of a real BEM
// factorization. On the graded r'-column factor it runs 4-6 sweeps
// (DESIGN.md section 9 has the table).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/counters.hpp"
#include "common/scalar.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/qr.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

/// Result of svd(): A (m x n) = U (m x k) * diag(sigma) (k) * V^H (k x n),
/// with k = min(m, n) and sigma sorted in decreasing order.
template <typename T>
struct SvdResult {
  Matrix<T> u;
  std::vector<real_t<T>> sigma;
  Matrix<T> v;  ///< n x k; columns are right singular vectors.
};

namespace detail {

/// One-sided Jacobi on `work` (m x n) in place, accumulating the rotations
/// into `v` (n x n, starts as identity). Returns the number of sweeps run,
/// the last one being the sweep that found nothing left to rotate.
template <typename T>
int jacobi_sweeps(MatrixView<T> work, MatrixView<T> v) {
  using R = real_t<T>;
  const index_t m = work.rows();
  const index_t n = work.cols();
  const R eps = std::numeric_limits<R>::epsilon();
  const R tol = std::sqrt(static_cast<R>(m)) * eps;
  const int max_sweeps = 42;

  int sweeps = 0;
  while (sweeps < max_sweeps) {
    ++sweeps;
    bool rotated = false;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        T* cp = work.col(p);
        T* cq = work.col(q);
        const R app = norm_fro_sq(m, cp);
        const R aqq = norm_fro_sq(m, cq);
        const T apq = dotc(m, cp, cq);  // cp^H cq
        const R off = abs_val(apq);
        if (off <= tol * std::sqrt(app * aqq) || off == R{}) continue;
        rotated = true;

        // Phase factor making the off-diagonal Gram entry real positive:
        // multiply column q (and V column q) by phi = conj(apq) / |apq|.
        // For real scalars this reduces to the sign of apq.
        const T phi = conj_if(apq) / T(off);

        // Real Jacobi rotation on the 2x2 Gram [[app, off], [off, aqq]].
        const R tau = (aqq - app) / (R{2} * off);
        const R t = std::copysign(
            R{1} / (std::abs(tau) + std::sqrt(R{1} + tau * tau)), tau);
        const R cs = R{1} / std::sqrt(R{1} + t * t);
        const R sn = cs * t;

        for (index_t i = 0; i < m; ++i) {
          const T wq = cq[i] * phi;
          const T wp = cp[i];
          cp[i] = T(cs) * wp - T(sn) * wq;
          cq[i] = T(sn) * wp + T(cs) * wq;
        }
        T* vp = v.col(p);
        T* vq = v.col(q);
        for (index_t i = 0; i < n; ++i) {
          const T wq = vq[i] * phi;
          const T wp = vp[i];
          vp[i] = T(cs) * wp - T(sn) * wq;
          vq[i] = T(sn) * wp + T(cs) * wq;
        }
      }
    }
    if (!rotated) break;
  }
  return sweeps;
}

/// Overwrite columns [r, k) of `q` (p x k, k <= p, leading r columns
/// orthonormal) with an orthonormal completion: the Householder QR of
/// [q(:, 0:r) 0] has unit reflectors past column r, so the trailing columns
/// of its thin Q are orthogonal to span(q(:, 0:r)).
template <typename T>
void complete_basis(MatrixView<T> q, index_t r) {
  const index_t p = q.rows();
  const index_t k = q.cols();
  if (r >= k) return;
  WorkspaceScope ws;
  MatrixView<T> a = ws.matrix<T>(p, k);
  a.set_zero();
  copy(ConstMatrixView<T>(q).block(0, 0, p, r), a.block(0, 0, p, r));
  T* tau = ws.alloc<T>(k);
  geqrf(a, tau);
  MatrixView<T> full = ws.matrix<T>(p, k);
  orgqr_into(ConstMatrixView<T>(a), tau, k, full);
  copy(ConstMatrixView<T>(full).block(0, r, p, k - r),
       q.block(0, r, p, k - r));
}

}  // namespace detail

/// Rank-revealing thin SVD into caller-provided storage: u is m x k, v is
/// n x k and sigma holds k values, k = min(m, n). Returns the revealed rank
/// r <= k: sigma[0, r) are the positive singular values sorted decreasing
/// with their singular vectors in the leading r columns of u and v, and
/// sigma[r, k) is zero. Columns [r, k) of u and v are left unspecified (they
/// serve as scratch); svd() completes them. A is not modified; it must be
/// finite (hcham::Error otherwise). Further scratch comes from the thread's
/// workspace arena.
template <typename T>
index_t svd_into(ConstMatrixView<T> a, MatrixView<T> u, real_t<T>* sigma_out,
                 MatrixView<T> v) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();

  if (m < n) {
    // SVD of A^H = U' S V'^H  =>  A = V' S U'^H.
    WorkspaceScope ws;
    MatrixView<T> ah = ws.matrix<T>(n, m);
    for (index_t j = 0; j < m; ++j)
      for (index_t i = 0; i < n; ++i) ah(i, j) = conj_if(a(j, i));
    return svd_into<T>(ConstMatrixView<T>(ah), v, sigma_out, u);
  }
  HCHAM_CHECK(u.rows() == m && u.cols() == n);
  HCHAM_CHECK(v.rows() == n && v.cols() == n);
  for (index_t j = 0; j < n; ++j) sigma_out[j] = R{};
  if (n == 0) return 0;

  // Rank-revealing front end: A ~= Q * Rr, Rr (r x n) in original column
  // order. It runs in place on a copy of A in u, and Rr lands in v: both
  // are overwritten by the result at the end, so the arena holds only Q.
  // The pivoted QR rejects a non-finite A.
  WorkspaceScope ws;
  copy(a, u);
  MatrixView<T> q = ws.matrix<T>(m, n);
  const double rtol =
      static_cast<double>(n) * std::numeric_limits<R>::epsilon();
  const index_t r = qr_pivoted_rank_inplace<T>(u, q, v, rtol, -1);
  arith_counters().bump(arith_counters().svd_revealed_cols,
                        static_cast<std::uint64_t>(r));
  if (r == 0) return 0;

  // Jacobi on X = Rr^H (n x r, in u): X W = Y with orthogonal columns.
  MatrixView<T> x = u.block(0, 0, n, r);
  for (index_t j = 0; j < r; ++j)
    for (index_t i = 0; i < n; ++i) x(i, j) = conj_if(v(j, i));
  MatrixView<T> w = ws.matrix<T>(r, r);
  w.set_identity();
  const int sweeps = detail::jacobi_sweeps(x, w);
  arith_counters().bump(arith_counters().svd_sweeps,
                        static_cast<std::uint64_t>(sweeps));

  R* sigma = ws.alloc<R>(r);
  for (index_t j = 0; j < r; ++j) sigma[j] = nrm2(n, x.col(j));
  index_t* order = ws.alloc<index_t>(r);
  std::iota(order, order + r, index_t{0});
  std::sort(order, order + r,
            [&](index_t i, index_t j) { return sigma[i] > sigma[j]; });
  index_t rank = 0;
  while (rank < r && sigma[order[rank]] > R{}) ++rank;

  // V = Y / sigma (over Rr in v), then U = Q * W (over X in u), both in
  // sorted order.
  MatrixView<T> wsorted = ws.matrix<T>(r, rank);
  for (index_t j = 0; j < rank; ++j) {
    const index_t src = order[j];
    const R s = sigma[src];
    sigma_out[j] = s;
    copy(ConstMatrixView<T>(w).block(0, src, r, 1),
         wsorted.block(0, j, r, 1));
    const T inv = T(R{1} / s);
    const T* xc = x.col(src);
    T* vc = v.col(j);
    for (index_t i = 0; i < n; ++i) vc[i] = xc[i] * inv;
  }
  gemm(Op::NoTrans, Op::NoTrans, T{1},
       ConstMatrixView<T>(q).block(0, 0, m, r), ConstMatrixView<T>(wsorted),
       T{}, u.block(0, 0, m, rank));
  return rank;
}

/// Full (thin) SVD with owning outputs; A is not modified. The singular
/// vectors of the zero singular values complete U and V to orthonormal
/// bases.
template <typename T>
SvdResult<T> svd(ConstMatrixView<T> a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = m < n ? m : n;
  SvdResult<T> result;
  result.u.reset(m, k);
  result.v.reset(n, k);
  result.sigma.resize(static_cast<std::size_t>(k));
  const index_t r = svd_into<T>(a, result.u.view(), result.sigma.data(),
                                result.v.view());
  detail::complete_basis(result.u.view(), r);
  detail::complete_basis(result.v.view(), r);
  return result;
}

/// Numerical rank of a singular-value sequence at relative tolerance tol.
template <typename R>
index_t numerical_rank(const std::vector<R>& sigma, R tol) {
  if (sigma.empty()) return 0;
  const R cutoff = tol * sigma.front();
  index_t r = 0;
  for (const R s : sigma) {
    if (s > cutoff) ++r;
  }
  return r;
}

}  // namespace hcham::la
