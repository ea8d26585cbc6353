// Norms and reductions for dense views and raw vectors.
//
// Every reduction-shaped inner loop of the dense kernels (dot products,
// sums of squares) runs through the lane kernels below. A plain
// `acc += x[i] * y[i]` loop is one serial floating-point dependency chain,
// which -O3 cannot vectorize without reassociating the sum. The lane form
// keeps 64 bytes of independent accumulators, walks the operands as flat
// real streams (a complex vector is read as interleaved (re, im) pairs;
// std::complex lanes do not vectorize), and combines the lanes pairwise at
// the end. The summation order depends only on n, so every result is a
// deterministic function of the inputs: bit-identity across schedulers and
// worker counts is untouched.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/scalar.hpp"
#include "la/view.hpp"

namespace hcham::la {

namespace detail {

/// Independent accumulators per real stream: 64 bytes of them.
template <typename R>
inline constexpr index_t kLanes = static_cast<index_t>(64 / sizeof(R));

/// The scalars of a vector of T as a flat real stream (complex entries as
/// interleaved (re, im) pairs, which [complex.numbers] guarantees).
template <typename T>
inline const real_t<T>* real_stream(const T* x) {
  return reinterpret_cast<const real_t<T>*>(x);
}
template <typename T>
inline real_t<T>* real_stream(T* x) {
  return reinterpret_cast<real_t<T>*>(x);
}

/// Pairwise combination of L lanes down to `keep` partial sums (keep = 1:
/// the total; keep = 2: the even- and odd-lane sums, i.e. the real- and
/// imaginary-slot sums of an interleaved complex stream).
template <typename R, index_t L>
inline void lane_combine(R* acc, index_t keep) {
  for (index_t w = L / 2; w >= keep; w /= 2)
    for (index_t l = 0; l < w; ++l) acc[l] += acc[l + w];
}

/// sum_i x[i] * y[i] over n reals, in kLanes independent lanes. The
/// n mod kLanes tail sums into one scalar of its own: indexing the lane
/// array with a runtime tail position would spill it to the stack.
template <typename R>
R dot_real(index_t n, const R* x, const R* y) {
  constexpr index_t L = kLanes<R>;
  R acc[L] = {};
  index_t i = 0;
  for (; i + L <= n; i += L)
    for (index_t l = 0; l < L; ++l) acc[l] += x[i + l] * y[i + l];
  R tail{};
  for (; i < n; ++i) tail += x[i] * y[i];
  lane_combine<R, L>(acc, 1);
  return acc[0] + tail;
}

}  // namespace detail

/// x^H y (Conj = true) or x^T y (Conj = false) over n entries, summed in
/// independent lanes. Complex operands are read as interleaved real pairs:
/// one lane set gathers xr*yr / xi*yi, the other xr*yi / xi*yr, and the
/// conjugation only decides the signs of the final combination.
template <bool Conj, typename T>
T dot_lanes(index_t n, const T* x, const T* y) {
  if constexpr (!is_complex_v<T>) {
    return detail::dot_real(n, x, y);
  } else {
    using R = real_t<T>;
    constexpr index_t L = detail::kLanes<R>;
    const R* xs = detail::real_stream(x);
    const R* ys = detail::real_stream(y);
    const index_t n2 = 2 * n;
    R same[L] = {};   // even lanes: xr*yr, odd lanes: xi*yi
    R cross[L] = {};  // even lanes: xr*yi, odd lanes: xi*yr
    index_t i = 0;
    for (; i + L <= n2; i += L)
      for (index_t l = 0; l < L; ++l) {
        same[l] += xs[i + l] * ys[i + l];
        cross[l] += xs[i + l] * ys[i + (l ^ 1)];
      }
    R rr{}, ii{}, ri{}, ir{};  // the tail, as in dot_real
    for (; i < n2; i += 2) {
      rr += xs[i] * ys[i];
      ii += xs[i + 1] * ys[i + 1];
      ri += xs[i] * ys[i + 1];
      ir += xs[i + 1] * ys[i];
    }
    detail::lane_combine<R, L>(same, 2);
    detail::lane_combine<R, L>(cross, 2);
    rr += same[0];
    ii += same[1];
    ri += cross[0];
    ir += cross[1];
    if constexpr (Conj) return T(rr + ii, ri - ir);
    else return T(rr - ii, ri + ir);
  }
}

/// dot_lanes with the conjugation chosen at run time (the T or C of an Op).
template <typename T>
T dot_lanes(bool conj, index_t n, const T* x, const T* y) {
  return conj ? dot_lanes<true>(n, x, y) : dot_lanes<false>(n, x, y);
}

/// Conjugated dot product x^H y.
template <typename T>
T dotc(index_t n, const T* x, const T* y) {
  return dot_lanes<true>(n, x, y);
}

/// y[0, n) += alpha * x[0, n). Complex entries are updated as split real
/// pairs, (yr, yi) += (xr*ar - xi*ai, xr*ai + xi*ar), which vectorizes
/// where the std::complex multiply does not.
template <typename T>
void axpy_n(index_t n, T alpha, const T* x, T* y) {
  if constexpr (!is_complex_v<T>) {
    for (index_t i = 0; i < n; ++i) y[i] += x[i] * alpha;
  } else {
    using R = real_t<T>;
    const R* xs = detail::real_stream(x);
    R* ys = detail::real_stream(y);
    const R ar = alpha.real();
    const R ai = alpha.imag();
    for (index_t i = 0; i < 2 * n; i += 2) {
      const R xr = xs[i];
      const R xi = xs[i + 1];
      ys[i] += xr * ar - xi * ai;
      ys[i + 1] += xr * ai + xi * ar;
    }
  }
}

/// Squared Euclidean norm of a raw vector, summed in independent lanes
/// (no scaling; used in hot pivot-search and Jacobi loops).
template <typename T>
real_t<T> norm_fro_sq(index_t n, const T* x) {
  const index_t len = is_complex_v<T> ? 2 * n : n;
  const real_t<T>* xs = detail::real_stream(x);
  return detail::dot_real(len, xs, xs);
}

/// Frobenius norm with overflow-safe scaling. An infinite entry makes the
/// norm infinite unless a NaN is present, which propagates (LAPACK xNRM2);
/// infinities are set aside rather than scaled, since Inf / Inf is NaN.
template <typename T>
real_t<T> norm_fro(ConstMatrixView<T> a) {
  using R = real_t<T>;
  R scale{};
  R ssq{1};
  bool has_inf = false;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const R v = abs_val(a(i, j));
      if (v == R{}) continue;
      if (std::isinf(v)) {
        has_inf = true;
        continue;
      }
      if (scale < v) {
        ssq = R{1} + ssq * (scale / v) * (scale / v);
        scale = v;
      } else {
        ssq += (v / scale) * (v / scale);
      }
    }
  }
  if (has_inf && !std::isnan(ssq)) return std::numeric_limits<R>::infinity();
  return scale * std::sqrt(ssq);
}

/// max_{ij} |a_ij|.
template <typename T>
real_t<T> norm_max(ConstMatrixView<T> a) {
  real_t<T> m{};
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) m = std::max(m, abs_val(a(i, j)));
  return m;
}

/// True when no entry of `a` is NaN or infinite.
template <typename T>
bool all_finite(ConstMatrixView<T> a) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const T x = a(i, j);
      if (!std::isfinite(std::real(x)) || !std::isfinite(std::imag(x)))
        return false;
    }
  return true;
}

/// Euclidean norm of a raw vector. The lane sum of squares is exact
/// enough whenever it neither overflowed nor came near the underflow range
/// (finite and above min / eps of the real type); otherwise, and for
/// non-finite entries, the overflow-safe scaled loop of norm_fro decides.
template <typename T>
real_t<T> nrm2(index_t n, const T* x) {
  using R = real_t<T>;
  const R ssq = norm_fro_sq(n, x);
  if (std::isfinite(ssq) && ssq > std::numeric_limits<R>::min() /
                                      std::numeric_limits<R>::epsilon())
    return std::sqrt(ssq);
  return norm_fro(ConstMatrixView<T>(x, n, 1, n > 0 ? n : 1));
}

/// (min, max) of |a_ii| over the leading square of `a`. The spread is a
/// cheap growth-factor proxy on a triangular factor: after a pivoted LU,
/// min|u_ii| / max|u_ii| collapsing toward eps flags near-singularity
/// without a condition estimator (the lifecycle capacitance check).
template <typename T>
std::pair<real_t<T>, real_t<T>> diag_abs_range(ConstMatrixView<T> a) {
  const index_t k = std::min(a.rows(), a.cols());
  if (k == 0) return {real_t<T>{}, real_t<T>{}};
  real_t<T> lo = abs_val(a(0, 0));
  real_t<T> hi = lo;
  for (index_t i = 1; i < k; ++i) {
    const real_t<T> v = abs_val(a(i, i));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

}  // namespace hcham::la
