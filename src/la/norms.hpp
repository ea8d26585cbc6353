// Norms and reductions for dense views and raw vectors.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/scalar.hpp"
#include "la/view.hpp"

namespace hcham::la {

/// Frobenius norm with overflow-safe scaling.
template <typename T>
real_t<T> norm_fro(ConstMatrixView<T> a) {
  using R = real_t<T>;
  R scale{};
  R ssq{1};
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const R v = abs_val(a(i, j));
      if (v == R{}) continue;
      if (scale < v) {
        ssq = R{1} + ssq * (scale / v) * (scale / v);
        scale = v;
      } else {
        ssq += (v / scale) * (v / scale);
      }
    }
  }
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

/// Euclidean norm of a raw vector.
template <typename T>
real_t<T> nrm2(index_t n, const T* x) {
  return norm_fro(ConstMatrixView<T>(x, n, 1, n > 0 ? n : 1));
}

/// Conjugated dot product x^H y.
template <typename T>
T dotc(index_t n, const T* x, const T* y) {
  T acc{};
  for (index_t i = 0; i < n; ++i) acc += conj_if(x[i]) * y[i];
  return acc;
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

/// Squared Frobenius norm (no scaling; used in hot ACA loops).
template <typename T>
real_t<T> norm_fro_sq(index_t n, const T* x) {
  real_t<T> acc{};
  for (index_t i = 0; i < n; ++i) acc += abs_sq(x[i]);
  return acc;
}

}  // namespace hcham::la
