// General matrix-matrix product: C = alpha * op(A) * op(B) + beta * C.
//
// Two execution paths share the BLAS semantics:
//  * gemm_reference -- axpy/dot-style loops organised for column-major
//    data with a k-blocking, on the lane kernels of norms.hpp; near-zero
//    per-call overhead, used for tiny and extremely skinny products.
//  * gemm_blocked (gemm_blocked.hpp) -- the packed register-tiled engine
//    used for everything large enough to amortise packing.
// `gemm` dispatches between them via gemm_prefers_blocked(); the threshold
// is env-tunable (HCHAM_GEMM_MIN_FLOPS) and measured in bench/kernels_micro.
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/scalar.hpp"
#include "la/blas_defs.hpp"
#include "la/gemm_blocked.hpp"
#include "la/norms.hpp"
#include "la/view.hpp"
#include "la/workspace.hpp"

namespace hcham::la {

namespace detail {

/// Element accessor honouring the op tag. `a` is the untransposed view;
/// logical element (i, j) of op(A) is returned.
template <typename T>
inline T op_at(ConstMatrixView<T> a, Op op, index_t i, index_t j) {
  switch (op) {
    case Op::NoTrans: return a(i, j);
    case Op::Trans: return a(j, i);
    case Op::ConjTrans: return conj_if(a(j, i));
  }
  return T{};
}

/// c_q[0, m) += a[0, m) * b[q] for the four columns q = 0..3: one load of
/// `a` feeds four updates. Per entry the arithmetic is axpy_n's (complex
/// entries as split real pairs), so a column updated here or by axpy_n
/// gets the same bits.
template <typename T>
void axpy4_n(index_t m, const T* b, const T* a, T* __restrict c0,
             T* __restrict c1, T* __restrict c2, T* __restrict c3) {
  if constexpr (!is_complex_v<T>) {
    for (index_t i = 0; i < m; ++i) {
      const T ai = a[i];
      c0[i] += ai * b[0];
      c1[i] += ai * b[1];
      c2[i] += ai * b[2];
      c3[i] += ai * b[3];
    }
  } else {
    using R = real_t<T>;
    const R* as = real_stream(a);
    R* __restrict d0 = real_stream(c0);
    R* __restrict d1 = real_stream(c1);
    R* __restrict d2 = real_stream(c2);
    R* __restrict d3 = real_stream(c3);
    const R r0 = b[0].real(), i0 = b[0].imag();
    const R r1 = b[1].real(), i1 = b[1].imag();
    const R r2 = b[2].real(), i2 = b[2].imag();
    const R r3 = b[3].real(), i3 = b[3].imag();
    for (index_t i = 0; i < 2 * m; i += 2) {
      const R xr = as[i];
      const R xi = as[i + 1];
      d0[i] += xr * r0 - xi * i0;
      d0[i + 1] += xr * i0 + xi * r0;
      d1[i] += xr * r1 - xi * i1;
      d1[i + 1] += xr * i1 + xi * r1;
      d2[i] += xr * r2 - xi * i2;
      d2[i + 1] += xr * i2 + xi * r2;
      d3[i] += xr * r3 - xi * i3;
      d3[i + 1] += xr * i3 + xi * r3;
    }
  }
}

}  // namespace detail

/// Logical dimensions of op(A).
template <typename T>
inline index_t op_rows(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.rows() : a.cols();
}
template <typename T>
inline index_t op_cols(ConstMatrixView<T> a, Op op) {
  return op == Op::NoTrans ? a.cols() : a.rows();
}

/// Reference GEMM: the axpy/dot-style loops, on the lane kernels. Kept
/// both as the dispatch target for tiny/skinny shapes and as the oracle the
/// blocked engine is tested against.
template <typename T>
void gemm_reference(Op opa, Op opb, T alpha,
                    std::type_identity_t<ConstMatrixView<T>> a,
                    std::type_identity_t<ConstMatrixView<T>> b, T beta,
                    MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = op_cols(a, opa);
  HCHAM_CHECK(op_rows(a, opa) == m);
  HCHAM_CHECK(op_rows(b, opb) == k && op_cols(b, opb) == n);

  detail::scale_inplace(c, beta);
  if (alpha == T{} || m == 0 || n == 0 || k == 0) return;

  if (opa == Op::NoTrans) {
    // C(:, j) += alpha * sum_l A(:, l) * opB(l, j), four columns of C per
    // pass; block over l for cache. A zero opB(l, j) adds nothing (BLAS's
    // rule), even where A(:, l) holds an Inf or a NaN.
    constexpr index_t kb = 128;
    for (index_t l0 = 0; l0 < k; l0 += kb) {
      const index_t lend = std::min(l0 + kb, k);
      index_t j = 0;
      for (; j + 4 <= n; j += 4) {
        for (index_t l = l0; l < lend; ++l) {
          T bl[4];
          for (index_t q = 0; q < 4; ++q)
            bl[q] = alpha * detail::op_at(b, opb, l, j + q);
          const T* al = a.col(l);
          if (bl[0] != T{} && bl[1] != T{} && bl[2] != T{} && bl[3] != T{}) {
            detail::axpy4_n(m, bl, al, c.col(j), c.col(j + 1), c.col(j + 2),
                            c.col(j + 3));
          } else {
            for (index_t q = 0; q < 4; ++q)
              if (bl[q] != T{}) axpy_n(m, bl[q], al, c.col(j + q));
          }
        }
      }
      for (; j < n; ++j) {
        for (index_t l = l0; l < lend; ++l) {
          const T blj = alpha * detail::op_at(b, opb, l, j);
          if (blj != T{}) axpy_n(m, blj, a.col(l), c.col(j));
        }
      }
    }
    return;
  }

  // opa is Trans or ConjTrans: op(A)(i, :) is column i of A, so each entry
  // of C is one lane dot product streaming down A. A transposed B has its
  // column of op(B) gathered once per column of C.
  const bool conja = (opa == Op::ConjTrans);
  WorkspaceScope ws;
  T* bpack = opb == Op::NoTrans ? nullptr : ws.alloc<T>(k);
  for (index_t j = 0; j < n; ++j) {
    const T* bj = b.col(j);
    if (bpack != nullptr) {
      for (index_t l = 0; l < k; ++l) bpack[l] = detail::op_at(b, opb, l, j);
      bj = bpack;
    }
    for (index_t i = 0; i < m; ++i) {
      c(i, j) += alpha * dot_lanes(conja, k, a.col(i), bj);
    }
  }
}

/// C = alpha * op(A) * op(B) + beta * C, dispatching between the packed
/// register-tiled engine and the reference loops by problem shape.
template <typename T>
void gemm(Op opa, Op opb, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
          std::type_identity_t<ConstMatrixView<T>> b, T beta,
          MatrixView<T> c) {
  const index_t k = op_cols(a, opa);
  if (gemm_prefers_blocked<T>(c.rows(), c.cols(), k)) {
    gemm_blocked<T>(opa, opb, alpha, a, b, beta, c);
  } else {
    gemm_reference<T>(opa, opb, alpha, a, b, beta, c);
  }
}

/// y = alpha * op(A) * x + beta * y (dense matrix-vector product).
template <typename T>
void gemv(Op opa, T alpha, std::type_identity_t<ConstMatrixView<T>> a,
          const T* x, T beta, T* y) {
  const index_t m = op_rows(a, opa);
  const index_t k = op_cols(a, opa);
  if (beta == T{}) {
    for (index_t i = 0; i < m; ++i) y[i] = T{};
  } else if (beta != T{1}) {
    for (index_t i = 0; i < m; ++i) y[i] *= beta;
  }
  if (alpha == T{} || m == 0 || k == 0) return;
  if (opa == Op::NoTrans) {
    for (index_t l = 0; l < k; ++l) {
      const T xl = alpha * x[l];
      if (xl != T{}) axpy_n(m, xl, a.col(l), y);
    }
  } else {
    const bool conja = (opa == Op::ConjTrans);
    for (index_t i = 0; i < m; ++i) {
      y[i] += alpha * dot_lanes(conja, k, a.col(i), x);
    }
  }
}

/// B += alpha * A (element-wise, shapes must match).
template <typename T>
void axpy(T alpha, std::type_identity_t<ConstMatrixView<T>> a, MatrixView<T> b) {
  HCHAM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) b(i, j) += alpha * a(i, j);
}

/// A *= alpha (element-wise).
template <typename T>
void scal(T alpha, MatrixView<T> a) {
  detail::scale_inplace(a, alpha);
}

}  // namespace hcham::la
