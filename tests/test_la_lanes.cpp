// Lane-split reduction kernels (la/norms.hpp) and the loops built on them:
// every tail length, conjugated and plain, all four scalar types, against
// a plain loop; NaN propagation from any lane; the nrm2 fast path and its
// scaled fallback; gemm_reference's BLAS zero-skip rule.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::Matrix;
using la::Op;

template <typename T>
std::vector<T> random_vector(index_t n, std::uint64_t seed) {
  const Matrix<T> m = Matrix<T>::random(n, 1, seed);
  return std::vector<T>(m.cview().col(0), m.cview().col(0) + n);
}

template <typename T>
bool has_nan(T x) {
  return std::isnan(std::real(x)) || std::isnan(std::imag(x));
}

/// Every length 0 .. 3 * lanes + 1 (all tails, zero to three full lane
/// blocks), conjugated and plain, within n * eps * sum |x_i| |y_i| of the
/// plain loop.
template <typename T>
void dot_lanes_match_plain_loop() {
  using R = real_t<T>;
  const index_t lanes = la::detail::kLanes<R>;
  const R eps = std::numeric_limits<R>::epsilon();
  for (index_t n = 0; n <= 3 * lanes + 1; ++n) {
    const auto x = random_vector<T>(n, 7 + static_cast<std::uint64_t>(n));
    const auto y = random_vector<T>(n, 99 + static_cast<std::uint64_t>(n));
    T plain_c{}, plain_t{};
    R mass{};
    for (index_t i = 0; i < n; ++i) {
      plain_c += conj_if(x[i]) * y[i];
      plain_t += x[i] * y[i];
      mass += abs_val(x[i]) * abs_val(y[i]);
    }
    const R tol = static_cast<R>(n) * eps * mass;
    const T got_c = la::dot_lanes<true>(n, x.data(), y.data());
    const T got_t = la::dot_lanes<false>(n, x.data(), y.data());
    EXPECT_LE(abs_val(got_c - plain_c), tol)
        << precision_tag<T>() << " n=" << n;
    EXPECT_LE(abs_val(got_t - plain_t), tol)
        << precision_tag<T>() << " n=" << n;
    EXPECT_EQ(la::dotc(n, x.data(), y.data()), got_c);

    R sq_plain{};
    for (index_t i = 0; i < n; ++i) sq_plain += abs_sq(x[i]);
    EXPECT_LE(std::abs(la::norm_fro_sq(n, x.data()) - sq_plain),
              static_cast<R>(n) * eps * sq_plain)
        << precision_tag<T>() << " n=" << n;

    // axpy_n is elementwise: it must agree with the plain update to one
    // rounding per component of the product and sum.
    const T alpha = random_vector<T>(1, 5)[0];
    std::vector<T> z = y, zp = y;
    la::axpy_n(n, alpha, x.data(), z.data());
    for (index_t i = 0; i < n; ++i) zp[i] += x[i] * alpha;
    for (index_t i = 0; i < n; ++i)
      EXPECT_LE(abs_val(z[i] - zp[i]),
                4 * eps * (abs_val(y[i]) + abs_val(x[i]) * abs_val(alpha)))
          << precision_tag<T>() << " n=" << n << " i=" << i;
  }
}

TEST(Lanes, DotMatchesPlainLoopAllTails) {
  dot_lanes_match_plain_loop<double>();
  dot_lanes_match_plain_loop<float>();
  dot_lanes_match_plain_loop<std::complex<double>>();
  dot_lanes_match_plain_loop<std::complex<float>>();
}

/// A NaN in any position -- any lane of any block, or the tail -- reaches
/// the result, in the real or the imaginary slot of a complex entry.
template <typename T>
void nan_propagates() {
  using R = real_t<T>;
  const index_t n = 3 * la::detail::kLanes<R> + 1;
  const auto y = random_vector<T>(n, 3);
  const R nan = std::numeric_limits<R>::quiet_NaN();
  for (int slot = 0; slot < (is_complex_v<T> ? 2 : 1); ++slot) {
    for (index_t p = 0; p < n; ++p) {
      auto x = random_vector<T>(n, 4);
      if constexpr (is_complex_v<T>) {
        x[p] = slot == 0 ? T(nan, x[p].imag()) : T(x[p].real(), nan);
      } else {
        x[p] = nan;
      }
      EXPECT_TRUE(has_nan(la::dot_lanes<true>(n, x.data(), y.data())))
          << precision_tag<T>() << " p=" << p << " slot=" << slot;
      EXPECT_TRUE(has_nan(la::dot_lanes<false>(n, x.data(), y.data())))
          << precision_tag<T>() << " p=" << p << " slot=" << slot;
      EXPECT_TRUE(std::isnan(la::norm_fro_sq(n, x.data())))
          << precision_tag<T>() << " p=" << p << " slot=" << slot;
      EXPECT_TRUE(std::isnan(la::nrm2(n, x.data())))
          << precision_tag<T>() << " p=" << p << " slot=" << slot;
    }
  }
}

TEST(Lanes, NanInAnyLanePropagates) {
  nan_propagates<double>();
  nan_propagates<float>();
  nan_propagates<std::complex<double>>();
  nan_propagates<std::complex<float>>();
}

/// Entries whose squares overflow (big) or underflow (small) in a plain
/// sum of squares: nrm2 must fall back to the scaled loop and still return
/// sqrt(n) * |entry|.
template <typename T>
void nrm2_scaled_fallback(real_t<T> big, real_t<T> small) {
  using R = real_t<T>;
  const R eps = std::numeric_limits<R>::epsilon();
  for (const index_t n : {1, 5, 19}) {
    for (const R v : {big, small}) {
      std::vector<T> x(static_cast<std::size_t>(n), T(v));
      if constexpr (is_complex_v<T>) {
        for (auto& e : x) e = T(v * R(0.6), v * R(0.8));  // |e| = v
      }
      const R expect = std::sqrt(static_cast<R>(n)) * v;
      const R got = la::nrm2(n, x.data());
      EXPECT_TRUE(std::isfinite(got)) << precision_tag<T>() << " v=" << v;
      EXPECT_NEAR(got / expect, R(1), 8 * eps)
          << precision_tag<T>() << " n=" << n << " v=" << v;
    }
  }
  // Ordinary magnitudes take the fast path and agree with the scaled loop.
  const auto x = random_vector<T>(23, 8);
  const R scaled = la::norm_fro(la::ConstMatrixView<T>(x.data(), 23, 1, 23));
  EXPECT_NEAR(la::nrm2(23, x.data()), scaled, 8 * eps * scaled);
  // One infinite entry makes the norm infinite.
  auto xi = x;
  xi[11] = T(std::numeric_limits<R>::infinity());
  EXPECT_TRUE(std::isinf(la::nrm2(23, xi.data()))) << precision_tag<T>();
}

TEST(Lanes, Nrm2FallsBackToScaledLoop) {
  nrm2_scaled_fallback<double>(1e200, 1e-200);
  nrm2_scaled_fallback<std::complex<double>>(1e200, 1e-200);
  nrm2_scaled_fallback<float>(1e30f, 1e-30f);
  nrm2_scaled_fallback<std::complex<float>>(1e30f, 1e-30f);
}

/// Two or more infinite entries and no NaN give an infinite norm, as
/// LAPACK's xNRM2 does; a NaN anywhere still propagates. Both the scaled
/// loop and nrm2 (which falls back to it for non-finite input) are checked.
template <typename T>
void norm_of_several_infs() {
  using R = real_t<T>;
  const R inf = std::numeric_limits<R>::infinity();
  const R nan = std::numeric_limits<R>::quiet_NaN();
  const std::vector<T> two_infs = {T(1), T(inf), T(inf)};
  const std::vector<T> inf_nan_inf = {T(inf), T(nan), T(inf)};
  auto fro = [](const std::vector<T>& x) {
    return la::norm_fro(la::ConstMatrixView<T>(x.data(), 3, 1, 3));
  };
  EXPECT_TRUE(std::isinf(fro(two_infs))) << precision_tag<T>();
  EXPECT_TRUE(std::isinf(la::nrm2(3, two_infs.data()))) << precision_tag<T>();
  EXPECT_TRUE(std::isnan(fro(inf_nan_inf))) << precision_tag<T>();
  EXPECT_TRUE(std::isnan(la::nrm2(3, inf_nan_inf.data())))
      << precision_tag<T>();
}

TEST(Lanes, SeveralInfsGiveInfAndNanStillPropagates) {
  norm_of_several_infs<double>();
  norm_of_several_infs<float>();
  norm_of_several_infs<std::complex<double>>();
  norm_of_several_infs<std::complex<float>>();
}

/// BLAS's rule for C += A op(B): a zero op(B)(l, j) contributes nothing to
/// column j, even where column l of A holds an Inf. n = 6 runs both the
/// four-column block and the single-column remainder.
template <typename T>
void gemm_reference_zero_skip(Op opb) {
  const index_t m = 9, k = 5, n = 6, bad = 2;
  auto a = Matrix<T>::random(m, k, 21);
  for (index_t i = 0; i < m; ++i)
    a(i, bad) = T(std::numeric_limits<real_t<T>>::infinity());
  auto opb_mat = Matrix<T>::random(k, n, 22);  // op(B), logical k x n
  for (index_t j = 0; j < n; ++j) opb_mat(bad, j) = T{};
  opb_mat(bad, 0) = T{1};  // column 0 of C meets the Inf; the rest do not
  // Store B so that op(B) is opb_mat.
  Matrix<T> b = opb == Op::NoTrans ? Matrix<T>(k, n) : Matrix<T>(n, k);
  for (index_t j = 0; j < n; ++j)
    for (index_t l = 0; l < k; ++l) {
      if (opb == Op::NoTrans) b(l, j) = opb_mat(l, j);
      else if (opb == Op::Trans) b(j, l) = opb_mat(l, j);
      else b(j, l) = conj_if(opb_mat(l, j));
    }

  Matrix<T> c(m, n);
  la::gemm_reference<T>(Op::NoTrans, opb, T{1}, a.cview(), b.cview(), T{},
                        c.view());
  // The finite reference: the same product with column `bad` dropped.
  auto a0 = Matrix<T>::from_view(a.cview());
  for (index_t i = 0; i < m; ++i) a0(i, bad) = T{};
  Matrix<T> ref(m, n);
  hcham::testing::reference_gemm<T>(Op::NoTrans, Op::NoTrans, T{1},
                                    a0.cview(), opb_mat.cview(), T{},
                                    ref.view());
  for (index_t i = 0; i < m; ++i) {
    const T c0 = c(i, 0);
    EXPECT_FALSE(std::isfinite(std::real(c0)) && std::isfinite(std::imag(c0)));
  }
  const auto got = Matrix<T>::from_view(c.cview().block(0, 1, m, n - 1));
  const auto want = Matrix<T>::from_view(ref.cview().block(0, 1, m, n - 1));
  EXPECT_TRUE(la::all_finite(got.cview())) << to_string(opb);
  EXPECT_LT(hcham::testing::rel_diff<T>(got.cview(), want.cview()), 1e-13)
      << to_string(opb);
}

TEST(Lanes, GemmReferenceSkipsZeroOpB) {
  for (const Op opb : {Op::NoTrans, Op::Trans, Op::ConjTrans}) {
    gemm_reference_zero_skip<double>(opb);
    gemm_reference_zero_skip<std::complex<double>>(opb);
  }
}

}  // namespace
}  // namespace hcham
