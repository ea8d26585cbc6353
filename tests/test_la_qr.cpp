// Householder QR tests: reconstruction, orthogonality, shapes, complex case,
// and the implicit-Q apply (ormqr_left) against the explicit Q of orgqr.
#include <gtest/gtest.h>

#include <complex>
#include <limits>
#include <vector>

#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::Op;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
void check_qr(index_t m, index_t n, std::uint64_t seed) {
  auto a = Matrix<T>::random(m, n, seed);
  Matrix<T> q, r;
  la::qr_thin<T>(a.cview(), q, r);
  const index_t k = std::min(m, n);
  ASSERT_EQ(q.rows(), m);
  ASSERT_EQ(q.cols(), k);
  ASSERT_EQ(r.rows(), k);
  ASSERT_EQ(r.cols(), n);

  // Q^H Q = I.
  Matrix<T> qhq(k, k);
  la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, q.cview(), q.cview(), T{},
           qhq.view());
  auto eye = Matrix<T>::identity(k);
  EXPECT_LT(rel_diff<T>(qhq.cview(), eye.cview()), 1e-13)
      << "m=" << m << " n=" << n;

  // Q R = A.
  Matrix<T> qr(m, n);
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, q.cview(), r.cview(), T{},
           qr.view());
  EXPECT_LT(rel_diff<T>(qr.cview(), a.cview()), 1e-13)
      << "m=" << m << " n=" << n;

  // R upper triangular.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < k; ++i) EXPECT_EQ(r(i, j), T{});
}

TEST(Qr, TallRealMatrices) {
  check_qr<double>(20, 5, 1);
  check_qr<double>(100, 17, 2);
  check_qr<double>(7, 7, 3);
}

TEST(Qr, WideRealMatrices) {
  check_qr<double>(5, 20, 4);
  check_qr<double>(3, 50, 5);
}

TEST(Qr, DegenerateShapes) {
  check_qr<double>(1, 1, 6);
  check_qr<double>(10, 1, 7);
  check_qr<double>(1, 10, 8);
}

TEST(Qr, ComplexMatrices) {
  check_qr<zdouble>(20, 6, 9);
  check_qr<zdouble>(6, 20, 10);
  check_qr<zdouble>(15, 15, 11);
}

TEST(Qr, RankDeficientInputStillOrthogonal) {
  auto a = hcham::testing::rank_r_matrix<double>(30, 12, 3, 12);
  Matrix<double> q, r;
  la::qr_thin<double>(a.cview(), q, r);
  Matrix<double> qhq(12, 12);
  la::gemm(Op::ConjTrans, Op::NoTrans, 1.0, q.cview(), q.cview(), 0.0,
           qhq.view());
  auto eye = Matrix<double>::identity(12);
  EXPECT_LT(rel_diff<double>(qhq.cview(), eye.cview()), 1e-12);
  Matrix<double> qr(30, 12);
  la::gemm(Op::NoTrans, Op::NoTrans, 1.0, q.cview(), r.cview(), 0.0,
           qr.view());
  EXPECT_LT(rel_diff<double>(qr.cview(), a.cview()), 1e-12);
}

TEST(Qr, GeqrfRDiagonalRealForComplexInput) {
  // With the LAPACK larfg convention, the diagonal of R is real.
  auto a = Matrix<zdouble>::random(12, 8, 13);
  std::vector<zdouble> tau(8);
  la::geqrf(a.view(), tau.data());
  for (index_t j = 0; j < 8; ++j) EXPECT_NEAR(a(j, j).imag(), 0.0, 1e-14);
}

/// ormqr_left(geqrf(A)) [X; 0] against orgqr's explicit Q times X, for
/// A m x n and k reflectors. With `zero_tau` one reflector is made the
/// identity (tau = 0), the branch apply_reflector skips.
template <typename T>
void check_ormqr(index_t m, index_t n, index_t k, index_t q, bool zero_tau,
                 std::uint64_t seed) {
  using R = real_t<T>;
  auto a = Matrix<T>::random(m, n, seed);
  std::vector<T> tau(static_cast<std::size_t>(std::min(m, n)));
  la::geqrf(a.view(), tau.data());
  if (zero_tau) tau[static_cast<std::size_t>(k / 2)] = T{};
  const Matrix<T> qk = la::orgqr<T>(a.cview(), tau.data(), k);
  auto x = Matrix<T>::random(k, q, seed + 1);

  Matrix<T> expect(m, q);
  la::gemm(Op::NoTrans, Op::NoTrans, T{1}, qk.cview(), x.cview(), T{},
           expect.view());
  Matrix<T> c(m, q);  // [X; 0]
  la::copy(x.cview(), c.view().block(0, 0, k, q));
  la::ormqr_left<T>(a.cview(), tau.data(), k, c.view());
  const double tol = 100.0 * static_cast<double>(m) *
                     static_cast<double>(std::numeric_limits<R>::epsilon());
  EXPECT_LT(rel_diff<T>(c.cview(), expect.cview()), tol)
      << precision_tag<T>() << " m=" << m << " n=" << n << " k=" << k
      << " zero_tau=" << zero_tau;
}

template <typename T>
void check_ormqr_shapes(std::uint64_t seed) {
  check_ormqr<T>(30, 12, 12, 3, false, seed);      // k < m, all reflectors
  check_ormqr<T>(30, 12, 7, 4, false, seed + 10);  // k < n
  check_ormqr<T>(16, 16, 16, 5, false, seed + 20);  // k = m
  check_ormqr<T>(9, 14, 9, 2, false, seed + 30);   // wide: k = m < n
  check_ormqr<T>(1, 1, 1, 1, false, seed + 40);
  check_ormqr<T>(30, 12, 12, 3, true, seed + 50);
  check_ormqr<T>(16, 16, 16, 5, true, seed + 60);
}

TEST(Ormqr, MatchesExplicitQ) {
  check_ormqr_shapes<double>(100);
  check_ormqr_shapes<zdouble>(200);
  check_ormqr_shapes<float>(300);
  check_ormqr_shapes<std::complex<float>>(400);
}

}  // namespace
}  // namespace hcham
