// SVD tests: reconstruction, orthogonality, known spectra, rank detection,
// complex inputs, and degenerate shapes; then the rank-revealing contract of
// svd_into (pivoted-QR front end + Jacobi) on graded, rank-deficient, zero
// and rectangular cores in double, complex<double> and float.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/counters.hpp"
#include "la/la.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using la::Matrix;
using la::Op;
using hcham::testing::rank_r_matrix;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
void check_svd(const Matrix<T>& a, double tol = 1e-12) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  auto r = la::svd<T>(a.cview());
  ASSERT_EQ(r.u.rows(), m);
  ASSERT_EQ(r.u.cols(), k);
  ASSERT_EQ(r.v.rows(), n);
  ASSERT_EQ(r.v.cols(), k);
  ASSERT_EQ(static_cast<index_t>(r.sigma.size()), k);

  // Sorted decreasing and non-negative.
  for (index_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(r.sigma[static_cast<std::size_t>(i)],
              r.sigma[static_cast<std::size_t>(i + 1)]);
  }
  if (k > 0) {
    EXPECT_GE(r.sigma.back(), 0.0);
  }

  // Reconstruction U * S * V^H = A.
  Matrix<T> us(m, k);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      us(i, j) = r.u(i, j) * T(r.sigma[static_cast<std::size_t>(j)]);
  Matrix<T> rec(m, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, us.cview(), r.v.cview(), T{},
           rec.view());
  EXPECT_LT(rel_diff<T>(rec.cview(), a.cview()), tol);

  // U^H U = I on the numerically nonzero part; V^H V = I always.
  Matrix<T> vhv(k, k);
  la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, r.v.cview(), r.v.cview(), T{},
           vhv.view());
  auto eye = Matrix<T>::identity(k);
  EXPECT_LT(rel_diff<T>(vhv.cview(), eye.cview()), 1e-11);
}

TEST(Svd, RandomSquareReal) {
  check_svd(Matrix<double>::random(20, 20, 1));
  check_svd(Matrix<double>::random(45, 45, 2));
}

TEST(Svd, TallAndWideReal) {
  check_svd(Matrix<double>::random(40, 12, 3));
  check_svd(Matrix<double>::random(12, 40, 4));
}

TEST(Svd, Complex) {
  check_svd(Matrix<zdouble>::random(25, 25, 5));
  check_svd(Matrix<zdouble>::random(30, 9, 6));
  check_svd(Matrix<zdouble>::random(9, 30, 7));
}

TEST(Svd, DiagonalMatrixRecoversEntries) {
  Matrix<double> a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -7.0;  // singular value is |.|
  a(2, 2) = 0.5;
  a(3, 3) = 10.0;
  auto r = la::svd<double>(a.cview());
  EXPECT_NEAR(r.sigma[0], 10.0, 1e-12);
  EXPECT_NEAR(r.sigma[1], 7.0, 1e-12);
  EXPECT_NEAR(r.sigma[2], 3.0, 1e-12);
  EXPECT_NEAR(r.sigma[3], 0.5, 1e-12);
}

TEST(Svd, RankDeficiencyDetected) {
  auto a = rank_r_matrix<double>(30, 20, 5, 8);
  auto r = la::svd<double>(a.cview());
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 5);
  check_svd(a, 1e-11);
}

TEST(Svd, ComplexRankDeficiency) {
  auto a = rank_r_matrix<zdouble>(24, 18, 4, 9);
  auto r = la::svd<zdouble>(a.cview());
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 4);
}

TEST(Svd, ZeroMatrix) {
  Matrix<double> a(5, 3);
  auto r = la::svd<double>(a.cview());
  for (double s : r.sigma) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(la::numerical_rank(r.sigma, 1e-10), 0);
}

TEST(Svd, SingleElement) {
  Matrix<double> a(1, 1);
  a(0, 0) = -4.0;
  auto r = la::svd<double>(a.cview());
  EXPECT_NEAR(r.sigma[0], 4.0, 1e-15);
  check_svd(a, 1e-14);
}

TEST(Svd, SingularValuesMatchFrobeniusNorm) {
  auto a = Matrix<double>::random(15, 10, 10);
  auto r = la::svd<double>(a.cview());
  double sumsq = 0;
  for (double s : r.sigma) sumsq += s * s;
  const double fro = la::norm_fro(a.cview());
  EXPECT_NEAR(std::sqrt(sumsq), fro, 1e-12 * fro);
}

TEST(Svd, OrthonormalInputGivesUnitSigmas) {
  Matrix<double> q, r0;
  la::qr_thin<double>(Matrix<double>::random(30, 8, 11).cview(), q, r0);
  auto r = la::svd<double>(q.cview());
  for (double s : r.sigma) EXPECT_NEAR(s, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Rank-revealing svd_into against dense references with a known spectrum.

/// m x n matrix Qa diag(sigma) Qb^H with random orthonormal Qa, Qb: its
/// singular values are `sigma` (the dense reference) up to roundoff.
template <typename T>
Matrix<T> with_spectrum(index_t m, index_t n,
                        const std::vector<double>& sigma,
                        std::uint64_t seed) {
  const index_t k = static_cast<index_t>(sigma.size());
  Matrix<T> qa, qb, r0;
  la::qr_thin<T>(Matrix<T>::random(m, k, seed).cview(), qa, r0);
  la::qr_thin<T>(Matrix<T>::random(n, k, seed + 1).cview(), qb, r0);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i)
      qa(i, j) *= T(static_cast<real_t<T>>(sigma[static_cast<std::size_t>(j)]));
  Matrix<T> a(m, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, qa.cview(), qb.cview(), T{},
           a.view());
  return a;
}

/// sigma_j = 10^(-j/4), j < k: graded far past the double roundoff level.
std::vector<double> graded_spectrum(index_t k) {
  std::vector<double> s(static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j)
    s[static_cast<std::size_t>(j)] =
        std::pow(10.0, -static_cast<double>(j) / 4);
  return s;
}

template <typename T>
double ref_tol() {
  return std::is_same_v<real_t<T>, float> ? 1e-5 : 1e-12;
}

/// max |A^H A - I| over the leading r columns of `a`.
template <typename T>
double orthonormality_error(la::ConstMatrixView<T> a, index_t r) {
  Matrix<T> g(r, r);
  la::gemm(Op::ConjTrans, Op::NoTrans, T{1}, a.block(0, 0, a.rows(), r),
           a.block(0, 0, a.rows(), r), T{}, g.view());
  double err = 0;
  for (index_t j = 0; j < r; ++j)
    for (index_t i = 0; i < r; ++i)
      err = std::max(err, static_cast<double>(abs_val(
                              g(i, j) - (i == j ? T{1} : T{}))));
  return err;
}

/// svd_into on `a` against the dense reference spectrum `ref` (sorted
/// decreasing, implicitly zero-padded): the revealed sigma match it to
/// ref_tol * sigma_0, the dropped ones are zero and below the front end's
/// n * eps * sigma_0 level, the revealed columns are orthonormal and
/// reproduce A up to the dropped mass, and the owning svd() completes U and
/// V to orthonormal bases. Returns the revealed rank.
template <typename T>
index_t check_revealing(const Matrix<T>& a, const std::vector<double>& ref) {
  using R = real_t<T>;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  const double tol = ref_tol<T>();
  const double front_end = static_cast<double>(std::max(m, n)) *
                           std::numeric_limits<R>::epsilon();
  Matrix<T> u(m, k), v(n, k);
  std::vector<R> sigma(static_cast<std::size_t>(k), R{-1});
  const index_t r =
      la::svd_into<T>(a.cview(), u.view(), sigma.data(), v.view());
  EXPECT_GE(r, 0);
  EXPECT_LE(r, k);
  const double s0 = ref.empty() ? 0.0 : ref.front();
  double dropped_sq = 0;
  for (index_t j = 0; j < k; ++j) {
    const double want = j < static_cast<index_t>(ref.size())
                            ? ref[static_cast<std::size_t>(j)]
                            : 0.0;
    const double got = static_cast<double>(sigma[static_cast<std::size_t>(j)]);
    if (j < r) {
      EXPECT_NEAR(got, want, tol * s0) << "j=" << j;
      if (j > 0) {
        EXPECT_GE(sigma[static_cast<std::size_t>(j - 1)],
                  sigma[static_cast<std::size_t>(j)]);
      }
    } else {
      EXPECT_EQ(got, 0.0) << "j=" << j;
      EXPECT_LE(want, front_end * s0) << "j=" << j;
      dropped_sq += want * want;
    }
  }
  EXPECT_LT(orthonormality_error<T>(u.cview(), r), 10 * tol);
  EXPECT_LT(orthonormality_error<T>(v.cview(), r), 10 * tol);

  // A ~= U_r diag(sigma_r) V_r^H, as close as the best rank-r
  // approximation allows.
  Matrix<T> us(m, r);
  for (index_t j = 0; j < r; ++j)
    for (index_t i = 0; i < m; ++i)
      us(i, j) = u(i, j) * T(sigma[static_cast<std::size_t>(j)]);
  Matrix<T> rec(m, n);
  la::gemm(Op::NoTrans, Op::ConjTrans, T{1}, us.cview(),
           v.cview().block(0, 0, n, r), T{}, rec.view());
  la::axpy(T{-1}, a.cview(), rec.view());
  EXPECT_LE(static_cast<double>(la::norm_fro(rec.cview())),
            2 * std::sqrt(dropped_sq) + tol * s0);

  auto full = la::svd<T>(a.cview());
  EXPECT_LT(orthonormality_error<T>(full.u.cview(), k), 10 * tol);
  EXPECT_LT(orthonormality_error<T>(full.v.cview(), k), 10 * tol);
  return r;
}

template <typename T>
void graded_cores() {
  for (const index_t k : {16, 64, 128}) {
    SCOPED_TRACE(k);
    const auto ref = graded_spectrum(k);
    const index_t r = check_revealing<T>(
        with_spectrum<T>(k, k, ref, 100 + static_cast<std::uint64_t>(k)), ref);
    // The front end drops the columns below n * eps: sigma_j < 1e-16 past
    // j = 64 for double, 1e-7 past j = 28 for float.
    if (k == 128) {
      EXPECT_LT(r, 72);
    }
  }
}

TEST(SvdRevealing, GradedCoresReal) { graded_cores<double>(); }
TEST(SvdRevealing, GradedCoresComplex) { graded_cores<zdouble>(); }
TEST(SvdRevealing, GradedCoresFloat) { graded_cores<float>(); }

template <typename T>
void rank_deficient_cores() {
  // Exactly rank 7: the dense reference has 7 nonzero singular values.
  std::vector<double> ref = {3.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.125};
  EXPECT_EQ(check_revealing<T>(with_spectrum<T>(40, 30, ref, 7), ref), 7);
}

TEST(SvdRevealing, RankDeficientReal) { rank_deficient_cores<double>(); }
TEST(SvdRevealing, RankDeficientComplex) { rank_deficient_cores<zdouble>(); }
TEST(SvdRevealing, RankDeficientFloat) { rank_deficient_cores<float>(); }

template <typename T>
void degenerate_cores() {
  EXPECT_EQ(check_revealing<T>(Matrix<T>(6, 6), {}), 0);
  Matrix<T> one(1, 1);
  one(0, 0) = T(static_cast<real_t<T>>(-2.5));
  EXPECT_EQ(check_revealing<T>(one, {2.5}), 1);
}

TEST(SvdRevealing, ZeroAndOneByOneReal) { degenerate_cores<double>(); }
TEST(SvdRevealing, ZeroAndOneByOneComplex) { degenerate_cores<zdouble>(); }
TEST(SvdRevealing, ZeroAndOneByOneFloat) { degenerate_cores<float>(); }

template <typename T>
void tall_and_wide_cores() {
  const auto ref = graded_spectrum(24);
  check_revealing<T>(with_spectrum<T>(70, 24, ref, 31), ref);
  check_revealing<T>(with_spectrum<T>(24, 70, ref, 33), ref);
}

TEST(SvdRevealing, TallAndWideReal) { tall_and_wide_cores<double>(); }
TEST(SvdRevealing, TallAndWideComplex) { tall_and_wide_cores<zdouble>(); }
TEST(SvdRevealing, TallAndWideFloat) { tall_and_wide_cores<float>(); }

TEST(SvdRevealing, CountersSeeTheRevealedWidth) {
  // A graded 128-wide core reveals well under 128 columns and converges in
  // a handful of sweeps; full-width Jacobi would show up here.
  const auto ref = graded_spectrum(128);
  const auto a = with_spectrum<double>(128, 128, ref, 5);
  const auto before = snapshot_arith_counters();
  auto r = la::svd<double>(a.cview());
  const auto after = snapshot_arith_counters();
  const auto cols = after.svd_revealed_cols - before.svd_revealed_cols;
  const auto sweeps = after.svd_sweeps - before.svd_sweeps;
  EXPECT_GT(cols, 50u);
  EXPECT_LT(cols, 72u);
  EXPECT_GE(sweeps, 1u);
  EXPECT_LE(sweeps, 12u);
  EXPECT_NEAR(r.sigma[0], 1.0, 1e-12);
}

TEST(SvdRevealing, NonFiniteInputThrows) {
  auto a = Matrix<double>::random(12, 9, 3);
  a(4, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(la::svd<double>(a.cview()), Error);
  auto z = Matrix<zdouble>::random(9, 12, 4);
  z(1, 7) = zdouble(0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(la::svd<zdouble>(z.cview()), Error);
}

}  // namespace
}  // namespace hcham
