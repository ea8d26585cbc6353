// Lifecycle properties:
//  (1) factor-store round trips are BIT-exact across scalar types
//      {double, float, complex<double>} x factor kinds {LU, Cholesky} x
//      restore engines of {1, 2, 4} workers —
//      serialization must never perturb factors, or replayed task graphs
//      would diverge from the session that saved them;
//  (2) Woodbury rank-k updated solves match a full-refactorization referee
//      across scheduler policies x worker counts (the dense oracle closes
//      the loop on the identity itself, the sweep on the task engine).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bem/testcase.hpp"
#include "core/tile_h.hpp"
#include "la/getrf.hpp"
#include "lifecycle/factor_store.hpp"
#include "lifecycle/updatable_operator.hpp"
#include "prop_utils.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using la::Matrix;
using lifecycle::FactorKind;
using lifecycle::UpdatableOperator;
using rt::Engine;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;
using hcham::testing::prop::check_with_shrink;
using hcham::testing::prop::ProblemConfig;
using hcham::testing::prop::Sweep;
using hcham::testing::prop::sweep_name;

TileHOptions make_options(index_t nb, index_t leaf, double eps) {
  TileHOptions opts;
  opts.tile_size = nb;
  opts.clustering.leaf_size = leaf;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

/// Hermitian positive-definite kernel for every scalar type. Real: the
/// FemBem 1/d kernel (HPD). Complex: the FemBem oscillatory kernel is NOT
/// HPD, so Cholesky coverage uses a Gaussian (a PD kernel) modulated by a
/// rank-one phase congruence e^{i w.x} e^{-i w.y} — a product of PD
/// kernels, hence PD — plus a diagonal boost for safe margin.
template <typename T>
struct HpdKernel {
  const FemBemProblem<T>& problem;
  T operator()(index_t i, index_t j) const { return problem.entry(i, j); }
};

template <>
struct HpdKernel<zdouble> {
  const FemBemProblem<zdouble>& problem;
  zdouble operator()(index_t i, index_t j) const {
    const cluster::Point3& x = problem.points()[static_cast<std::size_t>(i)];
    const cluster::Point3& y = problem.points()[static_cast<std::size_t>(j)];
    const double dx = x.x - y.x, dy = x.y - y.y, dz = x.z - y.z;
    const double g = std::exp(-(dx * dx + dy * dy + dz * dz));
    const double phase = 0.7 * (x.x - y.x) + 1.3 * (x.y - y.y);
    zdouble v = g * std::exp(zdouble(0.0, phase));
    if (i == j) v += 2.0;
    return v;
  }
};

/// Save/load and compare the factored payload byte-for-byte.
template <typename T>
void round_trip_bit_exact(bool cholesky, std::uint64_t seed) {
  const index_t n = 200;
  FemBemProblem<T> problem(n, 1.0, 6.0 + static_cast<double>(seed % 5));
  HpdKernel<T> hpd{problem};
  Engine engine({.num_workers = 2});
  auto build_gen = [&](auto&& gen) {
    return TileHMatrix<T>::build(engine, problem.points(), gen,
                                 make_options(64, 32, 1e-6));
  };
  // LU exercises the oscillatory kernel; Cholesky needs the HPD one.
  auto m = cholesky
               ? build_gen(hpd)
               : build_gen([&problem](index_t i, index_t j) {
                   return problem.entry(i, j);
                 });
  if (cholesky) {
    m.factorize_cholesky(engine);
  } else {
    m.factorize(engine);
  }
  const Matrix<T> before = m.to_dense_original();

  const std::string path =
      "prop_lifecycle_rt_" + std::to_string(sizeof(T)) +
      (cholesky ? "_chol" : "_lu") + ".hfac";
  lifecycle::save_factors(
      m, cholesky ? FactorKind::Cholesky : FactorKind::Lu, path);
  // The restore runs one task per tile: the result must not depend on how
  // many workers fill the tiles.
  for (const int workers : {1, 2, 4}) {
    Engine other({.num_workers = workers});
    auto loaded = lifecycle::load_factors<T>(other, path);

    EXPECT_EQ(loaded.kind,
              cholesky ? FactorKind::Cholesky : FactorKind::Lu);
    EXPECT_EQ(loaded.matrix.structure_signature(), m.structure_signature());
    const Matrix<T> after = loaded.matrix.to_dense_original();
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          sizeof(T) * static_cast<std::size_t>(before.size())),
              0)
        << "round trip must be bit-exact (T bytes=" << sizeof(T)
        << " cholesky=" << cholesky << " restore workers=" << workers << ")";
  }
  std::remove(path.c_str());
}

TEST(FactorStoreRoundTrip, BitExactAcrossTypesAndKinds) {
  round_trip_bit_exact<double>(false, 1);
  round_trip_bit_exact<double>(true, 2);
  round_trip_bit_exact<float>(false, 3);
  round_trip_bit_exact<float>(true, 4);
  round_trip_bit_exact<zdouble>(false, 5);
  round_trip_bit_exact<zdouble>(true, 6);
}

// ---------------------------------------------------------------------------
// Woodbury vs full-refactorization referee, across the scheduler sweep.

/// policies x {1, 2, 4, 8} workers (one seed per policy keeps the suite
/// inside the sanitizer time budget; the rank pattern varies with seed).
std::vector<Sweep> woodbury_sweep() {
  std::vector<Sweep> out;
  std::uint64_t seed = 404;
  for (const rt::SchedulerPolicy p :
       {rt::SchedulerPolicy::WorkStealing,
        rt::SchedulerPolicy::LocalityWorkStealing,
        rt::SchedulerPolicy::Priority})
    for (const int w : {1, 2, 4, 8}) out.push_back(Sweep{seed++, p, w});
  return out;
}

class WoodburyOracle : public ::testing::TestWithParam<Sweep> {};

TEST_P(WoodburyOracle, UpdatedSolveMatchesRefactorizationReferee) {
  const Sweep sw = GetParam();
  Rng rng(sw.seed);
  check_with_shrink(
      sw, ProblemConfig::draw(rng),
      [&sw](const ProblemConfig& c) -> std::optional<std::string> {
        try {
          FemBemProblem<double> problem(c.n, 1.0, c.height);
          auto gen = [&problem](index_t i, index_t j) {
            return problem.entry(i, j);
          };
          Engine eng({.num_workers = sw.workers, .policy = sw.policy});
          TileHOptions opts =
              make_options(c.tile_size, c.leaf_size, c.eps);
          auto assembled = TileHMatrix<double>::build(
              eng, problem.points(), gen, opts);
          const Matrix<double> a0 = assembled.to_dense_original();

          UpdatableOperator<double> op(eng, std::move(assembled),
                                       {.max_rank = 32});
          const index_t k = 2 + static_cast<index_t>(sw.seed % 7);
          const auto u = Matrix<double>::random(c.n, k, sw.seed + 13);
          const auto v = Matrix<double>::random(c.n, k, sw.seed + 14);
          op.update(u.cview(), v.cview());

          const auto b = Matrix<double>::random(c.n, 2, sw.seed + 15);
          Matrix<double> x = Matrix<double>::from_view(b.cview());
          op.solve(x.view());

          // Referee: dense LU of the explicitly-updated operator.
          Matrix<double> m = Matrix<double>::from_view(a0.cview());
          la::gemm(la::Op::NoTrans, la::Op::ConjTrans, 1.0, u.cview(),
                   v.cview(), 1.0, m.view());
          Matrix<double> x_ref = Matrix<double>::from_view(b.cview());
          if (la::gesv(m.view(), x_ref.view()) != 0)
            return "dense referee: singular updated operator";

          const double d = rel_diff<double>(x.cview(), x_ref.cview());
          // The Woodbury combination inherits the H-factorization accuracy;
          // give conditioning two orders of headroom over eps.
          const double tol = std::max(1e-8, 100.0 * c.eps);
          if (!(d < tol)) {
            std::ostringstream os;
            os << "woodbury vs dense referee diff " << d << " tol " << tol
               << " (k=" << k << ")";
            return os.str();
          }
          // Rebase folds the delta; the served operator must not move.
          op.rebase();
          if (op.delta_rank() != 0) return "rebase left a pending delta";
          Matrix<double> x2 = Matrix<double>::from_view(b.cview());
          op.solve(x2.view());
          const double d2 = rel_diff<double>(x2.cview(), x_ref.cview());
          // Folding re-truncates the updated tiles at the operator eps, so
          // the post-rebase solve carries an extra conditioning * eps term
          // the pure Woodbury path does not; a broken fold would still be
          // O(1) off.
          const double tol2 = std::max(1e-7, 1000.0 * c.eps);
          if (!(d2 < tol2)) {
            std::ostringstream os;
            os << "post-rebase solve diff " << d2 << " tol " << tol2;
            return os.str();
          }
          return std::nullopt;
        } catch (const std::exception& e) {
          return std::string("exception: ") + e.what();
        }
      });
}

INSTANTIATE_TEST_SUITE_P(Sweep, WoodburyOracle,
                         ::testing::ValuesIn(woodbury_sweep()), sweep_name);

}  // namespace
}  // namespace hcham
