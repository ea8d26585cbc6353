// Tile representations (Tile-H vs BLR vs dense tiles), the tile-size
// advisor, and the trace exporter.
#include <gtest/gtest.h>

#include <sstream>

#include "bem/testcase.hpp"
#include "core/hchameleon.hpp"
#include "runtime/trace_json.hpp"
#include "test_utils.hpp"

namespace hcham {
namespace {

using bem::FemBemProblem;
using core::TileHMatrix;
using core::TileHOptions;
using core::TileRepresentation;
using rt::Engine;
using hcham::testing::rel_diff;
using hcham::testing::zdouble;

template <typename T>
TileHOptions format_options(TileRepresentation fmt, index_t nb, double eps) {
  TileHOptions opts;
  opts.format = fmt;
  opts.tile_size = nb;
  opts.clustering.leaf_size = 32;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

class Formats : public ::testing::TestWithParam<TileRepresentation> {};

TEST_P(Formats, ApproximatesKernelMatrix) {
  const index_t n = 500;
  FemBemProblem<double> problem(n, 1.0, 12.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine;
  auto a = TileHMatrix<double>::build(
      engine, problem.points(), gen,
      format_options<double>(GetParam(), 128, 1e-6));
  auto exact = problem.dense();
  EXPECT_LT(rel_diff<double>(a.to_dense_original().cview(), exact.cview()),
            1e-4);
}

TEST_P(Formats, FactorizeAndSolve) {
  const index_t n = 600;
  FemBemProblem<double> problem(n, 1.0, 12.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine({.num_workers = 2});
  auto opts = format_options<double>(GetParam(), 128, 1e-8);
  auto a = TileHMatrix<double>::build(engine, problem.points(), gen, opts);
  auto a2 = TileHMatrix<double>::build(engine, problem.points(), gen, opts);
  Rng rng(5);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& v : x0) v = rng.uniform(-1, 1);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  a2.matvec(1.0, x0.data(), 0.0, b.data());
  a.factorize(engine);
  la::MatrixView<double> bv(b.data(), n, 1, n);
  a.solve(engine, bv);
  double err = 0, ref = 0;
  for (index_t i = 0; i < n; ++i) {
    err += (b[static_cast<std::size_t>(i)] -
            x0[static_cast<std::size_t>(i)]) *
           (b[static_cast<std::size_t>(i)] - x0[static_cast<std::size_t>(i)]);
    ref += x0[static_cast<std::size_t>(i)] * x0[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(std::sqrt(err / ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllRepresentations, Formats,
                         ::testing::Values(TileRepresentation::TileH,
                                           TileRepresentation::Blr,
                                           TileRepresentation::Dense));

TEST(Formats, BlrUsesSingleBlockTiles) {
  const index_t n = 1000;
  FemBemProblem<double> problem(n, 1.0, 16.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine;
  auto a = TileHMatrix<double>::build(
      engine, problem.points(), gen,
      format_options<double>(TileRepresentation::Blr, 128, 1e-4));
  // Every tile must be a leaf (no hierarchy inside).
  index_t rk_tiles = 0;
  for (index_t i = 0; i < a.num_tiles(); ++i)
    for (index_t j = 0; j < a.num_tiles(); ++j) {
      EXPECT_TRUE(a.block(i, j).is_leaf());
      if (a.block(i, j).is_rk()) ++rk_tiles;
    }
  EXPECT_GT(rk_tiles, 0);
}

TEST(Formats, MemoryOrdering) {
  // The related-work trade-off: Tile-H compresses at least as well as BLR,
  // and both beat dense.
  const index_t n = 2000;
  FemBemProblem<double> problem(n, 1.0, 16.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  double ratio[3];
  int idx = 0;
  for (auto fmt : {TileRepresentation::TileH, TileRepresentation::Blr,
                   TileRepresentation::Dense}) {
    Engine engine;
    auto a = TileHMatrix<double>::build(
        engine, problem.points(), gen, format_options<double>(fmt, 256, 1e-4));
    ratio[idx++] = a.compression_ratio();
  }
  EXPECT_LE(ratio[0], ratio[1] + 0.02);  // Tile-H <= BLR (+ slack)
  EXPECT_LT(ratio[1], ratio[2]);         // BLR < dense
  EXPECT_DOUBLE_EQ(ratio[2], 1.0);
}

TEST(Formats, DenseMatchesExactKernel) {
  const index_t n = 300;
  FemBemProblem<zdouble> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  Engine engine;
  auto a = TileHMatrix<zdouble>::build(
      engine, problem.points(), gen,
      format_options<zdouble>(TileRepresentation::Dense, 100, 1e-4));
  EXPECT_LT(rel_diff<zdouble>(a.to_dense_original().cview(),
                              problem.dense().cview()),
            1e-15);
  EXPECT_DOUBLE_EQ(a.compression_ratio(), 1.0);
}

TEST(Advisor, PredictsAndRanksCandidates) {
  const index_t n = 1200;
  FemBemProblem<double> problem(n, 1.0, 12.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TileHOptions base;
  base.clustering.leaf_size = 32;
  base.hmatrix.compression.eps = 1e-4;
  auto advice = core::advise_tile_size<double>(
      problem.points(), gen, base, /*workers=*/8,
      rt::SchedulerPolicy::Priority, {128, 256, 600});
  ASSERT_EQ(advice.candidates.size(), 3u);
  EXPECT_GT(advice.best_nb, 0);
  EXPECT_GT(advice.predicted_time_s, 0.0);
  for (const auto& c : advice.candidates) {
    EXPECT_GT(c.predicted_time_s, 0.0);
    EXPECT_GT(c.t_getrf_s, 0.0);
    EXPECT_GE(c.predicted_time_s, advice.predicted_time_s);
  }
}

TEST(Advisor, SingleTileCandidateDegenerates) {
  const index_t n = 300;
  FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TileHOptions base;
  base.clustering.leaf_size = 32;
  auto advice = core::advise_tile_size<double>(
      problem.points(), gen, base, 4, rt::SchedulerPolicy::Priority, {512});
  ASSERT_EQ(advice.candidates.size(), 1u);
  EXPECT_EQ(advice.candidates[0].nt, 1);
  EXPECT_DOUBLE_EQ(advice.candidates[0].predicted_time_s,
                   advice.candidates[0].t_getrf_s);
}

TEST(Advisor, MoreWorkersPreferSmallerTiles) {
  // The paper's observation: the best NB shrinks as parallelism grows.
  const index_t n = 2000;
  FemBemProblem<double> problem(n, 1.0, 12.0);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  TileHOptions base;
  base.clustering.leaf_size = 32;
  base.hmatrix.compression.eps = 1e-4;
  auto a1 = core::advise_tile_size<double>(problem.points(), gen, base, 1,
                                           rt::SchedulerPolicy::Priority,
                                           {128, 1000});
  auto a32 = core::advise_tile_size<double>(problem.points(), gen, base, 32,
                                            rt::SchedulerPolicy::Priority,
                                            {128, 1000});
  EXPECT_LE(a32.best_nb, a1.best_nb);
}

TEST(TraceJson, ExportsChromeTracingEvents) {
  Engine eng({.num_workers = 2, .record_trace = true});
  auto h = eng.register_data();
  eng.submit([] {}, {rt::write(h)}, 0, "getrf");
  eng.submit([] {}, {rt::read(h)}, 0, "trsm");
  eng.wait_all();
  std::ostringstream out;
  rt::trace_to_json(eng.trace(), eng.graph(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"getrf\""), std::string::npos);
  EXPECT_NE(json.find("\"trsm\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(TraceJson, EmitsArithmeticProfile) {
  Engine eng({.num_workers = 1, .record_trace = true});
  auto h = eng.register_data();
  eng.submit([] {}, {rt::write(h)}, 0, "getrf");
  eng.wait_all();
  std::ostringstream out;
  rt::trace_to_json(eng.trace(), eng.graph(), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"arith\""), std::string::npos);
  EXPECT_NE(json.find("\"svd_sweeps\": "), std::string::npos);
  EXPECT_NE(json.find("\"svd_revealed_cols\": "), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "\n]\n");
}

}  // namespace
}  // namespace hcham
