// test_baselines.cpp — the comparison points: MinHash/Mash sketching
// (exactness regimes, error decay, mergeability), the exact single-node
// all-pairs tool, and the MapReduce-style distributed baseline (which
// must agree exactly with SimilarityAtScale — same algebra, worse
// communication schedule).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/exact_pairwise.hpp"
#include "baselines/mapreduce_jaccard.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "sketch/bottomk.hpp"
#include "util/rng.hpp"

namespace sas::baselines {
namespace {

std::vector<std::uint64_t> random_set(std::int64_t universe, std::int64_t count,
                                      Rng& rng) {
  std::vector<std::uint64_t> out;
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(rng.uniform(static_cast<std::uint64_t>(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------- MinHash

TEST(MinHash, ExactWhenSketchHoldsEverything) {
  Rng rng(1);
  const auto a = random_set(10000, 200, rng);
  const auto b = random_set(10000, 200, rng);
  // Sketch size >= |A ∪ B|: the estimator degenerates to exact Jaccard.
  const sketch::BottomKSketch sa(a, 4096, 9);
  const sketch::BottomKSketch sb(b, 4096, 9);
  EXPECT_NEAR(sketch::BottomKSketch::estimate_jaccard(sa, sb), exact_jaccard(a, b), 1e-12);
}

TEST(MinHash, EmptySetsConvention) {
  const std::vector<std::uint64_t> empty;
  const sketch::BottomKSketch se(empty, 64, 9);
  EXPECT_DOUBLE_EQ(sketch::BottomKSketch::estimate_jaccard(se, se), 1.0);
}

TEST(MinHash, IdenticalSetsEstimateOne) {
  Rng rng(2);
  const auto a = random_set(100000, 5000, rng);
  const sketch::BottomKSketch s1(a, 128, 7);
  const sketch::BottomKSketch s2(a, 128, 7);
  EXPECT_DOUBLE_EQ(sketch::BottomKSketch::estimate_jaccard(s1, s2), 1.0);
}

TEST(MinHash, ErrorDecaysWithSketchSize) {
  // Build two sets with known Jaccard 1/3 (|A∩B| = n, each side adds n).
  Rng rng(3);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  for (std::uint64_t v = 0; v < 30000; ++v) {
    if (v % 3 == 0) {
      a.push_back(v);
      b.push_back(v);
    } else if (v % 3 == 1) {
      a.push_back(v);
    } else {
      b.push_back(v);
    }
  }
  const double truth = exact_jaccard(a, b);
  ASSERT_NEAR(truth, 1.0 / 3.0, 1e-3);

  // Average absolute error over hash seeds, per sketch size.
  auto mean_error = [&](std::size_t size) {
    double err = 0.0;
    const int trials = 12;
    for (int t = 0; t < trials; ++t) {
      const sketch::BottomKSketch sa(a, size, 100 + static_cast<std::uint64_t>(t));
      const sketch::BottomKSketch sb(b, size, 100 + static_cast<std::uint64_t>(t));
      err += std::fabs(sketch::BottomKSketch::estimate_jaccard(sa, sb) - truth);
    }
    return err / trials;
  };
  const double err_small = mean_error(32);
  const double err_large = mean_error(2048);
  EXPECT_LT(err_large, err_small);
  EXPECT_LT(err_large, 0.02);
}

TEST(MinHash, StruggleswithHighlyDissimilarPairsAtSmallSketch) {
  // The paper's motivating failure mode: J ≈ 0.002 is indistinguishable
  // from 0 with a small sketch.
  Rng rng(4);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  for (std::uint64_t v = 0; v < 50000; ++v) {
    if (v % 500 == 0) {
      a.push_back(v);
      b.push_back(v);
    } else if (v % 2 == 0) {
      a.push_back(v);
    } else {
      b.push_back(v);
    }
  }
  const double truth = exact_jaccard(a, b);
  ASSERT_LT(truth, 0.005);
  const sketch::BottomKSketch sa(a, 64, 5);
  const sketch::BottomKSketch sb(b, 64, 5);
  const double estimate = sketch::BottomKSketch::estimate_jaccard(sa, sb);
  // Tiny sketches quantize at 1/64; relative error is enormous or the
  // estimate collapses to zero.
  EXPECT_TRUE(estimate == 0.0 || std::fabs(estimate - truth) / truth > 1.0);
}

TEST(MinHash, MergeEqualsSketchOfUnion) {
  Rng rng(5);
  const auto a = random_set(100000, 3000, rng);
  const auto b = random_set(100000, 3000, rng);
  const sketch::BottomKSketch sa(a, 256, 11);
  const sketch::BottomKSketch sb(b, 256, 11);
  std::vector<std::uint64_t> ab(a);
  ab.insert(ab.end(), b.begin(), b.end());
  const sketch::BottomKSketch direct(ab, 256, 11);
  const sketch::BottomKSketch merged = sketch::BottomKSketch::merge(sa, sb);
  EXPECT_EQ(merged.hashes(), direct.hashes());
}

TEST(MinHash, IncompatibleSketchesRejected) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  const sketch::BottomKSketch s1(a, 16, 1);
  const sketch::BottomKSketch s2(a, 16, 2);   // different seed
  const sketch::BottomKSketch s3(a, 32, 1);   // different size
  EXPECT_THROW((void)sketch::BottomKSketch::estimate_jaccard(s1, s2), std::invalid_argument);
  EXPECT_THROW((void)sketch::BottomKSketch::merge(s1, s3), std::invalid_argument);
}

TEST(MashDistance, BoundaryAndMonotonicity) {
  EXPECT_DOUBLE_EQ(sketch::mash_distance(1.0, 21), 0.0);
  EXPECT_DOUBLE_EQ(sketch::mash_distance(0.0, 21), 1.0);
  double prev = 0.0;
  for (double j : {0.9, 0.7, 0.5, 0.3, 0.1, 0.01}) {
    const double d = sketch::mash_distance(j, 21);
    EXPECT_GT(d, prev);  // lower similarity -> larger distance
    prev = d;
  }
}

TEST(MashDistance, ApproximatesMutationRate) {
  // d should estimate the per-base mutation rate r when j is the k-mer
  // Jaccard induced by r (the Mash model).
  const int k = 21;
  for (double r : {0.01, 0.05}) {
    const double t = std::pow(1.0 - r, k);
    const double j = t / (2.0 - t);
    EXPECT_NEAR(sketch::mash_distance(j, k), r, r * 0.25);
  }
}

TEST(MinHash, AllPairsMatrixIsSymmetricWithUnitDiagonal) {
  Rng rng(6);
  std::vector<std::vector<std::uint64_t>> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(random_set(5000, 300, rng));
  const auto est = sketch::minhash_all_pairs(samples, 128, 42);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(est[static_cast<std::size_t>(i * 5 + i)], 1.0);
    for (int j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(est[static_cast<std::size_t>(i * 5 + j)],
                       est[static_cast<std::size_t>(j * 5 + i)]);
    }
  }
}

// ---------------------------------------------------------- exact pairwise

TEST(ExactPairwise, MatchesPairPrimitive) {
  Rng rng(7);
  std::vector<std::vector<std::uint64_t>> samples;
  for (int i = 0; i < 7; ++i) samples.push_back(random_set(2000, 150, rng));
  const auto matrix = exact_all_pairs(samples, 1);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(matrix.similarity(i, j),
                       exact_jaccard(samples[static_cast<std::size_t>(i)],
                                     samples[static_cast<std::size_t>(j)]));
    }
  }
}

TEST(ExactPairwise, ThreadedMatchesSerial) {
  Rng rng(8);
  std::vector<std::vector<std::uint64_t>> samples;
  for (int i = 0; i < 11; ++i) samples.push_back(random_set(3000, 200, rng));
  const auto serial = exact_all_pairs(samples, 1);
  const auto threaded = exact_all_pairs(samples, 4);
  EXPECT_EQ(serial.max_abs_diff(threaded), 0.0);
}

// -------------------------------------------------------------- MapReduce

class MapReduceTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MapReduceTest, AgreesExactlyWithSimilarityAtScale) {
  const auto [ranks, batches] = GetParam();
  Rng rng(9);
  std::vector<std::vector<std::int64_t>> samples(10);
  for (auto& s : samples) {
    const std::int64_t count = 3 + static_cast<std::int64_t>(rng.uniform(25));
    for (std::int64_t i = 0; i < count; ++i) {
      s.push_back(static_cast<std::int64_t>(rng.uniform(400)));
    }
  }
  const core::VectorSampleSource src(400, std::move(samples));

  const auto mapreduce = mapreduce_jaccard_threaded(ranks, src, batches);
  const auto driver = core::similarity_at_scale_threaded(ranks, src, core::Config{});
  ASSERT_EQ(mapreduce.size(), driver.similarity.size());
  EXPECT_EQ(mapreduce.max_abs_diff(driver.similarity), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapReduceTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{4, 3}, std::pair{7, 5}));

TEST(MapReduce, MovesAsymptoticallyMoreOutputBytesThanSumma) {
  // The paper's §VI claim, measured: the allreduce-over-reducers step
  // ships Θ(n²) per rank; SUMMA's output term is Θ(cn²/p) and its input
  // term Θ(z/√p). With enough ranks the gap must be visible.
  // Sized so the Θ(n²) allreduce dominates: few nonzeros (small z), many
  // samples (large n²), enough ranks for the √p savings to show.
  const core::BernoulliSampleSource src(/*universe=*/2048, /*samples=*/96,
                                        /*density=*/0.01, /*seed=*/21);
  const int ranks = 9;

  std::vector<bsp::CostCounters> mr_counters;
  (void)mapreduce_jaccard_threaded(ranks, src, 1, &mr_counters);

  core::Config cfg;
  cfg.algorithm = core::Algorithm::kSumma;
  std::vector<bsp::CostCounters> summa_counters;
  (void)core::similarity_at_scale_threaded(ranks, src, cfg, &summa_counters);

  const auto mr = bsp::CostSummary::aggregate(mr_counters);
  const auto summa = bsp::CostSummary::aggregate(summa_counters);
  EXPECT_GT(mr.max_bytes, summa.max_bytes);
}

}  // namespace
}  // namespace sas::baselines
