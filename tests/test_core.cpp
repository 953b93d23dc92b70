// test_core.cpp — the SimilarityAtScale core: packing (filter + bitmask),
// driver edge cases and conventions, batching/parameter invariance, the
// d_J metric property, and the synthetic Bernoulli source's consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <vector>

#include <sstream>

#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/matrix_io.hpp"
#include "core/packing.hpp"
#include "core/sample_source.hpp"
#include "distmat/dist_filter.hpp"
#include "util/error.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas::core {
namespace {

// ---------------------------------------------------------------- packing

/// Unpack a rank's packed column runs back into (compact_row, col) bit
/// positions for cross-checking; also checks each run's word-rows ascend.
std::set<std::pair<std::int64_t, std::int64_t>> unpack(const distmat::ColumnRuns& runs,
                                                       int bit_width) {
  std::set<std::pair<std::int64_t, std::int64_t>> bits;
  EXPECT_EQ(runs.ptr.size(), runs.cols.size() + 1);
  EXPECT_EQ(runs.rows.size(), runs.masks.size());
  for (std::size_t r = 0; r < runs.runs(); ++r) {
    for (auto e = static_cast<std::size_t>(runs.ptr[r]);
         e < static_cast<std::size_t>(runs.ptr[r + 1]); ++e) {
      if (e > static_cast<std::size_t>(runs.ptr[r])) {
        EXPECT_LT(runs.rows[e - 1], runs.rows[e]);
      }
      EXPECT_NE(runs.masks[e], 0u);
      for (int b = 0; b < 64; ++b) {
        if ((runs.masks[e] >> b) & 1ULL) {
          EXPECT_LT(b, bit_width);  // no bit outside the configured width
          bits.insert({runs.rows[e] * bit_width + b, runs.cols[r]});
        }
      }
    }
  }
  return bits;
}

/// Packs batch `rows` of `src` on `nranks` ranks and checks every bit,
/// the filtered row count and the word-row count against a serial
/// compaction of the batch's nonzero rows.
void expect_pack_round_trip(const VectorSampleSource& src, distmat::BlockRange rows,
                            int nranks, int bit_width, bool use_filter) {
  // Expected (compact_row, col) pairs, built serially.
  std::set<std::int64_t> nonzero_rows;
  for (std::int64_t i = 0; i < src.sample_count(); ++i) {
    for (std::int64_t v : src.sample(i)) {
      if (rows.contains(v)) nonzero_rows.insert(v - rows.begin);
    }
  }
  std::vector<std::int64_t> sorted_rows(nonzero_rows.begin(), nonzero_rows.end());
  auto compact = [&](std::int64_t offset) -> std::int64_t {
    if (!use_filter) return offset;
    return static_cast<std::int64_t>(
        std::lower_bound(sorted_rows.begin(), sorted_rows.end(), offset) -
        sorted_rows.begin());
  };
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t i = 0; i < src.sample_count(); ++i) {
    for (std::int64_t v : src.sample(i)) {
      if (rows.contains(v)) expected.insert({compact(v - rows.begin), i});
    }
  }

  std::mutex mutex;
  std::set<std::pair<std::int64_t, std::int64_t>> got;
  std::int64_t word_rows = -1;
  std::int64_t filtered_rows = -1;
  bsp::Runtime::run(nranks, [&](bsp::Comm& comm) {
    PackedBatch packed = pack_batch(comm, src, rows, bit_width, use_filter);
    const auto bits = unpack(packed.runs, bit_width);
    std::lock_guard<std::mutex> lock(mutex);
    got.insert(bits.begin(), bits.end());
    word_rows = packed.word_rows;
    filtered_rows = packed.filtered_rows;
  });

  EXPECT_EQ(got, expected);
  const std::int64_t kept =
      use_filter ? static_cast<std::int64_t>(sorted_rows.size()) : rows.size();
  EXPECT_EQ(filtered_rows, kept);
  EXPECT_EQ(word_rows, (kept + bit_width - 1) / bit_width);
}

class PackingTest : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PackingTest, RoundTripsEveryBit) {
  const auto [nranks, bit_width, use_filter] = GetParam();
  const std::int64_t m = 300;
  const VectorSampleSource src(m, {{5, 17, 100, 299},
                                   {5, 6, 7, 8, 9, 150},
                                   {},
                                   {0, 299},
                                   {},
                                   {17, 100}});
  expect_pack_round_trip(src, distmat::BlockRange{0, m}, nranks, bit_width, use_filter);
}

TEST_P(PackingTest, HypersparseBatchRoundTrips) {
  // A k = 21 k-mer universe: the filter union is hypersparse (gaps of
  // ~10^9 rows, so the delta-varint encoding carries it) and the batch
  // starts far from row 0, so every offset is exercised.
  const auto [nranks, bit_width, use_filter] = GetParam();
  const std::int64_t universe = std::int64_t{1} << 42;
  Rng rng(2121);
  std::vector<std::vector<std::int64_t>> samples(16);
  for (std::size_t s = 0; s < samples.size(); ++s) {
    if (s % 7 == 3) continue;  // empty samples
    for (int i = 0; i < 200; ++i) {
      samples[s].push_back(static_cast<std::int64_t>(
          rng.uniform(static_cast<std::uint64_t>(universe))));
    }
  }
  const VectorSampleSource src(universe, std::move(samples));
  const distmat::BlockRange rows = distmat::block_range(universe, 4, 1);
  ASSERT_GT(rows.begin, 0);

  std::vector<std::int64_t> batch_rows;
  for (std::int64_t i = 0; i < src.sample_count(); ++i) {
    for (std::int64_t v : src.sample(i)) {
      if (rows.contains(v)) batch_rows.push_back(v - rows.begin);
    }
  }
  std::sort(batch_rows.begin(), batch_rows.end());
  batch_rows.erase(std::unique(batch_rows.begin(), batch_rows.end()), batch_rows.end());
  ASSERT_EQ(distmat::encode_index_set(batch_rows, rows.size()).front(), 2U)
      << "the batch's filter must take the delta encoding";

  expect_pack_round_trip(src, rows, nranks, bit_width, use_filter);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackingTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 8), ::testing::Values(1, 8, 64),
                      ::testing::Values(true, false)));

TEST(Packing, RejectsBadBitWidth) {
  VectorSampleSource src(10, {{1}});
  bsp::Runtime::run(1, [&](bsp::Comm& comm) {
    EXPECT_THROW(pack_batch(comm, src, distmat::BlockRange{0, 10}, 0, true),
                 std::invalid_argument);
    EXPECT_THROW(pack_batch(comm, src, distmat::BlockRange{0, 10}, 65, true),
                 std::invalid_argument);
  });
}

// ------------------------------------------------------------ conventions

TEST(Driver, EmptySamplesHaveSimilarityOne) {
  VectorSampleSource src(100, {{}, {}, {1, 2, 3}});
  Config cfg;
  cfg.algorithm = Algorithm::kSerial;
  const Result result = similarity_at_scale_threaded(1, src, cfg);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 1.0);  // J(∅,∅) = 1
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 2), 0.0);  // ∅ vs nonempty
  EXPECT_DOUBLE_EQ(result.similarity.similarity(2, 2), 1.0);
}

TEST(Driver, IdenticalAndDisjointSamples) {
  VectorSampleSource src(50, {{1, 5, 9}, {1, 5, 9}, {20, 30}});
  Config cfg;
  const Result result = similarity_at_scale_threaded(4, src, cfg);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(result.similarity.distance(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(result.similarity.distance(0, 2), 1.0);
}

TEST(Driver, KnownOverlapValue) {
  // |A∩B| = 2, |A∪B| = 4 -> J = 0.5.
  VectorSampleSource src(64, {{1, 2, 3}, {2, 3, 4}});
  const Result result = similarity_at_scale_threaded(2, src, Config{});
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 0.5);
}

TEST(Driver, SingleSample) {
  VectorSampleSource src(32, {{0, 31}});
  const Result result = similarity_at_scale_threaded(3, src, Config{});
  ASSERT_EQ(result.n, 1);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 0), 1.0);
}

TEST(Driver, MoreRanksThanSamples) {
  // The Fig. 2a regime where MPI processes exceed matrix columns.
  VectorSampleSource src(40, {{1, 2}, {2, 3}, {30}});
  Config cfg;
  cfg.algorithm = Algorithm::kRing1D;
  const Result result = similarity_at_scale_threaded(8, src, cfg);
  EXPECT_NEAR(result.similarity.similarity(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(Driver, RejectsInvalidConfigs) {
  VectorSampleSource src(10, {{1}});
  Config bad;
  bad.batch_count = 0;
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, bad), error::ConfigError);
  bad.batch_count = 11;  // more batches than rows
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, bad), error::ConfigError);
}

TEST(Driver, ReportsBatchStats) {
  VectorSampleSource src(128, {{1, 2, 3, 64, 127}, {2, 3, 90}});
  Config cfg;
  cfg.batch_count = 4;
  const Result result = similarity_at_scale_threaded(2, src, cfg);
  ASSERT_EQ(result.batches.size(), 4u);
  std::int64_t filtered = 0;
  for (const auto& b : result.batches) {
    EXPECT_GE(b.seconds, 0.0);
    filtered += b.filtered_rows;
  }
  EXPECT_EQ(filtered, 6);  // distinct attributes: {1,2,3,64,90,127}
}

// ------------------------------------------------------------- invariance

/// All knob settings must give bit-identical similarity matrices — the
/// paper's correctness contract for batching (Eq. 4), compression
/// (Eq. 7), and the parallel schedule (§III-C).
TEST(DriverInvariance, ResultIndependentOfAllKnobs) {
  Rng rng(2024);
  std::vector<std::vector<std::int64_t>> samples(12);
  for (auto& s : samples) {
    const std::int64_t count = 5 + static_cast<std::int64_t>(rng.uniform(40));
    for (std::int64_t i = 0; i < count; ++i) {
      s.push_back(static_cast<std::int64_t>(rng.uniform(900)));
    }
  }
  VectorSampleSource src(900, std::move(samples));

  Config base;
  base.algorithm = Algorithm::kSerial;
  const Result reference = similarity_at_scale_threaded(1, src, base);

  struct Knobs {
    Algorithm alg;
    int ranks;
    int batches;
    int bits;
    int c;
    bool filter;
  };
  const std::vector<Knobs> settings{
      {Algorithm::kSerial, 4, 9, 32, 1, true},
      {Algorithm::kRing1D, 3, 2, 64, 1, true},
      {Algorithm::kRing1D, 6, 13, 64, 1, false},
      {Algorithm::kSumma, 4, 1, 64, 1, true},
      {Algorithm::kSumma, 9, 6, 8, 1, true},
      {Algorithm::kSumma, 8, 3, 64, 2, true},
      {Algorithm::kSumma, 12, 4, 64, 3, false},
  };
  for (const Knobs& k : settings) {
    Config cfg;
    cfg.algorithm = k.alg;
    cfg.batch_count = k.batches;
    cfg.bit_width = k.bits;
    cfg.replication = k.c;
    cfg.use_zero_row_filter = k.filter;
    const Result got = similarity_at_scale_threaded(k.ranks, src, cfg);
    EXPECT_EQ(got.similarity.max_abs_diff(reference.similarity), 0.0)
        << "ranks=" << k.ranks << " batches=" << k.batches << " bits=" << k.bits
        << " c=" << k.c;
  }
}

/// Unfiltered k = 21 universe (4²¹ rows): word-row chunks exceed 2³²
/// rows, so the panel wires carry row ids wider than 32 bits. Every
/// schedule must still match the serial reference bit for bit.
TEST(DriverInvariance, HypersparseUnfilteredRowIdsParity) {
  const std::int64_t universe = std::int64_t{1} << 42;
  Rng rng(4242);
  std::vector<std::vector<std::int64_t>> samples(11);
  for (auto& s : samples) {
    // 256 anchors 2³⁴ rows apart, so pairs share rows; small offsets put
    // several bits in one mask word.
    for (int i = 0; i < 60; ++i) {
      s.push_back((static_cast<std::int64_t>(rng.uniform(256)) << 34) +
                  static_cast<std::int64_t>(rng.uniform(128)));
    }
  }
  VectorSampleSource src(universe, std::move(samples));

  Config base;
  base.algorithm = Algorithm::kSerial;
  base.use_zero_row_filter = false;
  const Result reference = similarity_at_scale_threaded(1, src, base);
  bool overlap = false;
  for (std::int64_t i = 0; i < reference.n; ++i) {
    for (std::int64_t j = i + 1; j < reference.n; ++j) {
      overlap = overlap || reference.similarity.similarity(i, j) > 0.0;
    }
  }
  ASSERT_TRUE(overlap) << "the parity check needs intersecting samples";

  struct Knobs {
    Algorithm alg;
    int ranks;
    int c;
  };
  for (const Knobs& k : {Knobs{Algorithm::kSumma, 4, 1}, Knobs{Algorithm::kSumma, 8, 2},
                         Knobs{Algorithm::kRing1D, 3, 1}}) {
    Config cfg;
    cfg.algorithm = k.alg;
    cfg.replication = k.c;
    cfg.use_zero_row_filter = false;
    // One batch: the word-row chunks are 2³⁶ / (s·c) ≥ 2³⁴ rows tall.
    ASSERT_EQ(cfg.batch_count, 1);
    const Result got = similarity_at_scale_threaded(k.ranks, src, cfg);
    EXPECT_EQ(got.similarity.max_abs_diff(reference.similarity), 0.0)
        << "ranks=" << k.ranks << " c=" << k.c;
  }
}

// ---------------------------------------------------------------- metric

TEST(DistanceMetric, TriangleInequalityOnRandomFamilies) {
  // d_J is a proper metric (paper §II-A); check on random set families.
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::vector<std::int64_t>> samples(9);
    for (auto& s : samples) {
      const std::int64_t count = 1 + static_cast<std::int64_t>(rng.uniform(30));
      for (std::int64_t i = 0; i < count; ++i) {
        s.push_back(static_cast<std::int64_t>(rng.uniform(120)));
      }
    }
    VectorSampleSource src(120, std::move(samples));
    const Result result = similarity_at_scale_threaded(2, src, Config{});
    const std::int64_t n = result.n;
    for (std::int64_t a = 0; a < n; ++a) {
      EXPECT_DOUBLE_EQ(result.similarity.distance(a, a), 0.0);
      for (std::int64_t b = 0; b < n; ++b) {
        EXPECT_DOUBLE_EQ(result.similarity.distance(a, b),
                         result.similarity.distance(b, a));
        for (std::int64_t c = 0; c < n; ++c) {
          EXPECT_LE(result.similarity.distance(a, c),
                    result.similarity.distance(a, b) +
                        result.similarity.distance(b, c) + 1e-12);
        }
      }
    }
  }
}

// --------------------------------------------------------------- sources

TEST(BernoulliSource, MembershipConsistentAcrossPartitions) {
  const BernoulliSampleSource src(/*universe=*/20000, /*samples=*/4, /*density=*/0.01,
                                  /*seed=*/11);
  // The union over any batch partition must equal the full-range query.
  for (std::int64_t sample = 0; sample < 4; ++sample) {
    const auto whole = src.values_in_range(sample, {0, 20000});
    for (int batches : {2, 3, 7}) {
      std::vector<std::int64_t> stitched;
      for (int b = 0; b < batches; ++b) {
        const auto part =
            src.values_in_range(sample, distmat::block_range(20000, batches, b));
        stitched.insert(stitched.end(), part.begin(), part.end());
      }
      EXPECT_EQ(stitched, whole) << "sample " << sample << " batches " << batches;
    }
  }
}

TEST(BernoulliSource, DensityHoldsInExpectation) {
  const double density = 0.02;
  const BernoulliSampleSource src(100000, 8, density, 3);
  std::int64_t total = 0;
  for (std::int64_t s = 0; s < 8; ++s) {
    total += static_cast<std::int64_t>(src.values_in_range(s, {0, 100000}).size());
  }
  const double observed = static_cast<double>(total) / (8.0 * 100000.0);
  EXPECT_NEAR(observed, density, density * 0.15);
}

TEST(BernoulliSource, ValuesSortedUniqueAndInRange) {
  const BernoulliSampleSource src(5000, 2, 0.05, 99);
  const auto values = src.values_in_range(0, {1000, 3000});
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) == values.end());
  for (std::int64_t v : values) {
    EXPECT_GE(v, 1000);
    EXPECT_LT(v, 3000);
  }
}

TEST(VectorSource, SortsDeduplicatesAndValidates) {
  VectorSampleSource src(100, {{9, 3, 3, 7}});
  EXPECT_EQ(src.sample(0), (std::vector<std::int64_t>{3, 7, 9}));
  EXPECT_THROW(VectorSampleSource(10, {{10}}), std::out_of_range);
  EXPECT_THROW(VectorSampleSource(10, {{-1}}), std::out_of_range);
}

TEST(VectorSource, RangeQueriesAreHalfOpen) {
  VectorSampleSource src(100, {{10, 20, 30}});
  EXPECT_EQ(src.values_in_range(0, {10, 30}), (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(src.values_in_range(0, {0, 10}), (std::vector<std::int64_t>{}));
  EXPECT_EQ(src.values_in_range(0, {30, 100}), (std::vector<std::int64_t>{30}));
}

TEST(BernoulliSource, DensitySpreadVariesColumns) {
  const BernoulliSampleSource src(200000, 32, 1e-3, 5, /*density_spread=*/8.0);
  std::int64_t smallest = INT64_MAX;
  std::int64_t largest = 0;
  for (std::int64_t s = 0; s < 32; ++s) {
    const auto count = static_cast<std::int64_t>(src.values_in_range(s, {0, 200000}).size());
    smallest = std::min(smallest, count);
    largest = std::max(largest, count);
  }
  // Log-uniform spread over [1/8, 8] must produce clearly uneven columns.
  EXPECT_GT(largest, 4 * std::max<std::int64_t>(smallest, 1));
  EXPECT_THROW(BernoulliSampleSource(10, 1, 0.1, 1, 0.5), std::invalid_argument);
}

// -------------------------------------------------------------- matrix I/O

TEST(MatrixIo, BinaryRoundTrip) {
  const SimilarityMatrix matrix(3, {1.0, 0.25, 0.5, 0.25, 1.0, 0.125, 0.5, 0.125, 1.0});
  const std::vector<std::string> names{"alpha", "beta", "gamma"};
  std::stringstream buffer;
  write_similarity_binary(buffer, names, matrix);
  const NamedSimilarity parsed = read_similarity_binary(buffer);
  EXPECT_EQ(parsed.names, names);
  EXPECT_EQ(parsed.matrix.max_abs_diff(matrix), 0.0);
}

TEST(MatrixIo, BinaryRejectsCorruption) {
  const SimilarityMatrix matrix(1, {1.0});
  std::stringstream buffer;
  write_similarity_binary(buffer, {"only"}, matrix);
  std::string bytes = buffer.str();
  bytes[0] = 'X';  // break the magic
  std::istringstream bad(bytes);
  EXPECT_THROW((void)read_similarity_binary(bad), std::runtime_error);
  std::istringstream truncated(buffer.str().substr(0, 10));
  EXPECT_THROW((void)read_similarity_binary(truncated), std::runtime_error);
}

TEST(MatrixIo, ValidatesNames) {
  const SimilarityMatrix matrix(2, {1.0, 0.5, 0.5, 1.0});
  std::stringstream buffer;
  EXPECT_THROW(write_similarity_binary(buffer, {"one"}, matrix), std::invalid_argument);
  EXPECT_THROW(write_similarity_binary(buffer, {"a\nb", "c"}, matrix),
               std::invalid_argument);
}

TEST(MatrixIo, TsvHasHeaderAndFullPrecision) {
  const SimilarityMatrix matrix(2, {1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0});
  std::ostringstream out;
  write_similarity_tsv(out, {"s1", "s2"}, matrix);
  const std::string tsv = out.str();
  EXPECT_NE(tsv.find("sample\ts1\ts2"), std::string::npos);
  EXPECT_NE(tsv.find("0.3333333333333333"), std::string::npos);
}

// ------------------------------------------------- randomized invariance

/// Seeded sweep: SUMMA at several ranks must match the serial reference on
/// synthetic Bernoulli inputs (complements the hand-built cases above).
class RandomizedInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedInvariance, SummaMatchesSerialOnBernoulliInputs) {
  const std::uint64_t seed = GetParam();
  const BernoulliSampleSource src(5000, 20, 0.01, seed, /*density_spread=*/4.0);

  Config serial_cfg;
  serial_cfg.algorithm = Algorithm::kSerial;
  const Result reference = similarity_at_scale_threaded(1, src, serial_cfg);

  Config cfg;
  cfg.batch_count = 3;
  cfg.replication = 1;
  const Result summa = similarity_at_scale_threaded(9, src, cfg);
  EXPECT_EQ(summa.similarity.max_abs_diff(reference.similarity), 0.0);

  cfg.algorithm = Algorithm::kRing1D;
  const Result ring = similarity_at_scale_threaded(5, src, cfg);
  EXPECT_EQ(ring.similarity.max_abs_diff(reference.similarity), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedInvariance,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sas::core
