// test_distmat.cpp — the mini-Cyclops layer: block partitioning, triplet
// normalization, the distributed filter, processor grids, the column-run
// exchange and panel wire, and all SpGEMM variants against a brute-force
// dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "bsp/runtime.hpp"
#include "distmat/block.hpp"
#include "distmat/csr.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/panel_wire.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/spgemm.hpp"
#include "util/error.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas::distmat {
namespace {

// ---------------------------------------------------------------- blocks

TEST(BlockRange, PartitionCoversExactlyAndEvenly) {
  for (std::int64_t total : {0LL, 1LL, 7LL, 64LL, 1000LL}) {
    for (int nblocks : {1, 2, 3, 7, 16}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (int b = 0; b < nblocks; ++b) {
        const BlockRange range = block_range(total, nblocks, b);
        EXPECT_EQ(range.begin, prev_end);
        EXPECT_GE(range.size(), total / nblocks);
        EXPECT_LE(range.size(), total / nblocks + 1);
        covered += range.size();
        prev_end = range.end;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(BlockRange, OwnerAgreesWithRanges) {
  for (std::int64_t total : {1LL, 9LL, 100LL, 1023LL}) {
    for (int nblocks : {1, 2, 5, 8}) {
      for (std::int64_t i = 0; i < total; ++i) {
        const int owner = block_owner(total, nblocks, i);
        EXPECT_TRUE(block_range(total, nblocks, owner).contains(i))
            << "total=" << total << " nblocks=" << nblocks << " i=" << i;
      }
    }
  }
}

TEST(BlockRange, RejectsInvalidIndices) {
  EXPECT_THROW((void)block_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)block_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)block_range(10, 3, -1), std::invalid_argument);
}

// --------------------------------------------------------------- triplets

TEST(Triplets, NormalizeSortsAndCombines) {
  std::vector<Triplet<std::uint64_t>> entries{
      {2, 1, 0b001}, {0, 0, 0b100}, {2, 1, 0b010}, {1, 5, 0b111}, {0, 0, 0b100}};
  normalize_triplets(entries, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (Triplet<std::uint64_t>{0, 0, 0b100}));
  EXPECT_EQ(entries[1], (Triplet<std::uint64_t>{1, 5, 0b111}));
  EXPECT_EQ(entries[2], (Triplet<std::uint64_t>{2, 1, 0b011}));
}

TEST(Triplets, NormalizeWithAdditionCounts) {
  std::vector<Triplet<std::uint64_t>> entries{{0, 0, 2}, {0, 0, 3}, {1, 1, 1}};
  normalize_triplets(entries, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].value, 5u);
}

// -------------------------------------------------------------------- CSR

TEST(Csr, RoundTripsCanonicalTriplets) {
  std::vector<Triplet<std::uint64_t>> entries{
      {0, 2, 5}, {0, 7, 9}, {2, 0, 1}, {4, 3, 8}};
  const auto csr = CsrMatrix<std::uint64_t>::from_triplets(5, 8, entries);
  EXPECT_EQ(csr.rows(), 5);
  EXPECT_EQ(csr.cols(), 8);
  EXPECT_EQ(csr.nnz(), 4);
  EXPECT_EQ(csr.to_triplets(), entries);
  // Row access.
  ASSERT_EQ(csr.row_columns(0).size(), 2u);
  EXPECT_EQ(csr.row_columns(0)[1], 7);
  EXPECT_EQ(csr.row_values(0)[1], 9u);
  EXPECT_TRUE(csr.row_columns(1).empty());
  EXPECT_TRUE(csr.row_columns(3).empty());
}

TEST(Csr, StorageAccountsRowStartsSeparately) {
  // The §III-B claim: row-start bytes scale with rows, not nnz.
  std::vector<Triplet<std::uint64_t>> entries{{0, 0, 1}, {63, 1, 2}};
  const auto tall = CsrMatrix<std::uint64_t>::from_triplets(64, 2, entries);
  std::vector<Triplet<std::uint64_t>> packed_entries{{0, 0, 1}, {0, 1, 2}};
  const auto packed = CsrMatrix<std::uint64_t>::from_triplets(1, 2, packed_entries);
  EXPECT_EQ(tall.storage().row_starts, 65u * 8u);
  EXPECT_EQ(packed.storage().row_starts, 2u * 8u);
  EXPECT_EQ(tall.storage().col_indices, packed.storage().col_indices);
  EXPECT_EQ(tall.storage().values, packed.storage().values);
  EXPECT_GT(tall.storage().total(), packed.storage().total());
}

TEST(Csr, EmptyMatrix) {
  const auto csr = CsrMatrix<std::uint64_t>::from_triplets(0, 0, {});
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.storage().row_starts, 8u);  // the single sentinel row start
}

// ----------------------------------------------------------------- filter

class FilterTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterTest, UnionMatchesSerialSetUnion) {
  const int p = GetParam();
  const std::int64_t universe = 500;
  // Rank r contributes multiples of (r+2) < universe, with duplicates.
  std::set<std::int64_t> expected;
  for (int r = 0; r < p; ++r) {
    for (std::int64_t v = 0; v < universe; v += r + 2) expected.insert(v);
  }
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    std::vector<std::int64_t> mine;
    for (std::int64_t v = 0; v < universe; v += comm.rank() + 2) {
      mine.push_back(v);
      mine.push_back(v);  // duplicates must be tolerated
    }
    const auto got = distributed_index_union(comm, mine, universe);
    const std::vector<std::int64_t> want(expected.begin(), expected.end());
    EXPECT_EQ(got, want);
  });
}

TEST_P(FilterTest, ShuffledDuplicateInputMatchesSerialUnion) {
  const int p = GetParam();
  const std::int64_t universe = 5000;
  // Rank r's contribution: random indices, each repeated, then shuffled —
  // the unsorted-input path. Rank 1 contributes nothing.
  auto contribution = [&](int rank) {
    std::vector<std::int64_t> mine;
    if (rank == 1) return mine;
    Rng rng(static_cast<std::uint64_t>(70 + rank));
    for (int i = 0; i < 300; ++i) {
      const auto v = static_cast<std::int64_t>(rng.uniform(universe));
      mine.insert(mine.end(), {v, v});
    }
    std::shuffle(mine.begin(), mine.end(), rng);
    return mine;
  };
  std::set<std::int64_t> expected;
  for (int r = 0; r < p; ++r) {
    const auto mine = contribution(r);
    expected.insert(mine.begin(), mine.end());
  }
  const std::vector<std::int64_t> want(expected.begin(), expected.end());
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const auto mine = contribution(comm.rank());
    for (const bool compress : {false, true}) {
      EXPECT_EQ(distributed_index_union(comm, mine, universe, compress), want)
          << "compress=" << compress;
    }
  });
}

TEST_P(FilterTest, CompactSortedRowsIsThePrefixSum) {
  const int p = GetParam();
  bsp::Runtime::run(p, [](bsp::Comm& comm) {
    std::vector<std::int64_t> mine;
    if (comm.rank() == 0) mine = {10, 40, 70, 200};
    const auto filter = distributed_index_union(comm, mine, 1000);
    ASSERT_EQ(filter.size(), 4u);
    const std::vector<std::int64_t> rows = {10, 40, 200};
    EXPECT_EQ(compact_sorted_rows(filter, rows), (std::vector<std::int64_t>{0, 1, 3}));
    const std::vector<std::int64_t> global_rows = {5010, 5040, 5200};
    EXPECT_EQ(compact_sorted_rows(filter, global_rows, 5000),
              (std::vector<std::int64_t>{0, 1, 3}));
    const std::vector<std::int64_t> absent = {10, 11};
    EXPECT_THROW((void)compact_sorted_rows(filter, absent), std::logic_error);
    const std::vector<std::int64_t> past_end = {200, 201};
    EXPECT_THROW((void)compact_sorted_rows(filter, past_end), std::logic_error);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FilterTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(FilterEncoding, RoundTripsEveryShape) {
  struct Shape {
    const char* name;
    std::vector<std::int64_t> indices;
    std::int64_t extent;
  };
  std::vector<Shape> shapes = {
      {"empty", {}, 100},
      {"single", {0}, 1},
      {"last", {999}, 1000},
      {"dense run", {}, 500},
      {"every other", {}, 512},
      {"isolated huge gaps", {3, 1000000, 123456789, 999999999}, std::int64_t{1} << 30},
      {"word boundary", {62, 63, 64, 65, 127, 128}, 200},
      {"one-word gap inlined", {10, 140}, 4096},
  };
  for (std::int64_t v = 0; v < 500; ++v) shapes[3].indices.push_back(v);
  for (std::int64_t v = 0; v < 512; v += 2) shapes[4].indices.push_back(v);
  Rng rng(404);
  Shape random{"random", {}, 1 << 20};
  for (std::int64_t v = 0; v < (1 << 20); ++v) {
    if (rng.bernoulli(0.001)) random.indices.push_back(v);
  }
  shapes.push_back(std::move(random));

  for (const Shape& shape : shapes) {
    const auto encoded =
        encode_index_set(std::span<const std::int64_t>(shape.indices), shape.extent);
    const auto decoded =
        decode_index_set(std::span<const std::uint64_t>(encoded), shape.extent);
    EXPECT_EQ(decoded, shape.indices) << shape.name;
    // Never more than one mode word above the raw cost.
    EXPECT_LE(encoded.size(), shape.indices.size() + 1) << shape.name;
  }

  // Compression wins where it should: ~1 bit/row on dense runs (RLE),
  // about half the raw words on huge-gap hypersparse sets (delta-varint).
  const auto dense_encoded =
      encode_index_set(std::span<const std::int64_t>(shapes[3].indices), 500);
  EXPECT_LE(dense_encoded.size(), shapes[3].indices.size() / 32 + 2);
  std::vector<std::int64_t> hypersparse;
  for (std::int64_t v = 0; v < 1000; ++v) hypersparse.push_back(v * 33554432);
  const auto sparse_encoded = encode_index_set(
      std::span<const std::int64_t>(hypersparse), std::int64_t{1} << 45);
  EXPECT_LE(sparse_encoded.size(), hypersparse.size() / 2 + 2);

  // Malformed inputs throw.
  const std::vector<std::int64_t> unsorted = {5, 3};
  EXPECT_THROW((void)encode_index_set(std::span<const std::int64_t>(unsorted), 10),
               std::invalid_argument);
  const std::vector<std::int64_t> beyond = {12};
  EXPECT_THROW((void)encode_index_set(std::span<const std::int64_t>(beyond), 10),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_mode = {99, 1, 2};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(bad_mode), 10),
               sas::error::CorruptInput);
  // Hostile delta streams must throw, never yield negative or
  // out-of-extent indices: a complete 10-byte varint encoding gap = 2^63
  // (the sign bit — nine 0x80 continuation bytes, then 0x01) and a gap
  // one past the extent.
  const std::vector<std::uint64_t> sign_bit_gap = {2, 0x8080808080808080ULL, 0x0180ULL};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(sign_bit_gap),
                                      std::int64_t{1} << 40),
               sas::error::CorruptInput);
  const std::vector<std::uint64_t> gap_past_extent = {2, 11};  // gap 11, extent 10
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(gap_past_extent),
                                      10),
               sas::error::CorruptInput);
  // Hostile RLE skip headers chained past the extent must throw before
  // pos * 64 can overflow.
  const std::uint64_t skip_only = 0xffffffffULL << 32;  // skip 2^32-1, 0 literals
  const std::vector<std::uint64_t> runaway_skip = {
      0, skip_only, skip_only, skip_only, (1ULL << 32) | 1, 1};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(runaway_skip), 64),
               sas::error::CorruptInput);
}

// Encoder output recorded from the encoder that built both bodies and
// kept the smaller; sizing before building must pick the same mode and
// emit the same words.
TEST(FilterEncoding, WireFormatIsFrozen) {
  struct Golden {
    const char* name;
    std::vector<std::int64_t> indices;
    std::int64_t extent;
    std::vector<std::uint64_t> words;
  };
  std::vector<Golden> cases;
  {
    Golden g{"dense RLE run", {}, 300,
             {0x0ULL, 0x4ULL, 0xfffffffffffffff8ULL, 0xffffffffffffffffULL,
              0xffffffffffffffffULL, 0x1ffULL}};
    for (std::int64_t v = 3; v <= 200; ++v) g.indices.push_back(v);
    cases.push_back(std::move(g));
  }
  {
    Golden g{"one-zero-word gaps", {}, 1000,
             {0x0ULL, 0x5ULL, 0x9249249249249249ULL, 0x0ULL, 0x2492492492492492ULL, 0x0ULL,
              0x4924924924924924ULL, 0x500000002ULL, 0x4924924924924924ULL,
              0x2492492492492492ULL}};
    for (std::int64_t v = 0; v < 768; v += 3) {
      if (v < 64 || (v >= 128 && v < 192) || (v >= 256 && v < 320) || v >= 640) {
        g.indices.push_back(v);
      }
    }
    cases.push_back(std::move(g));
  }
  {
    Golden g{"skip wider than kMax32", {}, std::int64_t{1} << 40,
             {0x0ULL, 0xffffffff00000000ULL, 0xffffffff00000000ULL, 0x700000004ULL,
              0x5555555555555555ULL, 0x5555555555555555ULL, 0x5555555555555555ULL,
              0x5555555555555555ULL}};
    const std::int64_t first = ((std::int64_t{1} << 33) + 5) * 64;
    for (std::int64_t v = first; v < first + 256; v += 2) g.indices.push_back(v);
    cases.push_back(std::move(g));
  }
  {
    Golden g{"hypersparse delta gaps", {}, std::int64_t{1} << 42,
             {0x2ULL,
              0xe2ad9604e2ad9401ULL, 0xe2ad9a04e2ad9804ULL, 0xe2ad9e04e2ad9c04ULL,
              0xe2ada204e2ada004ULL, 0xe2ada604e2ada404ULL, 0xe2adaa04e2ada804ULL,
              0xe2adae04e2adac04ULL, 0xe2adb204e2adb004ULL, 0xe2adb604e2adb404ULL,
              0xe2adba04e2adb804ULL, 0xe2adbe04e2adbc04ULL, 0xe2adc204e2adc004ULL,
              0xe2adc604e2adc404ULL, 0xe2adca04e2adc804ULL, 0xe2adce04e2adcc04ULL,
              0xe2a5ea04e2add004ULL, 0xe2add604e2add404ULL, 0xe2adda04e2add804ULL,
              0xe2adde04e2addc04ULL, 0x4e2ade004ULL}};
    for (std::int64_t i = 0; i < 40; ++i) g.indices.push_back(i * 10000019 + (i * i) % 1000);
    cases.push_back(std::move(g));
  }
  cases.push_back({"raw list fallthrough",
                   {std::int64_t{1} << 56, (std::int64_t{1} << 57) + 3},
                   std::int64_t{1} << 58,
                   {0x1ULL, 0x100000000000000ULL, 0x200000000000003ULL}});
  {
    // RLE and delta both take 2 body words: the tie goes to RLE.
    Golden g{"rle/delta tie", {}, 64, {0x0ULL, 0x1ULL, 0xffffULL}};
    for (std::int64_t v = 0; v < 16; ++v) g.indices.push_back(v);
    cases.push_back(std::move(g));
  }
  // Delta and the raw list both take 1 body word: the tie goes to delta.
  cases.push_back({"delta/list tie",
                   {std::int64_t{1} << 50},
                   std::int64_t{1} << 51,
                   {0x2ULL, 0x280808080808081ULL}});

  for (const Golden& g : cases) {
    const auto words = encode_index_set(std::span<const std::int64_t>(g.indices), g.extent);
    EXPECT_EQ(words, g.words) << g.name;
    EXPECT_EQ(decode_index_set(std::span<const std::uint64_t>(g.words), g.extent), g.indices)
        << g.name;
  }
}

TEST(FilterCompaction, MergeWalkMatchesBinarySearch) {
  // Sparse and dense samples against one filter: the dense ones stay in
  // the linear probe, the sparse ones gallop.
  Rng rng(515);
  std::vector<std::int64_t> filter;
  for (std::int64_t v = 0; v < 200000; ++v) {
    if (rng.bernoulli(0.3)) filter.push_back(v);
  }
  for (const double keep : {1.0, 0.5, 0.01, 0.0001}) {
    std::vector<std::int64_t> rows;
    for (std::int64_t v : filter) {
      if (rng.bernoulli(keep)) rows.push_back(v + 7);
    }
    std::vector<std::int64_t> want;
    for (std::int64_t v : rows) {
      want.push_back(std::lower_bound(filter.begin(), filter.end(), v - 7) - filter.begin());
    }
    EXPECT_EQ(compact_sorted_rows(filter, rows, 7), want) << "keep=" << keep;
  }
  const std::vector<std::int64_t> beyond = {filter.back() + 1};
  EXPECT_THROW((void)compact_sorted_rows(filter, beyond), std::logic_error);
  EXPECT_TRUE(compact_sorted_rows(filter, {}).empty());
}

TEST(SortedUnion, MergesAnyListCount) {
  for (std::size_t count : {0U, 1U, 2U, 3U, 5U, 16U, 17U}) {
    Rng rng(count);
    std::vector<std::vector<std::int64_t>> lists(count);
    std::set<std::int64_t> expected;
    for (auto& list : lists) {
      for (std::int64_t v = 0; v < 3000; ++v) {
        if (rng.bernoulli(0.02)) list.push_back(v);
      }
      expected.insert(list.begin(), list.end());
    }
    const std::vector<std::span<const std::int64_t>> views(lists.begin(), lists.end());
    EXPECT_EQ(sorted_union(views), std::vector<std::int64_t>(expected.begin(), expected.end()))
        << count << " lists";
  }
}

TEST_P(FilterTest, CompressedUnionMatchesRawBitForBit) {
  const int p = GetParam();
  // Two regimes per run: a dense-ish range (RLE territory) and an
  // isolated hypersparse tail (delta/list territory).
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const std::int64_t universe = 1 << 16;
    Rng rng(static_cast<std::uint64_t>(900 + comm.rank()));
    std::vector<std::int64_t> mine;
    for (std::int64_t v = 0; v < 2000; ++v) {
      if (rng.bernoulli(0.6)) mine.push_back(v);
    }
    for (std::int64_t v = 2000; v < universe; ++v) {
      if (rng.bernoulli(0.0005)) mine.push_back(v);
    }
    const auto raw = distributed_index_union(
        comm, std::span<const std::int64_t>(mine), universe, /*compress=*/false);
    const auto compressed = distributed_index_union(
        comm, std::span<const std::int64_t>(mine), universe, /*compress=*/true);
    EXPECT_EQ(compressed, raw);
  });
}

// ------------------------------------------------------------------- grid

TEST(ProcGrid, SquareGridCoordinates) {
  bsp::Runtime::run(4, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.layers(), 1);
    EXPECT_EQ(grid.active_ranks(), 4);
    EXPECT_TRUE(grid.active());
    EXPECT_EQ(grid.grid_row(), comm.rank() / 2);
    EXPECT_EQ(grid.grid_col(), comm.rank() % 2);
    EXPECT_EQ(grid.row_comm().size(), 2);
    EXPECT_EQ(grid.col_comm().size(), 2);
    EXPECT_EQ(grid.fiber_comm().size(), 1);
  });
}

TEST(ProcGrid, NonSquareLeavesRanksIdle) {
  bsp::Runtime::run(6, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.active_ranks(), 4);
    EXPECT_EQ(grid.active(), comm.rank() < 4);
  });
}

TEST(ProcGrid, ReplicatedGridSplitsLayers) {
  bsp::Runtime::run(8, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 2);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.layers(), 2);
    EXPECT_EQ(grid.active_ranks(), 8);
    EXPECT_EQ(grid.layer(), comm.rank() / 4);
    EXPECT_EQ(grid.fiber_comm().size(), 2);
    // fiber rank must equal the layer (reduction root is layer 0).
    EXPECT_EQ(grid.fiber_comm().rank(), grid.layer());
  });
}

TEST(ProcGrid, RejectsTooFewRanksForLayers) {
  bsp::Runtime::run(1, [](bsp::Comm& comm) {
    EXPECT_THROW(ProcGrid(comm, 2), std::invalid_argument);
  });
}

// --------------------------------------------------------- panel exchange

enum class OwnerMapKind { kSerial, kRing, kSumma };

struct ExchangeCase {
  int ranks;
  OwnerMapKind map;
  int layers;  // SUMMA replication c
};

void PrintTo(const ExchangeCase& c, std::ostream* os) {
  *os << "p=" << c.ranks << " map="
      << (c.map == OwnerMapKind::kSerial ? "serial"
                                         : c.map == OwnerMapKind::kRing ? "ring" : "summa")
      << " c=" << c.layers;
}

class PanelExchange : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(PanelExchange, ReceivedPanelMatchesReferenceBuild) {
  const ExchangeCase ec = GetParam();
  const std::int64_t h = 53;
  const std::int64_t n = 23;
  Rng rng(8080);
  std::vector<Triplet<std::uint64_t>> all;
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t c = 0; c < n; ++c) {
      if (rng.bernoulli(0.4)) all.push_back({r, c, rng() | 1});
    }
  }
  bsp::Runtime::run(ec.ranks, [&](bsp::Comm& comm) {
    const int p = comm.size();
    std::optional<ProcGrid> grid;
    PanelOwnerMap owners;
    switch (ec.map) {
      case OwnerMapKind::kSerial:
        owners = serial_owner_map(h, n);
        break;
      case OwnerMapKind::kRing:
        owners = ring_owner_map(h, n, p);
        break;
      case OwnerMapKind::kSumma:
        grid.emplace(comm, ec.layers);
        owners = summa_owner_map(h, n, *grid);
        break;
    }
    // Samples are owned cyclically, as pack_batch emits them.
    ColumnRuns runs;
    for (std::int64_t c = comm.rank(); c < n; c += p) {
      for (const auto& t : all) {
        if (t.col != c) continue;
        runs.rows.push_back(t.row);
        runs.masks.push_back(t.value);
      }
      runs.close_run(c);
    }
    const CsrPanel got = exchange_column_runs(comm, runs, owners);

    std::int64_t cell = -1;
    for (std::size_t k = 0; k < owners.owner.size(); ++k) {
      if (owners.owner[k] == comm.rank()) cell = static_cast<std::int64_t>(k);
    }
    if (cell < 0) {
      EXPECT_EQ(got.rows, 0);
      EXPECT_EQ(got.cols, 0);
      EXPECT_TRUE(got.empty());
      return;
    }
    const BlockRange chunk = block_range(
        h, owners.row_chunks, static_cast<int>(cell / owners.col_chunks));
    const BlockRange cols = block_range(
        n, owners.col_chunks, static_cast<int>(cell % owners.col_chunks));
    std::vector<Triplet<std::uint64_t>> local;
    for (const auto& t : all) {
      if (chunk.contains(t.row) && cols.contains(t.col)) {
        local.push_back({t.row - chunk.begin, t.col - cols.begin, t.value});
      }
    }
    const CsrPanel expected = CsrPanel::from_block(
        SparseBlock::from_triplets(chunk.size(), cols.size(), std::move(local)));
    EXPECT_EQ(got.rows, expected.rows);
    EXPECT_EQ(got.cols, expected.cols);
    EXPECT_EQ(got.row_ids, expected.row_ids);
    EXPECT_EQ(got.row_ptr, expected.row_ptr);
    EXPECT_EQ(got.col_idx, expected.col_idx);
    EXPECT_EQ(got.values, expected.values);
  });
}

INSTANTIATE_TEST_SUITE_P(
    OwnerMaps, PanelExchange,
    ::testing::Values(ExchangeCase{1, OwnerMapKind::kSerial, 1},
                      ExchangeCase{2, OwnerMapKind::kSerial, 1},
                      ExchangeCase{4, OwnerMapKind::kSerial, 1},
                      ExchangeCase{7, OwnerMapKind::kSerial, 1},
                      ExchangeCase{1, OwnerMapKind::kRing, 1},
                      ExchangeCase{2, OwnerMapKind::kRing, 1},
                      ExchangeCase{4, OwnerMapKind::kRing, 1},
                      ExchangeCase{7, OwnerMapKind::kRing, 1},
                      ExchangeCase{1, OwnerMapKind::kSumma, 1},
                      ExchangeCase{2, OwnerMapKind::kSumma, 1},
                      ExchangeCase{4, OwnerMapKind::kSumma, 1},
                      ExchangeCase{7, OwnerMapKind::kSumma, 1},
                      ExchangeCase{2, OwnerMapKind::kSumma, 2},
                      ExchangeCase{4, OwnerMapKind::kSumma, 2},
                      ExchangeCase{7, OwnerMapKind::kSumma, 2}));

TEST(PanelWire, RoundTripsDenseHypersparseSelectedAndEmpty) {
  const auto expect_same = [](const CsrPanel& a, const CsrPanel& b) {
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.row_ids, b.row_ids);
    EXPECT_EQ(a.row_ptr, b.row_ptr);
    EXPECT_EQ(a.col_idx, b.col_idx);
    EXPECT_EQ(a.values, b.values);
  };
  Rng rng(99);
  std::vector<Triplet<std::uint64_t>> dense;
  for (std::int64_t r = 0; r < 300; ++r) {
    for (std::int64_t c = 0; c < 9; ++c) {
      if (rng.bernoulli(0.7)) dense.push_back({r, c, rng()});
    }
  }
  const CsrPanel dense_panel = CsrPanel::from_block(SparseBlock::from_triplets(300, 9, dense));
  expect_same(decode_panel_wire(encode_panel_wire(dense_panel), 300, 9), dense_panel);

  // Row ids far past 2³² travel unnarrowed.
  const std::int64_t huge = std::int64_t{1} << 40;
  const std::vector<Triplet<std::uint64_t>> sparse{
      {3, 1, 5}, {(std::int64_t{1} << 33) + 7, 0, 9}, {huge - 1, 1, 2}};
  const CsrPanel sparse_panel = CsrPanel::from_triplets(huge, 2, sparse);
  expect_same(decode_panel_wire(encode_panel_wire(sparse_panel), huge, 2), sparse_panel);

  // Column selection keeps indices and drops rows left empty.
  std::vector<std::uint8_t> keep(9, 0);
  keep[2] = keep[7] = 1;
  std::vector<Triplet<std::uint64_t>> kept;
  for (const auto& t : dense) {
    if (keep[static_cast<std::size_t>(t.col)] != 0) kept.push_back(t);
  }
  expect_same(decode_panel_wire(encode_panel_wire(dense_panel, keep), 300, 9),
              CsrPanel::from_block(SparseBlock::from_triplets(300, 9, kept)));

  const CsrPanel empty = CsrPanel::from_block(SparseBlock{300, 9, {}});
  EXPECT_TRUE(encode_panel_wire(empty).empty());
  expect_same(decode_panel_wire({}, 300, 9), empty);
}

TEST(PanelWire, ColumnIndicesBeyond32BitsAreRejectedNotTruncated) {
  const std::vector<Triplet<std::uint64_t>> one{{0, 0, 1}};
  const CsrPanel wide = CsrPanel::from_triplets(1, std::int64_t{1} << 33, one);
  EXPECT_THROW((void)encode_panel_wire(wide), error::ConfigError);
}

// ----------------------------------------------------------------- spgemm

/// Dense brute-force AᵀA over the unpacked bit matrix.
std::vector<std::int64_t> dense_reference(const SparseBlock& block) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(block.cols * block.cols), 0);
  for (const auto& a : block.entries) {
    for (const auto& b : block.entries) {
      if (a.row != b.row) continue;
      out[static_cast<std::size_t>(a.col * block.cols + b.col)] +=
          popcount64(a.value & b.value);
    }
  }
  return out;
}

SparseBlock random_block(std::int64_t rows, std::int64_t cols, double density,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet<std::uint64_t>> entries;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) entries.push_back({r, c, rng()});
    }
  }
  return SparseBlock::from_triplets(rows, cols, std::move(entries));
}

TEST(Spgemm, KernelMatchesBruteForce) {
  const SparseBlock block = random_block(25, 13, 0.3, 99);
  const auto expected = dense_reference(block);
  const DenseBlock<std::int64_t> out = serial_ata(block);
  EXPECT_EQ(out.values, expected);
}

TEST(Spgemm, KernelHandlesDisjointRows) {
  // L and N share no rows -> zero output.
  SparseBlock l = SparseBlock::from_triplets(10, 4, {{0, 0, ~0ULL}, {2, 1, ~0ULL}});
  SparseBlock n = SparseBlock::from_triplets(10, 4, {{1, 0, ~0ULL}, {3, 2, ~0ULL}});
  DenseBlock<std::int64_t> out(BlockRange{0, 4}, BlockRange{0, 4});
  popcount_join_accumulate(l.entries, n.entries, 0, 0, out, nullptr);
  for (auto v : out.values) EXPECT_EQ(v, 0);
}

TEST(Spgemm, KernelRecordsFlops) {
  const SparseBlock block = random_block(16, 8, 0.5, 5);
  DenseBlock<std::int64_t> out(BlockRange{0, 8}, BlockRange{0, 8});
  bsp::CostCounters counters;
  popcount_join_accumulate(block.entries, block.entries, 0, 0, out, &counters);
  // Flops = Σ_rows nnz(row)², at least nnz when every row has one entry.
  EXPECT_GE(counters.flops, static_cast<std::uint64_t>(block.nnz()));
}

TEST(Spgemm, ColumnPopcountsSumBits) {
  SparseBlock block = SparseBlock::from_triplets(4, 3, {{0, 0, 0b111}, {1, 0, 0b1},
                                                        {2, 2, 0b1010}});
  std::vector<std::int64_t> acc(5, 0);
  accumulate_column_popcounts(CsrPanel::from_block(block), 1, acc);  // offset 1
  EXPECT_EQ(acc[1], 4);  // col 0: 3 + 1 bits
  EXPECT_EQ(acc[2], 0);
  EXPECT_EQ(acc[3], 2);  // col 2
}

struct ParallelCase {
  int ranks;
  int layers;
  bool use_ring;
};

class ParallelSpgemm : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelSpgemm, MatchesSerialReference) {
  const ParallelCase pc = GetParam();
  const std::int64_t h = 37;   // word rows
  const std::int64_t n = 19;   // samples
  const SparseBlock full = random_block(h, n, 0.35, 1234);
  const auto expected = dense_reference(full);

  std::vector<std::int64_t> got(static_cast<std::size_t>(n * n), 0);
  std::mutex got_mutex;
  bsp::Runtime::run(pc.ranks, [&](bsp::Comm& comm) {
    const int p = comm.size();
    std::vector<double> assembled;
    if (pc.use_ring) {
      // Column panels.
      const BlockRange my_cols = block_range(n, p, comm.rank());
      std::vector<Triplet<std::uint64_t>> mine;
      for (const auto& t : full.entries) {
        if (my_cols.contains(t.col)) mine.push_back({t.row, t.col - my_cols.begin, t.value});
      }
      SparseBlock panel{h, my_cols.size(), std::move(mine)};
      DenseBlock<std::int64_t> b_panel(my_cols, BlockRange{0, n});
      ring_ata_accumulate(comm, n, CsrPanel::from_block(panel), b_panel);
      DenseBlock<double> s(b_panel.row_range, b_panel.col_range);
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        s.values[i] = static_cast<double>(b_panel.values[i]);
      }
      assembled = gather_dense_to_root(comm, &s, n, n);
    } else {
      ProcGrid grid(comm, pc.layers);
      const int s = grid.side();
      const int c = grid.layers();
      std::optional<DenseBlock<std::int64_t>> b_block;
      std::optional<SparseBlock> my_block;
      if (grid.active()) {
        const int q = grid.layer() * s + grid.grid_row();
        const BlockRange chunk = block_range(h, s * c, q);
        const BlockRange cols = block_range(n, s, grid.grid_col());
        std::vector<Triplet<std::uint64_t>> mine;
        for (const auto& t : full.entries) {
          if (chunk.contains(t.row) && cols.contains(t.col)) {
            mine.push_back({t.row - chunk.begin, t.col - cols.begin, t.value});
          }
        }
        my_block = SparseBlock{chunk.size(), cols.size(), std::move(mine)};
        b_block.emplace(block_range(n, s, grid.grid_row()), cols);
        summa_ata_accumulate(grid, h, CsrPanel::from_block(*my_block), *b_block);
      }
      std::optional<DenseBlock<double>> s_block;
      if (grid.active() && grid.layer() == 0) {
        s_block.emplace(b_block->row_range, b_block->col_range);
        for (std::size_t i = 0; i < s_block->values.size(); ++i) {
          s_block->values[i] = static_cast<double>(b_block->values[i]);
        }
      }
      assembled =
          gather_dense_to_root(comm, s_block.has_value() ? &*s_block : nullptr, n, n);
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(got_mutex);
      for (std::size_t i = 0; i < assembled.size(); ++i) {
        got[i] = static_cast<std::int64_t>(assembled[i]);
      }
    }
  });
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParallelSpgemm,
    ::testing::Values(ParallelCase{1, 1, true}, ParallelCase{3, 1, true},
                      ParallelCase{6, 1, true}, ParallelCase{1, 1, false},
                      ParallelCase{4, 1, false}, ParallelCase{9, 1, false},
                      ParallelCase{8, 2, false}, ParallelCase{12, 3, false},
                      ParallelCase{7, 1, false}));

TEST(GatherDense, AssemblesBlocksOnRoot) {
  bsp::Runtime::run(4, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    DenseBlock<double> block(block_range(6, 2, grid.grid_row()),
                             block_range(6, 2, grid.grid_col()));
    for (std::int64_t i = 0; i < block.local_rows(); ++i) {
      for (std::int64_t j = 0; j < block.local_cols(); ++j) {
        block.at_local(i, j) = static_cast<double>((block.row_range.begin + i) * 6 +
                                                   block.col_range.begin + j);
      }
    }
    const auto full = gather_dense_to_root(comm, &block, 6, 6);
    if (comm.rank() == 0) {
      ASSERT_EQ(full.size(), 36u);
      for (std::size_t i = 0; i < 36; ++i) EXPECT_DOUBLE_EQ(full[i], static_cast<double>(i));
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

}  // namespace
}  // namespace sas::distmat
