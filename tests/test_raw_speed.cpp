// test_raw_speed.cpp — invariants of the raw-speed layer: the vectorized
// scatter kernels must be bit-identical to the scalar inline kernels on
// every alignment and segment length, the candidate pair union must equal
// the serial set union at every rank count, and the NUMA helpers must
// degrade gracefully on single-socket hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "bsp/runtime.hpp"
#include "distmat/dist_filter.hpp"
#include "util/numa.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

// ---- vectorized scatter vs the scalar inline kernels ---------------------

/// Random scatter problem: `count` unique accumulator slots (the CSR
/// contract — one entry per (word_row, sample) — is what makes the
/// AVX512 scatter conflict-free, so the generator must honour it).
struct ScatterProblem {
  std::vector<std::int64_t> cols;
  std::vector<std::uint64_t> vals;
  std::vector<std::int64_t> acc;
};

ScatterProblem make_problem(std::size_t count, std::size_t acc_n, Rng& rng) {
  ScatterProblem p;
  std::vector<std::int64_t> slots(acc_n);
  std::iota(slots.begin(), slots.end(), 0);
  for (std::size_t i = acc_n; i > 1; --i) {  // Fisher–Yates off our Rng
    std::swap(slots[i - 1], slots[rng.uniform(i)]);
  }
  p.cols.assign(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(count));
  for (std::size_t i = 0; i < count; ++i) p.vals.push_back(rng());
  for (std::size_t i = 0; i < acc_n; ++i) {
    p.acc.push_back(static_cast<std::int64_t>(rng.uniform(1000)));
  }
  return p;
}

TEST(ScatterDispatch, MatchesScalarAcrossLengthsAndOffsets) {
  Rng rng(2026);
  // Lengths straddle the 8-lane width (tails of every size) and offsets
  // misalign the cols/vals pointers relative to the allocation.
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 63, 100};
  for (const std::size_t count : lengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      ScatterProblem p = make_problem(count + offset, /*acc_n=*/256, rng);
      const std::uint64_t words[] = {~0ULL, 0x5555555555555555ULL, rng()};
      for (const std::uint64_t word : words) {
        std::vector<std::int64_t> scalar_acc = p.acc;
        std::vector<std::int64_t> vector_acc = p.acc;
        popcount_and_scatter(word, p.cols.data() + offset, p.vals.data() + offset,
                             count, scalar_acc.data());
        popcount_and_scatter_dispatch(word, p.cols.data() + offset,
                                      p.vals.data() + offset, count,
                                      vector_acc.data());
        EXPECT_EQ(scalar_acc, vector_acc)
            << "count=" << count << " offset=" << offset << " word=" << word;
      }
    }
  }
}

TEST(ScatterDispatch, FourRowVariantMatchesScalar) {
  Rng rng(77);
  for (const std::size_t count : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                                  std::size_t{13}, std::size_t{32}, std::size_t{50}}) {
    ScatterProblem p = make_problem(count, /*acc_n=*/128, rng);
    const std::uint64_t w0 = rng();
    const std::uint64_t w1 = rng();
    const std::uint64_t w2 = 0;  // all-zero row must be a no-op on acc2
    const std::uint64_t w3 = ~0ULL;
    std::vector<std::int64_t> s0 = p.acc, s1 = p.acc, s2 = p.acc, s3 = p.acc;
    std::vector<std::int64_t> v0 = p.acc, v1 = p.acc, v2 = p.acc, v3 = p.acc;
    popcount_and_scatter_4(w0, w1, w2, w3, p.cols.data(), p.vals.data(), count,
                           s0.data(), s1.data(), s2.data(), s3.data());
    popcount_and_scatter_4_dispatch(w0, w1, w2, w3, p.cols.data(), p.vals.data(),
                                    count, v0.data(), v1.data(), v2.data(), v3.data());
    EXPECT_EQ(s0, v0) << "count=" << count;
    EXPECT_EQ(s1, v1) << "count=" << count;
    EXPECT_EQ(s2, v2) << "count=" << count;
    EXPECT_EQ(s3, v3) << "count=" << count;
  }
}

TEST(ScatterDispatch, VectorizedProbeIsStable) {
  // Whatever the host supports, the answer must be consistent — the
  // crossover calibrator memoizes against it.
  EXPECT_EQ(popcount_scatter_vectorized(), popcount_scatter_vectorized());
}

// ---- candidate pair union: the serial set union at every rank count -----

TEST(PairUnion, MatchesSerialUnionAcrossRankCounts) {
  const auto contribute = [](int rank) {
    // Overlapping lists (neighbouring ranks share a stream) so the union
    // has duplicates to remove across ranks as well as within one.
    std::vector<std::uint64_t> mine;
    Rng rng(900 + static_cast<std::uint64_t>(rank) / 2);
    for (int i = 0; i < 40; ++i) mine.push_back(rng.uniform(512));
    return mine;
  };
  for (const int ranks : {1, 2, 3, 8}) {
    std::vector<std::uint64_t> expected;
    for (int r = 0; r < ranks; ++r) {
      const auto mine = contribute(r);
      expected.insert(expected.end(), mine.begin(), mine.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    bsp::Runtime::run(ranks, [&](bsp::Comm& comm) {
      const auto got = distmat::allreduce_pair_union(comm, contribute(comm.rank()));
      EXPECT_EQ(got, expected) << "ranks=" << ranks << " rank=" << comm.rank();
    });
  }
}

// ---- NUMA helpers: graceful on any host ----------------------------------

TEST(Numa, TopologyHasAtLeastOneNodeWithCpus) {
  const numa::Topology& topo = numa::topology();
  ASSERT_GE(topo.nodes.size(), 1u);
  for (const auto& node : topo.nodes) EXPECT_FALSE(node.cpus.empty());
  EXPECT_EQ(numa::node_count(), static_cast<int>(topo.nodes.size()));
}

TEST(Numa, WorkerAssignmentCoversAllNodesInOrder) {
  const int nodes = numa::node_count();
  for (const int workers : {1, 2, 7, 16}) {
    int prev = 0;
    for (int w = 0; w < workers; ++w) {
      const int node = numa::node_for_worker(w, workers);
      EXPECT_GE(node, 0);
      EXPECT_LT(node, nodes);
      EXPECT_GE(node, prev);  // monotone: contiguous worker blocks per node
      prev = node;
    }
    EXPECT_EQ(numa::node_for_worker(workers - 1, workers), nodes - 1);
  }
}

TEST(Numa, FirstTouchAndPinningAreSafeNoOps) {
  // On a single-socket host both are no-ops; on any host they must not
  // disturb the data or crash on tiny/unaligned buffers.
  std::vector<std::int64_t> panel(10000, 0);
  numa::first_touch_partitioned(panel.data(), panel.size() * sizeof(std::int64_t), 4);
  for (std::int64_t v : panel) EXPECT_EQ(v, 0);
  std::vector<std::int64_t> tiny(8, 7);
  numa::first_touch_partitioned(tiny.data(), tiny.size() * sizeof(std::int64_t), 2);
  for (std::int64_t v : tiny) EXPECT_EQ(v, 7);
  (void)numa::pin_to_node(0);  // must not throw whatever the host
  EXPECT_FALSE(numa::pin_to_node(-1));
  EXPECT_FALSE(numa::pin_to_node(numa::node_count()));
}

}  // namespace
}  // namespace sas
