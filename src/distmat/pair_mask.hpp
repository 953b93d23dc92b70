// pair_mask.hpp — candidate-pair masks (the hybrid's candidate set), in a
// dense and a sparse representation behind one probing interface.
//
// The sketch-prune pass of the hybrid estimator (core/driver.hpp stage
// diagram) marks every pair whose estimated Jaccard clears the prune
// threshold; the exact rescore pass then consults the mask at three
// granularities:
//
//   * column level  — a sample with no surviving off-diagonal pair is
//                     dropped before packing (its panel entries
//                     never enter the network);
//   * panel level   — the targeted 1D exchange ships a panel column to a
//                     peer only when the mask pairs it with one of that
//                     peer's output rows (spgemm.hpp);
//   * tile level    — the CSR kernel skips output-column tiles whose
//                     pair set is fully pruned (CsrAtaOptions::prune).
//
// == Dense vs sparse ======================================================
//
// PairMask is a plain row-major n×n bitset replicated on every rank —
// n²/8 bytes, which is fine for thousands of samples (~2 MB at n = 4096)
// but quadratic: ~312 MB at n = 50k and growing past any single-rank
// budget at the "millions of samples" scale the ROADMAP targets.
// SparsePairMask is the CSR-of-pairs alternative: one sorted column list
// per row (diagonal and both directions of every pair stored, so the
// probes need no mirroring), 8 bytes per stored entry plus the row
// pointers.
//
// The crossover is storage parity, sparse_pair_mask_wins(): the sparse
// form is selected when its entry words (n diagonal + 2·pairs) fit in
// the dense bitset's word budget (n · ⌈n/64⌉), i.e. when fewer than
// ~n/128 candidate partners survive per sample on average. The LSH
// candidate pass (sketch/exchange.hpp) applies it automatically; the
// all-pairs pass always builds dense (it scored all n² pairs anyway and
// only runs at small n — Config::lsh_min_samples and the candidate-mode
// notes in core/config.hpp document the knobs).
//
// CandidateMask wraps either representation behind the shared probe set
// (test / any_pair / row_active / active_columns / count) with one
// branch per probe — no virtual dispatch on the kernel hot path.
//
// The diagonal is always set: self-similarity is exact by convention and
// never pruned. Dense masks are replicated by allreduce_pair_mask
// (dist_filter.hpp, a bitwise word-OR); sparse masks by
// allreduce_pair_union (a sorted union merge of packed pair lists).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "distmat/block.hpp"
#include "util/popcount.hpp"

namespace sas::distmat {

namespace detail {

/// In-place transpose of a 64×64 bit block, m[r] bit c = element (r, c)
/// (LSB-first). Recursive block swap (Hacker's Delight 7-3, mirrored for
/// the LSB-first bit order): at width s, every aligned 2s×2s block swaps
/// its top-right s×s sub-block with its bottom-left one.
inline void transpose_64x64(std::uint64_t m[64]) noexcept {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (int s = 32; s != 0; s >>= 1, mask ^= mask << s) {
    for (int r = 0; r < 64; r = (r + s + 1) & ~s) {
      const std::uint64_t t = ((m[r] >> s) ^ m[r + s]) & mask;
      m[r] ^= t << s;
      m[r + s] ^= t;
    }
  }
}

}  // namespace detail

class PairMask {
 public:
  PairMask() = default;

  /// All-clear n×n mask: no bits set yet, not even the diagonal (the
  /// candidate passes set it explicitly).
  explicit PairMask(std::int64_t n)
      : n_(n), words_per_row_((n + 63) / 64) {
    // n · words_per_row_ grows as n²/64: guard the multiplication before
    // it wraps (n ≈ 2^34 would already overflow the byte count).
    if (n_ > 0 &&
        words_per_row_ > static_cast<std::int64_t>(
                             std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t)) /
                             n_) {
      throw std::length_error("PairMask: n * words_per_row overflows");
    }
    words_.assign(static_cast<std::size_t>(n_ * words_per_row_), 0);
  }

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  void set(std::int64_t i, std::int64_t j) noexcept {
    words_[word_index(i, j)] |= std::uint64_t{1} << (j & 63);
  }

  [[nodiscard]] bool test(std::int64_t i, std::int64_t j) const noexcept {
    return (words_[word_index(i, j)] >> (j & 63)) & 1u;
  }

  /// Number of set pairs (diagonal included).
  [[nodiscard]] std::int64_t count() const noexcept {
    std::int64_t total = 0;
    for (std::uint64_t w : words_) total += popcount64(w);
    return total;
  }

  /// Any candidate in the [rows × cols] tile? This is the kernel's skip
  /// probe: O(rows · cols/64) word scans with edge masks, negligible next
  /// to the multiply work a non-skipped tile implies.
  [[nodiscard]] bool any_pair(BlockRange rows, BlockRange cols) const noexcept {
    if (rows.size() <= 0 || cols.size() <= 0) return false;
    const std::int64_t wb = cols.begin >> 6;
    const std::int64_t we = (cols.end - 1) >> 6;  // inclusive
    const std::uint64_t first_mask = ~std::uint64_t{0} << (cols.begin & 63);
    const std::uint64_t last_mask =
        ~std::uint64_t{0} >> (63 - ((cols.end - 1) & 63));
    for (std::int64_t i = rows.begin; i < rows.end; ++i) {
      const std::uint64_t* const row = words_.data() + i * words_per_row_;
      for (std::int64_t w = wb; w <= we; ++w) {
        std::uint64_t bits = row[w];
        if (w == wb) bits &= first_mask;
        if (w == we) bits &= last_mask;
        if (bits != 0) return true;
      }
    }
    return false;
  }

  /// Does sample i have any surviving partner other than itself?
  [[nodiscard]] bool row_active(std::int64_t i) const noexcept {
    const std::uint64_t* const row = words_.data() + i * words_per_row_;
    const std::uint64_t diag_bit = std::uint64_t{1} << (i & 63);
    for (std::int64_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t bits = row[w];
      if (w == (i >> 6)) bits &= ~diag_bit;
      if (bits != 0) return true;
    }
    return false;
  }

  /// Per-sample activity flags (row_active for every sample) — the
  /// column-dropping predicate of the rescore pass.
  [[nodiscard]] std::vector<std::uint8_t> active_columns() const {
    std::vector<std::uint8_t> active(static_cast<std::size_t>(n_), 0);
    for (std::int64_t i = 0; i < n_; ++i) {
      active[static_cast<std::size_t>(i)] = row_active(i) ? 1 : 0;
    }
    return active;
  }

  /// Make the mask symmetric: mask ∨ maskᵀ. Estimates are symmetric, so
  /// this is a safety net for fp-identical but differently-owned entries.
  /// Runs on 64×64 bit blocks (load both mirror blocks, transpose, OR) —
  /// O(n²/64) word operations, not the O(n²) per-bit loop it replaces.
  void symmetrize() noexcept {
    const std::int64_t blocks = words_per_row_;  // == ⌈n/64⌉ block rows too
    std::uint64_t a[64];
    std::uint64_t b[64];
    for (std::int64_t bi = 0; bi < blocks; ++bi) {
      const std::int64_t rows_a = std::min<std::int64_t>(64, n_ - bi * 64);
      for (std::int64_t bj = bi; bj < blocks; ++bj) {
        const std::int64_t rows_b = std::min<std::int64_t>(64, n_ - bj * 64);
        // a = block(bi, bj), b = block(bj, bi); ghost rows (≥ n) read as 0
        // and are never written back.
        for (std::int64_t r = 0; r < 64; ++r) {
          a[r] = r < rows_a ? words_[word_index_block(bi * 64 + r, bj)] : 0;
          b[r] = r < rows_b ? words_[word_index_block(bj * 64 + r, bi)] : 0;
        }
        detail::transpose_64x64(a);
        detail::transpose_64x64(b);
        // block(bi, bj) |= block(bj, bi)ᵀ and vice versa. After the two
        // transposes, a holds block(bi, bj)ᵀ and b holds block(bj, bi)ᵀ.
        for (std::int64_t r = 0; r < rows_a; ++r) {
          words_[word_index_block(bi * 64 + r, bj)] |= b[r];
        }
        for (std::int64_t r = 0; r < rows_b; ++r) {
          words_[word_index_block(bj * 64 + r, bi)] |= a[r];
        }
      }
    }
  }

  /// Raw word storage (row-major, words_per_row() words per row) — the
  /// allreduce payload of allreduce_pair_mask.
  [[nodiscard]] std::vector<std::uint64_t>& words() noexcept { return words_; }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::int64_t words_per_row() const noexcept { return words_per_row_; }

 private:
  [[nodiscard]] std::size_t word_index(std::int64_t i, std::int64_t j) const noexcept {
    return static_cast<std::size_t>(i * words_per_row_ + (j >> 6));
  }
  [[nodiscard]] std::size_t word_index_block(std::int64_t i, std::int64_t wj) const noexcept {
    return static_cast<std::size_t>(i * words_per_row_ + wj);
  }

  std::int64_t n_ = 0;
  std::int64_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// CSR-of-pairs candidate mask: per row, the sorted list of candidate
/// partners (diagonal and both pair directions stored). Same probe set
/// and semantics as the dense PairMask at 8 bytes per stored entry —
/// the replicated-footprint winner whenever fewer than ~n/128 partners
/// survive per sample (sparse_pair_mask_wins documents the crossover).
class SparsePairMask {
 public:
  SparsePairMask() = default;

  /// Mask over n samples from packed OFF-DIAGONAL upper pairs (i < j,
  /// pack_pair format; any order, duplicates tolerated). The diagonal and
  /// the mirrored (j, i) entries are added automatically.
  SparsePairMask(std::int64_t n, std::span<const std::uint64_t> packed_upper_pairs)
      : n_(n) {
    std::vector<std::uint64_t> entries;
    entries.reserve(static_cast<std::size_t>(n) + 2 * packed_upper_pairs.size());
    for (std::int64_t i = 0; i < n; ++i) {
      entries.push_back(pack_pair_unchecked(i, i));
    }
    for (std::uint64_t packed : packed_upper_pairs) {
      const auto [i, j] = unpack_pair(packed);
      if (i < 0 || j <= i || j >= n) {
        throw std::invalid_argument("SparsePairMask: pair out of range");
      }
      entries.push_back(pack_pair_unchecked(i, j));
      entries.push_back(pack_pair_unchecked(j, i));
    }
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

    row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
    cols_.reserve(entries.size());
    for (std::uint64_t packed : entries) {
      const auto [i, j] = unpack_pair(packed);
      ++row_ptr_[static_cast<std::size_t>(i) + 1];
      cols_.push_back(j);
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
      row_ptr_[r + 1] += row_ptr_[r];
    }
  }

  /// (i, j) packed into one word, i in the high half — sorting packed
  /// pairs sorts by (i, j). Indices must fit 31 bits: a mask at n ≥ 2³¹
  /// exceeds any replicated budget long before this packing binds.
  [[nodiscard]] static std::uint64_t pack_pair(std::int64_t i, std::int64_t j) {
    if (i < 0 || j < 0 || i >= kMaxIndex || j >= kMaxIndex) {
      throw std::invalid_argument("SparsePairMask::pack_pair: index exceeds 31 bits");
    }
    return pack_pair_unchecked(i, j);
  }

  [[nodiscard]] static std::pair<std::int64_t, std::int64_t> unpack_pair(
      std::uint64_t packed) noexcept {
    return {static_cast<std::int64_t>(packed >> 32),
            static_cast<std::int64_t>(packed & 0xffffffffULL)};
  }

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  [[nodiscard]] bool test(std::int64_t i, std::int64_t j) const noexcept {
    const auto [begin, end] = row_span(i);
    return std::binary_search(begin, end, j);
  }

  /// Stored entries (diagonal + both directions) — matches the dense
  /// count() (set bits) exactly.
  [[nodiscard]] std::int64_t count() const noexcept {
    return static_cast<std::int64_t>(cols_.size());
  }

  [[nodiscard]] bool any_pair(BlockRange rows, BlockRange cols) const noexcept {
    if (rows.size() <= 0 || cols.size() <= 0) return false;
    for (std::int64_t i = rows.begin; i < rows.end; ++i) {
      const auto [begin, end] = row_span(i);
      const auto it = std::lower_bound(begin, end, cols.begin);
      if (it != end && *it < cols.end) return true;
    }
    return false;
  }

  [[nodiscard]] bool row_active(std::int64_t i) const noexcept {
    const auto [begin, end] = row_span(i);
    const std::int64_t deg = end - begin;
    return deg > 1 || (deg == 1 && *begin != i);
  }

  [[nodiscard]] std::vector<std::uint8_t> active_columns() const {
    std::vector<std::uint8_t> active(static_cast<std::size_t>(n_), 0);
    for (std::int64_t i = 0; i < n_; ++i) {
      active[static_cast<std::size_t>(i)] = row_active(i) ? 1 : 0;
    }
    return active;
  }

  [[nodiscard]] std::span<const std::int64_t> row(std::int64_t i) const noexcept {
    const auto [begin, end] = row_span(i);
    return {begin, static_cast<std::size_t>(end - begin)};
  }

 private:
  static constexpr std::int64_t kMaxIndex = std::int64_t{1} << 31;

  [[nodiscard]] static std::uint64_t pack_pair_unchecked(std::int64_t i,
                                                         std::int64_t j) noexcept {
    return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
  }

  [[nodiscard]] std::pair<const std::int64_t*, const std::int64_t*> row_span(
      std::int64_t i) const noexcept {
    return {cols_.data() + row_ptr_[static_cast<std::size_t>(i)],
            cols_.data() + row_ptr_[static_cast<std::size_t>(i) + 1]};
  }

  std::int64_t n_ = 0;
  std::vector<std::int64_t> row_ptr_;  ///< n + 1 prefix offsets into cols_
  std::vector<std::int64_t> cols_;     ///< sorted partners per row (diag incl.)
};

/// Storage-parity crossover of the candidate pass: the sparse CSR form
/// (one 8-byte entry per diagonal + pair direction) is selected when it
/// is no larger than the dense bitset (n · ⌈n/64⌉ words), i.e. below
/// ~n/128 surviving partners per sample.
[[nodiscard]] inline bool sparse_pair_mask_wins(std::int64_t n,
                                               std::int64_t upper_pairs) noexcept {
  const std::int64_t words_per_row = (n + 63) / 64;
  return n + 2 * upper_pairs <= n * words_per_row;
}

/// Either candidate-mask representation behind the shared probe set. One
/// predictable branch per probe — cheap enough for the kernel tile probe
/// and the dense path's per-cell test.
class CandidateMask {
 public:
  CandidateMask() = default;
  explicit CandidateMask(PairMask dense) : dense_(std::move(dense)), sparse_(false) {}
  explicit CandidateMask(SparsePairMask sparse)
      : sparse_mask_(std::move(sparse)), sparse_(true) {}

  [[nodiscard]] bool is_sparse() const noexcept { return sparse_; }
  [[nodiscard]] const PairMask& dense() const {
    if (sparse_) throw std::logic_error("CandidateMask: not dense");
    return dense_;
  }
  [[nodiscard]] const SparsePairMask& sparse() const {
    if (!sparse_) throw std::logic_error("CandidateMask: not sparse");
    return sparse_mask_;
  }

  [[nodiscard]] std::int64_t size() const noexcept {
    return sparse_ ? sparse_mask_.size() : dense_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] bool test(std::int64_t i, std::int64_t j) const noexcept {
    return sparse_ ? sparse_mask_.test(i, j) : dense_.test(i, j);
  }
  [[nodiscard]] std::int64_t count() const noexcept {
    return sparse_ ? sparse_mask_.count() : dense_.count();
  }
  [[nodiscard]] bool any_pair(BlockRange rows, BlockRange cols) const noexcept {
    return sparse_ ? sparse_mask_.any_pair(rows, cols) : dense_.any_pair(rows, cols);
  }
  [[nodiscard]] bool row_active(std::int64_t i) const noexcept {
    return sparse_ ? sparse_mask_.row_active(i) : dense_.row_active(i);
  }
  [[nodiscard]] std::vector<std::uint8_t> active_columns() const {
    return sparse_ ? sparse_mask_.active_columns() : dense_.active_columns();
  }

  /// Visit every masked off-diagonal pair (i, j) with i ∈ rows, j ∈ cols
  /// and i < j, in (i, j) order. Restricting to i < j means a pair is
  /// visited by exactly ONE block of any disjoint block cover of the
  /// matrix (the mirrored cell (j, i) fails the test in its block) —
  /// this is the survivor-gather walk: each owning rank emits its
  /// block's surviving (i, j, value) triplets and the concatenation
  /// covers every survivor exactly once. O(rows · cols/64) dense,
  /// O(Σᵢ log + hits) sparse.
  template <typename Visitor>
  void for_each_pair_in(BlockRange rows, BlockRange cols, Visitor&& visit) const {
    const std::int64_t n = size();
    const BlockRange r{std::max<std::int64_t>(rows.begin, 0), std::min(rows.end, n)};
    const BlockRange c{std::max<std::int64_t>(cols.begin, 0), std::min(cols.end, n)};
    if (r.size() <= 0 || c.size() <= 0) return;
    if (sparse_) {
      for (std::int64_t i = r.begin; i < r.end; ++i) {
        const auto row = sparse_mask_.row(i);
        const auto begin = std::lower_bound(row.data(), row.data() + row.size(),
                                            std::max(c.begin, i + 1));
        for (const std::int64_t* it = begin; it != row.data() + row.size(); ++it) {
          if (*it >= c.end) break;
          visit(i, *it);
        }
      }
      return;
    }
    const std::int64_t wpr = dense_.words_per_row();
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      const std::int64_t jb = std::max(c.begin, i + 1);
      if (jb >= c.end) continue;
      const std::uint64_t* const row = dense_.words().data() + i * wpr;
      const std::int64_t wb = jb >> 6;
      const std::int64_t we = (c.end - 1) >> 6;  // inclusive
      for (std::int64_t w = wb; w <= we; ++w) {
        std::uint64_t bits = row[w];
        if (w == wb) bits &= ~std::uint64_t{0} << (jb & 63);
        if (w == we && ((c.end - 1) & 63) != 63) {
          bits &= ~std::uint64_t{0} >> (63 - ((c.end - 1) & 63));
        }
        while (bits != 0) {
          const std::int64_t j = (w << 6) + std::countr_zero(bits);
          bits &= bits - 1;
          visit(i, j);
        }
      }
    }
  }

  /// Visit every off-diagonal candidate pair (i, j) with i < j, in
  /// (i, j) order. O(n²/64 + candidates) dense, O(candidates + n) sparse
  /// — the analysis-side walk (analysis::candidate_pairs).
  template <typename Visitor>
  void for_each_upper_pair(Visitor&& visit) const {
    const std::int64_t n = size();
    if (sparse_) {
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j : sparse_mask_.row(i)) {
          if (j > i) visit(i, j);
        }
      }
      return;
    }
    const std::int64_t wpr = dense_.words_per_row();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* const row = dense_.words().data() + i * wpr;
      for (std::int64_t w = (i + 1) >> 6; w < wpr; ++w) {
        std::uint64_t bits = row[w];
        if (w == ((i + 1) >> 6)) bits &= ~std::uint64_t{0} << ((i + 1) & 63);
        while (bits != 0) {
          const std::int64_t j = (w << 6) + std::countr_zero(bits);
          bits &= bits - 1;
          if (j < n) visit(i, j);
        }
      }
    }
  }

 private:
  PairMask dense_;
  SparsePairMask sparse_mask_;
  bool sparse_ = false;
};

}  // namespace sas::distmat
