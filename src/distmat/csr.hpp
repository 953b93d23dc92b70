// csr.hpp — Compressed Sparse Row storage with byte accounting.
//
// The paper's bitmask argument (§III-B) is a *storage* argument: "In the
// CSR layout, the same amount of meta-data is necessary to store each
// 'row start' count. We reduce the latter overhead ... reducing the
// number of rows (and consequently row-start counts in the CSR
// representation) by b." CsrMatrix makes that claim measurable: it
// converts the canonical triplet form to CSR and reports exactly how
// many bytes go to row starts vs column indices vs values, which
// bench/ablation_bitmask reads off directly.
//
// Two CSR forms live here:
//   * CsrMatrix  — the general, accounting-oriented form (storage bytes,
//     row slicing, triplet round-trips) used by the §III-B ablation.
//   * CsrPanel   — the SpGEMM hot-path form of one panel of the bit-
//     packed indicator matrix: row starts indexed over occupied word-rows
//     and the column indices / word masks in two contiguous (SoA) arrays
//     that the tiled popcount kernel in spgemm.cpp streams. Panels are
//     built by the column-run exchange and travel between ranks as the
//     compressed panel wire (panel_wire.hpp); from_triplets/from_block
//     remain as the reference construction tests compare against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "distmat/sparse_block.hpp"
#include "distmat/triplet.hpp"

namespace sas::distmat {

template <typename T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from canonical triplets (sorted by (row, col), unique coords).
  static CsrMatrix from_triplets(std::int64_t rows, std::int64_t cols,
                                 std::span<const Triplet<T>> entries) {
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
    m.col_idx_.reserve(entries.size());
    m.values_.reserve(entries.size());
    for (const Triplet<T>& t : entries) {
      ++m.row_ptr_[static_cast<std::size_t>(t.row) + 1];
      m.col_idx_.push_back(t.col);
      m.values_.push_back(t.value);
    }
    for (std::size_t r = 1; r < m.row_ptr_.size(); ++r) {
      m.row_ptr_[r] += m.row_ptr_[r - 1];
    }
    return m;
  }

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(values_.size());
  }

  /// Column indices of row r.
  [[nodiscard]] std::span<const std::int64_t> row_columns(std::int64_t r) const {
    const auto begin = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
    const auto end = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
    return {col_idx_.data() + begin, end - begin};
  }

  /// Values of row r (parallel to row_columns(r)).
  [[nodiscard]] std::span<const T> row_values(std::int64_t r) const {
    const auto begin = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
    const auto end = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
    return {values_.data() + begin, end - begin};
  }

  /// Round-trip back to canonical triplets.
  [[nodiscard]] std::vector<Triplet<T>> to_triplets() const {
    std::vector<Triplet<T>> out;
    out.reserve(values_.size());
    for (std::int64_t r = 0; r < rows_; ++r) {
      const auto columns = row_columns(r);
      const auto vals = row_values(r);
      for (std::size_t i = 0; i < columns.size(); ++i) {
        out.push_back({r, columns[i], vals[i]});
      }
    }
    return out;
  }

  /// Storage accounting (the §III-B trade-off, in bytes).
  struct StorageBytes {
    std::uint64_t row_starts = 0;  ///< (rows+1) × 8 — what the bitmask divides by b
    std::uint64_t col_indices = 0; ///< nnz × 8
    std::uint64_t values = 0;      ///< nnz × sizeof(T)
    [[nodiscard]] std::uint64_t total() const noexcept {
      return row_starts + col_indices + values;
    }
  };

  [[nodiscard]] StorageBytes storage() const noexcept {
    StorageBytes s;
    s.row_starts = (static_cast<std::uint64_t>(rows_) + 1) * sizeof(std::int64_t);
    s.col_indices = static_cast<std::uint64_t>(nnz()) * sizeof(std::int64_t);
    s.values = static_cast<std::uint64_t>(nnz()) * sizeof(T);
    return s;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int64_t> col_idx_;
  std::vector<T> values_;
};

/// Column-major densified form of a CsrPanel over its first `words`
/// word-rows: column c occupies data[c·words, (c+1)·words) with absent
/// rows zero. Operand of the SpGEMM dense-block path, where every output
/// cell is one store-free streaming popcount dot product.
struct DenseColumnPanel {
  std::int64_t words = 0;
  std::vector<std::uint64_t> data;

  [[nodiscard]] const std::uint64_t* column(std::int64_t c) const noexcept {
    return data.data() + static_cast<std::size_t>(c * words);
  }
};

/// Read-optimized CSR panel of the bit-packed indicator matrix — the
/// operand format of the tiled SpGEMM kernel. Only OCCUPIED word-rows
/// are indexed (sorted row_ids + compact row_ptr): the unfiltered
/// hypersparse regime has nominal row spaces of 10¹²⁺ word-rows with a
/// few thousand occupied, so a dense rows+1 pointer array is neither
/// affordable nor useful. Invariants (inherited from the SparseBlock
/// canonical form): row_ids strictly increasing, column indices strictly
/// increasing within each row, values parallel to col_idx. Built once
/// per panel; the kernels only ever read it.
struct CsrPanel {
  std::int64_t rows = 0;  ///< nominal word-rows spanned by the panel
  std::int64_t cols = 0;  ///< sample columns spanned by the panel
  std::vector<std::int64_t> row_ids;    ///< occupied word-rows, ascending
  std::vector<std::int64_t> row_ptr;    ///< size row_ids.size()+1
  std::vector<std::int64_t> col_idx;    ///< size nnz, sorted within rows
  std::vector<std::uint64_t> values;    ///< size nnz, parallel to col_idx

  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(values.size());
  }
  [[nodiscard]] bool empty() const noexcept { return values.empty(); }

  /// Number of occupied word-rows.
  [[nodiscard]] std::int64_t occupied() const noexcept {
    return static_cast<std::int64_t>(row_ids.size());
  }
  /// Word-row id of the k-th occupied row.
  [[nodiscard]] std::int64_t row_id(std::int64_t k) const noexcept {
    return row_ids[static_cast<std::size_t>(k)];
  }
  /// Entry range of the k-th occupied row into col_idx/values.
  [[nodiscard]] std::int64_t row_begin(std::int64_t k) const noexcept {
    return row_ptr[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::int64_t row_end(std::int64_t k) const noexcept {
    return row_ptr[static_cast<std::size_t>(k) + 1];
  }
  [[nodiscard]] std::int64_t row_nnz(std::int64_t k) const noexcept {
    return row_end(k) - row_begin(k);
  }

  /// Exclusive bound on the occupied word-rows (row_ids.back() + 1, 0
  /// when empty) — the tight row space of a panel whose nominal height
  /// is looser, e.g. a SUMMA stage panel.
  [[nodiscard]] std::int64_t occupied_row_bound() const noexcept {
    return row_ids.empty() ? 0 : row_ids.back() + 1;
  }

  /// Build from canonical triplets (sorted by (row, col), unique coords,
  /// rows in [0, rows)). One pass; cost is O(nnz), independent of `rows`.
  [[nodiscard]] static CsrPanel from_triplets(std::int64_t rows, std::int64_t cols,
                                              std::span<const Triplet<std::uint64_t>> entries) {
    CsrPanel p;
    p.rows = rows;
    p.cols = cols;
    p.col_idx.reserve(entries.size());
    p.values.reserve(entries.size());
    for (const Triplet<std::uint64_t>& t : entries) {
      if (p.row_ids.empty() || p.row_ids.back() != t.row) {
        p.row_ids.push_back(t.row);
        p.row_ptr.push_back(static_cast<std::int64_t>(p.col_idx.size()));
      }
      p.col_idx.push_back(t.col);
      p.values.push_back(t.value);
    }
    p.row_ptr.push_back(static_cast<std::int64_t>(p.col_idx.size()));
    return p;
  }

  /// Build from a canonical SparseBlock.
  [[nodiscard]] static CsrPanel from_block(const SparseBlock& block) {
    return from_triplets(block.rows, block.cols,
                         std::span<const Triplet<std::uint64_t>>(block.entries));
  }

  /// Lazily densified column-major form over the first `words` word-rows,
  /// memoized so the loop-invariant L panel of the ring is densified once
  /// per batch rather than once per step (all ring panels share the same
  /// word-row space, so `words` is stable across steps). Not thread-safe:
  /// the SpGEMM kernel densifies before spawning its tile workers.
  [[nodiscard]] const DenseColumnPanel& dense_columns(std::int64_t words) const {
    if (dense_cache_.words != words || dense_cache_.data.empty()) {
      dense_cache_.words = words;
      dense_cache_.data.assign(static_cast<std::size_t>(words * cols), 0);
      for (std::int64_t k = 0; k < occupied(); ++k) {
        const std::int64_t r = row_id(k);
        if (r >= words) break;  // taller panel than the shared row space
        for (std::int64_t e = row_begin(k); e < row_end(k); ++e) {
          dense_cache_.data[static_cast<std::size_t>(
              col_idx[static_cast<std::size_t>(e)] * words + r)] =
              values[static_cast<std::size_t>(e)];
        }
      }
    }
    return dense_cache_;
  }

 private:
  mutable DenseColumnPanel dense_cache_;
};

}  // namespace sas::distmat
