// panel_wire.hpp — how the bit-packed indicator matrix Â⁽ˡ⁾ (paper Eq. 7)
// travels between ranks: column runs out of the pack stage, one exchange
// onto the owners' panels, and one compressed CsrPanel wire for every
// schedule hop. Nothing between pack_batch and the kernel holds
// (row, col, mask) triplets, and nothing is sorted by comparison.
//
// == Column runs and the exchange =========================================
//
// pack_batch emits each of the rank's samples as one column run: the
// sample id, its ascending word-row ids and their masks. An owner map
// cuts the h × n matrix into row_chunks × col_chunks cells (near-equal
// block_range partitions) and names the rank holding each cell; every
// rank holds at most one. exchange_column_runs cuts each run at the
// owners' word-row chunk boundaries with lower_bound and ships every
// non-empty slice to its owner inside one alltoall_v message per peer:
//
//   slice = [column − col_chunk.begin, count, E,
//            encode_index_set(rows − row_chunk.begin, chunk height)  (E words),
//            masks (count words)]
//
// The row set rides the same codec as the zero-row filter (dist_filter
// .hpp): a dense column compresses toward 1 bit per word-row (word-RLE),
// a hypersparse one takes delta-varint gaps. The receiver builds its
// CsrPanel in three sort-free steps: sorted_union over the runs' row
// lists gives the occupied rows, compact_sorted_rows maps each run onto
// them, and a counting scatter in ascending column order fills the rows.
// A sample is read by exactly one rank (cyclic ownership), so a column
// arrives at most once per receiver; a repeated column is corruption.
//
// == The panel wire ========================================================
//
// Every SUMMA transpose and broadcast, ring rotation and targeted
// alltoall moves a CsrPanel as one word vector:
//
//   [kPanelWireMagic, occupied, nnz, E,
//    encode_index_set(row_ids, rows)        E words
//    row lengths, uint32 × occupied         ⌈occupied/2⌉ words
//    column indices, uint32 × nnz           ⌈nnz/2⌉ words
//    masks, uint64 × nnz                    nnz words]
//
// uint32 halves pack low half first. An empty panel is the empty vector.
// Extents the receiver already knows — the row bound and the column
// count — stay off the wire: the decoder takes them as arguments and
// throws error::CorruptInput on any structural damage (bad magic, size
// mismatch, row id or column index out of range, unsorted columns, row
// lengths that do not sum to nnz). Row ids are never narrowed (an
// unfiltered k = 21 word-row chunk holds ~2³³ rows); column indices and
// row lengths are, and encode_panel_wire checks them against 32 bits
// instead of truncating. Mask bits carry no checksum: a flipped mask bit
// decodes to a valid panel with a different popcount.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/csr.hpp"
#include "distmat/proc_grid.hpp"

namespace sas::distmat {

/// One rank's packed entries of Â⁽ˡ⁾ as column runs: run r is global
/// sample cols[r], with ascending global word-rows rows[ptr[r], ptr[r+1])
/// and their masks (parallel to rows).
struct ColumnRuns {
  std::vector<std::int64_t> cols;
  std::vector<std::int64_t> ptr{0};  ///< size cols.size() + 1
  std::vector<std::int64_t> rows;
  std::vector<std::uint64_t> masks;

  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(masks.size());
  }
  [[nodiscard]] std::size_t runs() const noexcept { return cols.size(); }
  /// Bytes the runs occupy (what the memory budget is charged).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return (cols.size() + ptr.size() + rows.size()) * sizeof(std::int64_t) +
           masks.size() * sizeof(std::uint64_t);
  }
  /// Close the run being appended as column `col` (entries pushed since
  /// the previous close). Empty runs are dropped.
  void close_run(std::int64_t col) {
    if (static_cast<std::int64_t>(rows.size()) == ptr.back()) return;
    cols.push_back(col);
    ptr.push_back(static_cast<std::int64_t>(rows.size()));
  }
};

/// Cells of the h × n matrix and the rank that holds each: cell (i, j)
/// spans word-rows block_range(rows, row_chunks, i) and samples
/// block_range(cols, col_chunks, j); owner[i·col_chunks + j] is its rank.
struct PanelOwnerMap {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  int row_chunks = 1;
  int col_chunks = 1;
  std::vector<int> owner;
};

/// Everything on rank 0 (the serial schedule).
[[nodiscard]] PanelOwnerMap serial_owner_map(std::int64_t rows, std::int64_t cols);
/// Column panel r of block_range(cols, nranks, r) on rank r (the ring).
[[nodiscard]] PanelOwnerMap ring_owner_map(std::int64_t rows, std::int64_t cols,
                                           int nranks);
/// SUMMA blocks: rank (ℓ, i, j) holds word-row chunk ℓ·s + i of s·c ×
/// column chunk j of s.
[[nodiscard]] PanelOwnerMap summa_owner_map(std::int64_t rows, std::int64_t cols,
                                            const ProcGrid& grid);

/// Sender side of the exchange: one message per rank of `nranks` holding
/// this rank's slices for that rank's cell. Throws std::invalid_argument
/// if a run lies outside [0, rows) × [0, cols) or is not ascending.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> encode_column_runs(
    const ColumnRuns& runs, const PanelOwnerMap& owners, int nranks);

/// Receiver side: the panel of a rows × cols cell from every peer's
/// message. Throws error::CorruptInput on damaged messages.
[[nodiscard]] CsrPanel decode_column_runs(
    std::span<const std::vector<std::uint64_t>> messages, std::int64_t rows,
    std::int64_t cols);

/// Collective over `comm`: route `runs` to their owners (one alltoall_v)
/// and return this rank's cell as a CsrPanel with cell-local row and
/// column ids (rows = chunk height, cols = chunk width), or an empty
/// 0 × 0 panel if this rank holds no cell.
[[nodiscard]] CsrPanel exchange_column_runs(bsp::Comm& comm, ColumnRuns runs,
                                            const PanelOwnerMap& owners);

/// Encode `panel` as a panel wire (layout above). With `keep_columns`
/// (one flag per panel column), only flagged columns are encoded; their
/// indices are unchanged. Throws error::ConfigError when a column index
/// or row length does not fit 32 bits.
[[nodiscard]] std::vector<std::uint64_t> encode_panel_wire(
    const CsrPanel& panel, std::span<const std::uint8_t> keep_columns = {});

/// Decode a panel wire into a rows × cols CsrPanel. Throws
/// error::CorruptInput naming the panel wire on structural damage.
[[nodiscard]] CsrPanel decode_panel_wire(std::span<const std::uint64_t> wire,
                                         std::int64_t rows, std::int64_t cols);

}  // namespace sas::distmat
