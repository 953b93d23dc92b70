#include "distmat/panel_wire.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "distmat/block.hpp"
#include "distmat/dist_filter.hpp"
#include "util/error.hpp"

namespace sas::distmat {

namespace {

/// First word of every non-empty panel wire: ASCII "PANELWR1" in memory
/// order on little-endian hosts.
constexpr std::uint64_t kPanelWireMagic = 0x3152574C'454E4150ULL;
constexpr std::size_t kPanelHeaderWords = 4;
constexpr std::size_t kSliceHeaderWords = 3;
constexpr std::uint64_t kMax32 = 0xffffffffULL;

[[noreturn]] void corrupt_panel(const std::string& what) {
  throw error::CorruptInput("panel wire: " + what);
}

[[noreturn]] void corrupt_runs(const std::string& what) {
  throw error::CorruptInput("column-run message: " + what);
}

/// Words holding `count` uint32 halves.
std::size_t half_words(std::uint64_t count) {
  return static_cast<std::size_t>((count + 1) / 2);
}

std::uint32_t half_at(std::span<const std::uint64_t> words, std::size_t i) {
  return static_cast<std::uint32_t>(words[i / 2] >> ((i % 2) * 32));
}

void set_half(std::span<std::uint64_t> words, std::size_t i, std::uint64_t value) {
  words[i / 2] |= value << ((i % 2) * 32);
}

/// One decoded slice: its panel column, word-rows and masks.
struct Run {
  std::int64_t col = 0;
  std::vector<std::int64_t> rows;
  std::span<const std::uint64_t> masks;
};

}  // namespace

PanelOwnerMap serial_owner_map(std::int64_t rows, std::int64_t cols) {
  return PanelOwnerMap{rows, cols, 1, 1, {0}};
}

PanelOwnerMap ring_owner_map(std::int64_t rows, std::int64_t cols, int nranks) {
  PanelOwnerMap map{rows, cols, 1, nranks, {}};
  for (int r = 0; r < nranks; ++r) map.owner.push_back(r);
  return map;
}

PanelOwnerMap summa_owner_map(std::int64_t rows, std::int64_t cols, const ProcGrid& grid) {
  const int s = grid.side();
  PanelOwnerMap map{rows, cols, s * grid.layers(), s, {}};
  for (int q = 0; q < map.row_chunks; ++q) {
    for (int j = 0; j < s; ++j) map.owner.push_back(grid.world_rank_of(q / s, q % s, j));
  }
  return map;
}

std::vector<std::vector<std::uint64_t>> encode_column_runs(const ColumnRuns& runs,
                                                           const PanelOwnerMap& owners,
                                                           int nranks) {
  std::vector<BlockRange> chunks;
  for (int i = 0; i < owners.row_chunks; ++i) {
    chunks.push_back(block_range(owners.rows, owners.row_chunks, i));
  }
  std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(nranks));
  std::vector<std::int64_t> local;
  for (std::size_t r = 0; r < runs.runs(); ++r) {
    const std::int64_t col = runs.cols[r];
    if (col < 0 || col >= owners.cols) {
      throw std::invalid_argument("encode_column_runs: column outside [0, cols)");
    }
    const int j = block_owner(owners.cols, owners.col_chunks, col);
    const std::int64_t local_col = col - block_range(owners.cols, owners.col_chunks, j).begin;
    const auto begin = static_cast<std::size_t>(runs.ptr[r]);
    const auto end = static_cast<std::size_t>(runs.ptr[r + 1]);
    const std::int64_t* cut = runs.rows.data() + begin;
    const std::int64_t* const last = runs.rows.data() + end;
    for (int i = 0; i < owners.row_chunks; ++i) {
      const BlockRange& chunk = chunks[static_cast<std::size_t>(i)];
      const std::int64_t* const stop = std::lower_bound(cut, last, chunk.end);
      if (stop == cut) continue;
      local.assign(cut, stop);
      for (std::int64_t& row : local) row -= chunk.begin;
      // Validates ascending, unique, in-chunk rows (std::invalid_argument).
      const std::vector<std::uint64_t> set = encode_index_set(local, chunk.size());
      const auto at = static_cast<std::size_t>(cut - runs.rows.data());
      const auto count = static_cast<std::size_t>(stop - cut);
      auto& msg = out[static_cast<std::size_t>(
          owners.owner[static_cast<std::size_t>(i * owners.col_chunks + j)])];
      msg.push_back(static_cast<std::uint64_t>(local_col));
      msg.push_back(count);
      msg.push_back(set.size());
      msg.insert(msg.end(), set.begin(), set.end());
      msg.insert(msg.end(), runs.masks.begin() + static_cast<std::ptrdiff_t>(at),
                 runs.masks.begin() + static_cast<std::ptrdiff_t>(at + count));
      cut = stop;
    }
    if (cut != last) {
      throw std::invalid_argument("encode_column_runs: word-row outside [0, rows)");
    }
  }
  return out;
}

CsrPanel decode_column_runs(std::span<const std::vector<std::uint64_t>> messages,
                            std::int64_t rows, std::int64_t cols) {
  std::vector<Run> runs;
  std::vector<std::int64_t> run_of_col(static_cast<std::size_t>(cols), -1);
  for (const std::vector<std::uint64_t>& message : messages) {
    const std::span<const std::uint64_t> msg(message);
    for (std::size_t pos = 0; pos < msg.size();) {
      if (msg.size() - pos < kSliceHeaderWords) corrupt_runs("truncated slice header");
      const std::uint64_t col = msg[pos];
      const std::uint64_t count = msg[pos + 1];
      const std::uint64_t set_words = msg[pos + 2];
      pos += kSliceHeaderWords;
      if (col >= static_cast<std::uint64_t>(cols)) corrupt_runs("column out of range");
      auto& slot = run_of_col[static_cast<std::size_t>(col)];
      if (slot >= 0) corrupt_runs("column repeated");
      if (set_words > msg.size() - pos || count > msg.size() - pos - set_words) {
        corrupt_runs("truncated slice");
      }
      Run run;
      run.col = static_cast<std::int64_t>(col);
      run.rows = decode_index_set(msg.subspan(pos, static_cast<std::size_t>(set_words)), rows);
      pos += static_cast<std::size_t>(set_words);
      if (run.rows.size() != count) corrupt_runs("row count does not match its row set");
      run.masks = msg.subspan(pos, static_cast<std::size_t>(count));
      pos += static_cast<std::size_t>(count);
      slot = static_cast<std::int64_t>(runs.size());
      runs.push_back(std::move(run));
    }
  }

  CsrPanel panel;
  panel.rows = rows;
  panel.cols = cols;
  {
    std::vector<std::span<const std::int64_t>> lists;
    lists.reserve(runs.size());
    for (const Run& run : runs) lists.emplace_back(run.rows);
    panel.row_ids = sorted_union(lists);
  }
  // Each run's rows become positions in row_ids (the occupied-row index);
  // counting them per row gives the row pointers.
  panel.row_ptr.assign(panel.row_ids.size() + 1, 0);
  for (Run& run : runs) {
    run.rows = compact_sorted_rows(panel.row_ids, run.rows);
    for (const std::int64_t k : run.rows) ++panel.row_ptr[static_cast<std::size_t>(k) + 1];
  }
  for (std::size_t k = 1; k < panel.row_ptr.size(); ++k) {
    panel.row_ptr[k] += panel.row_ptr[k - 1];
  }
  // Scatter in ascending column order, so every row's columns come out
  // sorted without a comparison sort.
  std::vector<std::int64_t> cursor(panel.row_ptr.begin(), panel.row_ptr.end() - 1);
  panel.col_idx.resize(static_cast<std::size_t>(panel.row_ptr.back()));
  panel.values.resize(panel.col_idx.size());
  for (const std::int64_t r : run_of_col) {
    if (r < 0) continue;
    const Run& run = runs[static_cast<std::size_t>(r)];
    for (std::size_t e = 0; e < run.rows.size(); ++e) {
      const auto at = static_cast<std::size_t>(cursor[static_cast<std::size_t>(run.rows[e])]++);
      panel.col_idx[at] = run.col;
      panel.values[at] = run.masks[e];
    }
  }
  return panel;
}

CsrPanel exchange_column_runs(bsp::Comm& comm, ColumnRuns runs, const PanelOwnerMap& owners) {
  if (owners.owner.size() !=
      static_cast<std::size_t>(owners.row_chunks) * static_cast<std::size_t>(owners.col_chunks)) {
    throw std::invalid_argument("exchange_column_runs: owner table does not cover the cells");
  }
  std::vector<std::vector<std::uint64_t>> outgoing =
      encode_column_runs(runs, owners, comm.size());
  runs = ColumnRuns{};  // release the runs before the peers' slices arrive
  const std::vector<std::vector<std::uint64_t>> incoming = comm.alltoall_v(outgoing);
  outgoing.clear();

  std::int64_t cell = -1;
  for (std::size_t c = 0; c < owners.owner.size(); ++c) {
    if (owners.owner[c] != comm.rank()) continue;
    if (cell >= 0) {
      throw std::invalid_argument("exchange_column_runs: a rank may hold at most one cell");
    }
    cell = static_cast<std::int64_t>(c);
  }
  if (cell < 0) {
    for (const auto& block : incoming) {
      if (!block.empty()) corrupt_runs("slices sent to a rank that holds no cell");
    }
    return decode_column_runs({}, 0, 0);
  }
  const int i = static_cast<int>(cell / owners.col_chunks);
  const int j = static_cast<int>(cell % owners.col_chunks);
  return decode_column_runs(incoming, block_range(owners.rows, owners.row_chunks, i).size(),
                            block_range(owners.cols, owners.col_chunks, j).size());
}

std::vector<std::uint64_t> encode_panel_wire(const CsrPanel& panel,
                                             std::span<const std::uint8_t> keep_columns) {
  if (static_cast<std::uint64_t>(panel.cols) > kMax32) {
    throw error::ConfigError("panel wire: " + std::to_string(panel.cols) +
                             " panel columns exceed the 32-bit column index");
  }
  const bool select = !keep_columns.empty();
  const auto kept = [&](std::int64_t e) {
    return !select ||
           keep_columns[static_cast<std::size_t>(panel.col_idx[static_cast<std::size_t>(e)])] !=
               0;
  };
  // Pass 1: occupied rows and entry count of the kept columns.
  std::vector<std::int64_t> row_ids;
  std::vector<std::uint64_t> lengths;
  std::uint64_t nnz = 0;
  for (std::int64_t k = 0; k < panel.occupied(); ++k) {
    std::uint64_t length = 0;
    for (std::int64_t e = panel.row_begin(k); e < panel.row_end(k); ++e) length += kept(e);
    if (length == 0) continue;
    row_ids.push_back(panel.row_id(k));
    lengths.push_back(length);
    nnz += length;
  }
  if (nnz == 0) return {};

  const std::vector<std::uint64_t> set = encode_index_set(row_ids, panel.rows);
  std::vector<std::uint64_t> wire(kPanelHeaderWords + set.size() + half_words(lengths.size()) +
                                      half_words(nnz) + nnz,
                                  0);
  wire[0] = kPanelWireMagic;
  wire[1] = lengths.size();
  wire[2] = nnz;
  wire[3] = set.size();
  std::copy(set.begin(), set.end(), wire.begin() + kPanelHeaderWords);
  const std::span<std::uint64_t> body = std::span<std::uint64_t>(wire).subspan(
      kPanelHeaderWords + set.size());
  const std::span<std::uint64_t> length_words = body.first(half_words(lengths.size()));
  for (std::size_t k = 0; k < lengths.size(); ++k) set_half(length_words, k, lengths[k]);
  const std::span<std::uint64_t> col_words =
      body.subspan(length_words.size(), half_words(nnz));
  const std::span<std::uint64_t> masks = body.subspan(length_words.size() + col_words.size());
  std::size_t at = 0;
  for (std::int64_t k = 0; k < panel.occupied(); ++k) {
    for (std::int64_t e = panel.row_begin(k); e < panel.row_end(k); ++e) {
      if (!kept(e)) continue;
      set_half(col_words, at,
               static_cast<std::uint64_t>(panel.col_idx[static_cast<std::size_t>(e)]));
      masks[at++] = panel.values[static_cast<std::size_t>(e)];
    }
  }
  return wire;
}

CsrPanel decode_panel_wire(std::span<const std::uint64_t> wire, std::int64_t rows,
                           std::int64_t cols) {
  CsrPanel panel;
  panel.rows = rows;
  panel.cols = cols;
  if (wire.empty()) {
    panel.row_ptr.push_back(0);
    return panel;
  }
  if (wire.size() < kPanelHeaderWords) corrupt_panel("truncated header");
  if (wire[0] != kPanelWireMagic) corrupt_panel("bad magic in header word");
  const std::uint64_t occupied = wire[1];
  const std::uint64_t nnz = wire[2];
  const std::uint64_t set_words = wire[3];
  // Bound every count by the body size before any arithmetic on it.
  const std::uint64_t body = wire.size() - kPanelHeaderWords;
  if (occupied > body * 2 || nnz > body || set_words > body ||
      set_words + half_words(occupied) + half_words(nnz) + nnz != body) {
    corrupt_panel("section sizes do not match the wire length");
  }
  const std::span<const std::uint64_t> set =
      wire.subspan(kPanelHeaderWords, static_cast<std::size_t>(set_words));
  const std::span<const std::uint64_t> length_words =
      wire.subspan(kPanelHeaderWords + set.size(), half_words(occupied));
  const std::span<const std::uint64_t> col_words =
      wire.subspan(kPanelHeaderWords + set.size() + length_words.size(), half_words(nnz));
  const std::span<const std::uint64_t> masks = wire.last(static_cast<std::size_t>(nnz));

  panel.row_ids = decode_index_set(set, rows);
  if (panel.row_ids.size() != occupied) corrupt_panel("row count does not match its row set");
  panel.row_ptr.resize(panel.row_ids.size() + 1, 0);
  for (std::size_t k = 0; k < panel.row_ids.size(); ++k) {
    const std::uint32_t length = half_at(length_words, k);
    if (length == 0 || length > static_cast<std::uint64_t>(cols)) {
      corrupt_panel("row length out of range");
    }
    panel.row_ptr[k + 1] = panel.row_ptr[k] + length;
  }
  if (static_cast<std::uint64_t>(panel.row_ptr.back()) != nnz) {
    corrupt_panel("row lengths do not sum to the entry count");
  }
  panel.col_idx.resize(static_cast<std::size_t>(nnz));
  for (std::size_t k = 0; k < panel.row_ids.size(); ++k) {
    std::int64_t prev = -1;
    for (auto e = static_cast<std::size_t>(panel.row_ptr[k]);
         e < static_cast<std::size_t>(panel.row_ptr[k + 1]); ++e) {
      const std::int64_t col = half_at(col_words, e);
      if (col <= prev || col >= cols) corrupt_panel("column index out of order or range");
      panel.col_idx[e] = col;
      prev = col;
    }
  }
  panel.values.assign(masks.begin(), masks.end());
  return panel;
}

}  // namespace sas::distmat
