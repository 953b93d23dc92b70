#include "distmat/spgemm.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bsp/tags.hpp"
#include "distmat/crossover.hpp"
#include "distmat/panel_wire.hpp"
#include "obs/trace.hpp"
#include "util/numa.hpp"
#include "util/popcount.hpp"

namespace sas::distmat {

void popcount_join_accumulate(std::span<const Triplet<std::uint64_t>> L,
                              std::span<const Triplet<std::uint64_t>> N,
                              std::int64_t l_col_base, std::int64_t n_col_base,
                              DenseBlock<std::int64_t>& out,
                              bsp::CostCounters* counters) {
  const std::int64_t stride = out.local_cols();
  std::int64_t* const values = out.values.data();
  std::uint64_t flops = 0;

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < L.size() && j < N.size()) {
    const std::int64_t lr = L[i].row;
    const std::int64_t nr = N[j].row;
    if (lr < nr) {
      while (i < L.size() && L[i].row == lr) ++i;
    } else if (nr < lr) {
      while (j < N.size() && N[j].row == nr) ++j;
    } else {
      std::size_t ie = i;
      while (ie < L.size() && L[ie].row == lr) ++ie;
      std::size_t je = j;
      while (je < N.size() && N[je].row == lr) ++je;
      for (std::size_t a = i; a < ie; ++a) {
        const std::int64_t out_row = l_col_base + L[a].col;
        const std::uint64_t wa = L[a].value;
        std::int64_t* const row_values = values + out_row * stride + n_col_base;
        for (std::size_t b = j; b < je; ++b) {
          row_values[N[b].col] += popcount64(wa & N[b].value);
        }
      }
      flops += static_cast<std::uint64_t>(ie - i) * static_cast<std::uint64_t>(je - j);
      i = ie;
      j = je;
    }
  }
  if (counters != nullptr) counters->flops += flops;
}

namespace {

/// Word-rows present in both panels — a two-pointer merge over the two
/// sorted occupied-row lists, O(occupied_L + occupied_N) regardless of
/// the nominal row space (which is ~10¹² in the unfiltered hypersparse
/// regime) — plus the exact multiply work they imply (Σ nnz_L·nnz_N over
/// matches; every (a, b) pair is processed exactly once across all tiles
/// and threads, so this is the γ contribution).
struct CommonRow {
  std::int64_t l_index;  ///< occupied-row index into L
  std::int64_t n_index;  ///< occupied-row index into N
};

struct CommonRows {
  std::vector<CommonRow> rows;
  std::uint64_t flops = 0;
};

CommonRows find_common_rows(const CsrPanel& L, const CsrPanel& N) {
  CommonRows common;
  std::int64_t kl = 0;
  std::int64_t kn = 0;
  while (kl < L.occupied() && kn < N.occupied()) {
    const std::int64_t lr = L.row_id(kl);
    const std::int64_t nr = N.row_id(kn);
    if (lr < nr) {
      ++kl;
    } else if (nr < lr) {
      ++kn;
    } else {
      common.rows.push_back({kl, kn});
      common.flops += static_cast<std::uint64_t>(L.row_nnz(kl)) *
                      static_cast<std::uint64_t>(N.row_nnz(kn));
      ++kl;
      ++kn;
    }
  }
  return common;
}

/// Accumulate the contribution of N columns [col_begin, col_end) into
/// `out`, tile by tile. Per-row cursors start at the first N entry with
/// column ≥ col_begin (one binary search per common row) and advance
/// monotonically through the row, so each N entry in the range is
/// visited exactly once regardless of the tile width. Thread-safe for
/// disjoint column ranges: all writes land in out columns
/// [n_col_base + col_begin, n_col_base + col_end).
///
/// With a candidate-pair mask (`prune`), tiles whose [out rows × tile
/// cols] pair set is fully pruned are skipped (cursors still advance so
/// later tiles stay aligned). Returns the multiply flops actually
/// performed — equal to the tile's share of CommonRows::flops when
/// nothing is skipped — plus the tile visit/skip tallies. The tallies
/// ride back by value because this runs on kernel worker threads, which
/// are unbound (obs::current() is null there); the caller aggregates
/// them onto the rank thread's observer.
struct RangeResult {
  std::uint64_t flops = 0;
  std::uint64_t tiles_visited = 0;
  std::uint64_t tiles_skipped = 0;
};

RangeResult accumulate_column_range(const CsrPanel& L, const CsrPanel& N,
                                    std::span<const CommonRow> common_rows,
                                    std::int64_t l_col_base, std::int64_t n_col_base,
                                    std::int64_t col_begin, std::int64_t col_end,
                                    std::int64_t tile_cols,
                                    DenseBlock<std::int64_t>& out,
                                    const CandidateMask* prune) {
  const std::int64_t* const ncols = N.col_idx.data();
  const std::uint64_t* const nvals = N.values.data();
  const std::int64_t* const lcols = L.col_idx.data();
  const std::uint64_t* const lvals = L.values.data();
  const BlockRange out_rows{out.row_range.begin + l_col_base,
                            out.row_range.begin + l_col_base + L.cols};
  const std::int64_t gcol_base = out.col_range.begin + n_col_base;
  RangeResult result;

  std::vector<std::int64_t> cursor(common_rows.size());
  for (std::size_t idx = 0; idx < common_rows.size(); ++idx) {
    const std::int64_t k = common_rows[idx].n_index;
    cursor[idx] = std::lower_bound(ncols + N.row_begin(k), ncols + N.row_end(k),
                                   col_begin) -
                  ncols;
  }

  for (std::int64_t tile = col_begin; tile < col_end; tile += tile_cols) {
    const std::int64_t tile_end = std::min(col_end, tile + tile_cols);
    const bool skip_tile =
        prune != nullptr &&
        !prune->any_pair(out_rows, {gcol_base + tile, gcol_base + tile_end});
    if (skip_tile) {
      ++result.tiles_skipped;
    } else {
      ++result.tiles_visited;
    }
    for (std::size_t idx = 0; idx < common_rows.size(); ++idx) {
      const std::int64_t b = cursor[idx];
      const std::int64_t row_end = N.row_end(common_rows[idx].n_index);
      std::int64_t e = b;
      while (e < row_end && ncols[e] < tile_end) ++e;
      cursor[idx] = e;
      const auto count = static_cast<std::size_t>(e - b);
      if (count == 0 || skip_tile) continue;
      const std::int64_t la = L.row_begin(common_rows[idx].l_index);
      const std::int64_t le = L.row_end(common_rows[idx].l_index);
      result.flops +=
          static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(le - la);
      // Register-block four L entries per pass: each (col, mask) of the
      // N segment is loaded once and scattered into four output rows.
      // The _dispatch entries resolve to the AVX512 gather/scatter body
      // where the per-TU VPOPCNTQ flag is live (see popcount_scatter.cpp)
      // and to the inline scalar kernels otherwise.
      std::int64_t a = la;
      for (; a + 4 <= le; a += 4) {
        auto* const acc0 = out.row_data(l_col_base + lcols[a]) + n_col_base;
        auto* const acc1 = out.row_data(l_col_base + lcols[a + 1]) + n_col_base;
        auto* const acc2 = out.row_data(l_col_base + lcols[a + 2]) + n_col_base;
        auto* const acc3 = out.row_data(l_col_base + lcols[a + 3]) + n_col_base;
        popcount_and_scatter_4_dispatch(lvals[a], lvals[a + 1], lvals[a + 2],
                                        lvals[a + 3], ncols + b, nvals + b, count, acc0,
                                        acc1, acc2, acc3);
      }
      for (; a < le; ++a) {
        std::int64_t* const acc = out.row_data(l_col_base + lcols[a]) + n_col_base;
        popcount_and_scatter_dispatch(lvals[a], ncols + b, nvals + b, count, acc);
      }
    }
  }
  return result;
}

/// Dense path worker: every output cell (i, j) for j in [j_begin, j_end)
/// is one streaming popcount dot product — no scatter stores, so the
/// kernel runs at vector popcount throughput instead of the one
/// store-per-madd ceiling of the scatter loop. The unpruned path runs
/// 2×2 register tiles (popcount_and_sum_stream_2x2): four output cells
/// per pass over two L and two N columns, so each mask word is loaded
/// once per TWO cells instead of once per cell — half the load traffic
/// of the scalar loop at identical (integer) results; the scalar loop
/// remains for edges and is the reference the micro_kernels bench
/// compares against. With a candidate mask, pruned cells are skipped per
/// cell (the mask test is one load against a words-long popcount
/// stream), so the pruned path stays scalar. Returns the streaming
/// word-madds actually performed (the dense path's flop unit under
/// pruning).
std::uint64_t dense_accumulate_range(const DenseColumnPanel& ld, std::int64_t l_cols,
                                     const DenseColumnPanel& nd, std::int64_t j_begin,
                                     std::int64_t j_end, std::int64_t l_col_base,
                                     std::int64_t n_col_base,
                                     DenseBlock<std::int64_t>& out,
                                     const CandidateMask* prune) {
  const std::int64_t words = ld.words;
  const std::int64_t grow_base = out.row_range.begin + l_col_base;
  const std::int64_t gcol_base = out.col_range.begin + n_col_base;
  std::uint64_t cells = 0;
  if (prune == nullptr) {
    std::int64_t i = 0;
    for (; i + 2 <= l_cols; i += 2) {
      const std::uint64_t* const lcol0 = ld.column(i);
      const std::uint64_t* const lcol1 = ld.column(i + 1);
      std::int64_t* const row0 = out.row_data(l_col_base + i) + n_col_base;
      std::int64_t* const row1 = out.row_data(l_col_base + i + 1) + n_col_base;
      std::int64_t j = j_begin;
      for (; j + 2 <= j_end; j += 2) {
        std::uint64_t sums[4];
        popcount_and_sum_stream_2x2(lcol0, lcol1, nd.column(j), nd.column(j + 1),
                                    static_cast<std::size_t>(words), sums);
        row0[j] += static_cast<std::int64_t>(sums[0]);
        row0[j + 1] += static_cast<std::int64_t>(sums[1]);
        row1[j] += static_cast<std::int64_t>(sums[2]);
        row1[j + 1] += static_cast<std::int64_t>(sums[3]);
      }
      for (; j < j_end; ++j) {
        row0[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol0, nd.column(j), static_cast<std::size_t>(words)));
        row1[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol1, nd.column(j), static_cast<std::size_t>(words)));
      }
    }
    for (; i < l_cols; ++i) {
      const std::uint64_t* const lcol = ld.column(i);
      std::int64_t* const row = out.row_data(l_col_base + i) + n_col_base;
      for (std::int64_t j = j_begin; j < j_end; ++j) {
        row[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol, nd.column(j), static_cast<std::size_t>(words)));
      }
    }
    return static_cast<std::uint64_t>(l_cols) *
           static_cast<std::uint64_t>(j_end - j_begin) *
           static_cast<std::uint64_t>(words);
  }
  for (std::int64_t i = 0; i < l_cols; ++i) {
    const std::uint64_t* const lcol = ld.column(i);
    std::int64_t* const row = out.row_data(l_col_base + i) + n_col_base;
    for (std::int64_t j = j_begin; j < j_end; ++j) {
      if (!prune->test(grow_base + i, gcol_base + j)) continue;
      ++cells;
      row[j] += static_cast<std::int64_t>(
          popcount_and_sum_stream(lcol, nd.column(j), static_cast<std::size_t>(words)));
    }
  }
  return cells * static_cast<std::uint64_t>(words);
}

/// Sparse/dense crossover on the product of panel fill ratios. The dense
/// path does words·colsL·colsN word-madds where the scatter path does
/// fillL·fillN·words·colsL·colsN, so dense wins when fillL·fillN exceeds
/// the (scatter rate / stream rate) ratio. The threshold is micro-
/// calibrated at startup on this machine (distmat/crossover.hpp) unless
/// the caller pins one through CsrAtaOptions::dense_crossover.
[[nodiscard]] bool dense_path_profitable(const CsrPanel& L, const CsrPanel& N,
                                         std::int64_t words, double crossover_override) {
  if (words <= 0 || L.cols <= 0 || N.cols <= 0) return false;
  // Densified panels must stay modest: 32 MiB of words at the default cap.
  if (words * (L.cols + N.cols) > (std::int64_t{1} << 22)) return false;
  const double fill_l =
      static_cast<double>(L.nnz()) / (static_cast<double>(words) * static_cast<double>(L.cols));
  const double fill_n =
      static_cast<double>(N.nnz()) / (static_cast<double>(words) * static_cast<double>(N.cols));
  const double crossover =
      crossover_override > 0.0 ? crossover_override : calibrated_dense_crossover();
  return fill_l * fill_n >= crossover;
}

}  // namespace

void csr_popcount_ata_accumulate(const CsrPanel& L, const CsrPanel& N,
                                 std::int64_t l_col_base, std::int64_t n_col_base,
                                 DenseBlock<std::int64_t>& out,
                                 bsp::CostCounters* counters,
                                 const CsrAtaOptions& options) {
  if (L.empty() || N.empty()) return;
  // Whole-block prune probe: with a candidate mask, a block whose entire
  // [out rows × out cols] pair set is pruned never touches the CSR data.
  const CandidateMask* const prune = options.prune;
  if (prune != nullptr &&
      !prune->any_pair({out.row_range.begin + l_col_base,
                        out.row_range.begin + l_col_base + L.cols},
                       {out.col_range.begin + n_col_base,
                        out.col_range.begin + n_col_base + N.cols})) {
    if (obs::RankObserver* o = obs::current()) {
      o->add_counter("spgemm.blocks_skipped", 1);
    }
    return;
  }
  const CommonRows common = find_common_rows(L, N);
  if (common.rows.empty()) return;
  // γ accounting: without pruning every (a, b) pair of the common rows is
  // processed, so CommonRows::flops is exact and cheap. Under pruning the
  // workers report the work actually performed (the dense path counts
  // streaming word-madds — its natural unit — instead of scatter madds).
  std::uint64_t flops_done = 0;

  const std::int64_t words = std::min(L.rows, N.rows);
  const bool use_dense = options.allow_dense &&
                         dense_path_profitable(L, N, words, options.dense_crossover);

  const std::int64_t tile_cols = options.tile_cols > 0 ? options.tile_cols : kAtaTileCols;
  const std::int64_t ntiles = (N.cols + tile_cols - 1) / tile_cols;
  const int threads =
      (options.threads > 1 && common.flops >= kAtaThreadMinFlops)
          ? static_cast<int>(std::min<std::int64_t>(options.threads,
                                                    use_dense ? N.cols : ntiles))
          : 1;

  if (use_dense) {
    // Memoized on the panels: the ring's loop-invariant L side densifies
    // once per batch, and L ≡ N (serial_ata, the diagonal ring step)
    // reuses one densification.
    const DenseColumnPanel& ld = L.dense_columns(words);
    const DenseColumnPanel& nd = N.dense_columns(words);
    if (threads <= 1) {
      flops_done = dense_accumulate_range(ld, L.cols, nd, 0, N.cols, l_col_base,
                                          n_col_base, out, prune);
    } else {
      std::vector<std::thread> workers;
      std::vector<std::uint64_t> worker_flops(static_cast<std::size_t>(threads), 0);
      workers.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        const BlockRange js = block_range(N.cols, threads, t);
        if (js.size() <= 0) continue;
        workers.emplace_back([&, js, t] {
          if (options.numa_aware) numa::pin_to_node(numa::node_for_worker(t, threads));
          worker_flops[static_cast<std::size_t>(t)] =
              dense_accumulate_range(ld, L.cols, nd, js.begin, js.end, l_col_base,
                                     n_col_base, out, prune);
        });
      }
      for (std::thread& w : workers) w.join();
      for (std::uint64_t f : worker_flops) flops_done += f;
    }
    if (counters != nullptr) {
      counters->flops += prune != nullptr ? flops_done : common.flops;
    }
    return;
  }

  const std::span<const CommonRow> rows(common.rows);
  RangeResult tally;
  if (threads <= 1) {
    tally = accumulate_column_range(L, N, rows, l_col_base, n_col_base, 0, N.cols,
                                    tile_cols, out, prune);
  } else {
    // Tiles are disjoint output-column ranges; hand each worker a
    // contiguous run of whole tiles so no accumulator slot is shared.
    // Worker threads are unbound (no rank observer); their tile tallies
    // return by value and are folded in here, on the rank thread. The
    // worker→tile block assignment matches numa::node_for_worker, so a
    // pinned worker scatters into the panel slice its socket first-touched
    // (see the driver's multiply stage).
    std::vector<std::thread> workers;
    std::vector<RangeResult> worker_results(static_cast<std::size_t>(threads));
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      const BlockRange tiles = block_range(ntiles, threads, t);
      const std::int64_t col_begin = tiles.begin * tile_cols;
      const std::int64_t col_end = std::min(N.cols, tiles.end * tile_cols);
      if (col_begin >= col_end) continue;
      workers.emplace_back([&, col_begin, col_end, t] {
        if (options.numa_aware) numa::pin_to_node(numa::node_for_worker(t, threads));
        worker_results[static_cast<std::size_t>(t)] =
            accumulate_column_range(L, N, rows, l_col_base, n_col_base, col_begin,
                                    col_end, tile_cols, out, prune);
      });
    }
    for (std::thread& w : workers) w.join();
    for (const RangeResult& wr : worker_results) {
      tally.flops += wr.flops;
      tally.tiles_visited += wr.tiles_visited;
      tally.tiles_skipped += wr.tiles_skipped;
    }
  }
  flops_done = tally.flops;
  if (obs::RankObserver* o = obs::current()) {
    o->add_counter("spgemm.tiles_visited", tally.tiles_visited);
    if (tally.tiles_skipped > 0) {
      o->add_counter("spgemm.tiles_skipped", tally.tiles_skipped);
    }
  }
  if (counters != nullptr) {
    counters->flops += prune != nullptr ? flops_done : common.flops;
  }
}

DenseBlock<std::int64_t> serial_ata(const SparseBlock& block) {
  DenseBlock<std::int64_t> out(BlockRange{0, block.cols}, BlockRange{0, block.cols});
  const CsrPanel panel = CsrPanel::from_block(block);
  csr_popcount_ata_accumulate(panel, panel, 0, 0, out, nullptr);
  return out;
}

void ring_ata_accumulate(bsp::Comm& comm, std::int64_t n, const CsrPanel& my_panel,
                         DenseBlock<std::int64_t>& b_panel, RingSchedule schedule,
                         const CsrAtaOptions& options) {
  const int p = comm.size();
  const int r = comm.rank();
  constexpr int kTagRing = bsp::tags::kSpgemmRing;

  if (b_panel.col_range.begin != 0 || b_panel.col_range.end != n) {
    throw std::invalid_argument("ring_ata_accumulate: b_panel must span all n columns");
  }

  // The own panel is the L side of every step and the N side of step 0;
  // its wire is encoded once and then only forwarded wires travel.
  std::vector<std::uint64_t> current;
  if (p > 1) current = encode_panel_wire(my_panel);
  int current_owner = r;
  for (int step = 0; step < p; ++step) {
    // Plain span (no drift prediction): the hop interleaves with the
    // local multiply, so α-β time would not be comparable.
    const obs::Span hop("ring/step", "ring", &comm.counters());
    const bool last_step = step + 1 == p;
    // Double buffering: post the rotation send *before* the multiply.
    // Sends are buffered copies, so `current` stays valid for the local
    // decode and the neighbour's transfer completes while we compute.
    if (!last_step && schedule == RingSchedule::kOverlapped) {
      comm.send<std::uint64_t>((r + 1) % p, kTagRing, std::span<const std::uint64_t>(current));
    }

    const BlockRange owner_cols = block_range(n, p, current_owner);
    // With a candidate mask, a panel whose owner shares no surviving pair
    // with this rank's output rows is forwarded without being decoded.
    const bool panel_pruned =
        options.prune != nullptr &&
        !options.prune->any_pair(b_panel.row_range, owner_cols);
    if (!panel_pruned) {
      CsrPanel received;
      const CsrPanel* npanel = &my_panel;
      if (current_owner != r) {
        received = decode_panel_wire(current, my_panel.rows, owner_cols.size());
        npanel = &received;
      }
      csr_popcount_ata_accumulate(my_panel, *npanel, 0, owner_cols.begin, b_panel,
                                  &comm.counters(), options);
    }

    if (last_step) break;
    if (schedule == RingSchedule::kSynchronous) {
      comm.send<std::uint64_t>((r + 1) % p, kTagRing, std::span<const std::uint64_t>(current));
    }
    current = comm.recv<std::uint64_t>((r + p - 1) % p, kTagRing);
    current_owner = (current_owner + p - 1) % p;
  }
}

void targeted_ata_accumulate(bsp::Comm& comm, std::int64_t n,
                             const CsrPanel& my_panel, const CandidateMask& mask,
                             DenseBlock<std::int64_t>& b_panel,
                             const CsrAtaOptions& options) {
  const int p = comm.size();
  const int r = comm.rank();
  const obs::Span stage_span("targeted-ata", "multiply", &comm.counters());
  if (b_panel.col_range.begin != 0 || b_panel.col_range.end != n) {
    throw std::invalid_argument(
        "targeted_ata_accumulate: b_panel must span all n columns");
  }
  const BlockRange my_cols = b_panel.row_range;

  // Diagonal block: local data, mask diagonal is always set.
  csr_popcount_ata_accumulate(my_panel, my_panel, 0, my_cols.begin, b_panel,
                              &comm.counters(), options);

  // Column-targeted exchange: peer q needs this rank's column j (global
  // id my_cols.begin + j) iff the mask pairs it with one of q's output
  // rows. Each needed column is shipped to each needing peer exactly
  // once, so total bytes track the surviving pair structure instead of
  // the ring's everything-to-everyone Θ(z·(p−1)).
  std::vector<std::vector<std::uint64_t>> outgoing(static_cast<std::size_t>(p));
  std::vector<std::uint8_t> needed(static_cast<std::size_t>(my_panel.cols));
  for (int q = 0; q < p; ++q) {
    if (q == r) continue;
    const BlockRange q_rows = block_range(n, p, q);
    bool any = false;
    for (std::int64_t j = 0; j < my_panel.cols; ++j) {
      const std::int64_t gj = my_cols.begin + j;
      needed[static_cast<std::size_t>(j)] =
          mask.any_pair(q_rows, {gj, gj + 1}) ? 1 : 0;
      any = any || needed[static_cast<std::size_t>(j)] != 0;
    }
    if (!any) continue;
    outgoing[static_cast<std::size_t>(q)] = encode_panel_wire(my_panel, needed);
  }
  const auto incoming = comm.alltoall_v(outgoing);

  for (int q = 0; q < p; ++q) {
    if (q == r || incoming[static_cast<std::size_t>(q)].empty()) continue;
    const BlockRange q_cols = block_range(n, p, q);
    const CsrPanel npanel =
        decode_panel_wire(incoming[static_cast<std::size_t>(q)], my_panel.rows, q_cols.size());
    csr_popcount_ata_accumulate(my_panel, npanel, 0, q_cols.begin, b_panel,
                                &comm.counters(), options);
  }
}

void summa_ata_accumulate(ProcGrid& grid, std::int64_t word_rows, CsrPanel my_block,
                          DenseBlock<std::int64_t>& b_accum,
                          const CsrAtaOptions& options) {
  if (!grid.active()) {
    throw std::logic_error("summa_ata_accumulate: called by an inactive rank");
  }
  const int s = grid.side();
  // Stage panels are compared on their tight row bounds (see the header).
  my_block.rows = my_block.occupied_row_bound();

  // With replication (c > 1), each layer sums into a scratch partial that
  // is reduced onto layer 0 at the end of the batch (paper §III-C: "one
  // needs a reduction to sum the contributions ... for each layer").
  DenseBlock<std::int64_t> partial;
  const bool replicated = grid.layers() > 1;
  if (replicated) partial = DenseBlock<std::int64_t>(b_accum.row_range, b_accum.col_range);
  DenseBlock<std::int64_t>& target = replicated ? partial : b_accum;

  // Mask-aware stage gating: with a candidate mask, a sample block whose
  // members all have NO surviving off-diagonal partner contributes
  // nothing anywhere — its samples were column-dropped by the driver
  // (they were never packed) and their diagonals fall back to the
  // J(∅, ∅) = 1 convention. The per-sample activity flags
  // are replicated (the mask is), so every rank reaches the same verdict
  // and the collectives stay aligned: the L-side transpose + row
  // broadcast of an inactive OUTPUT-ROW block and the N-side column
  // broadcast of an inactive OUTPUT-COLUMN block are skipped entirely —
  // the stage loop no longer visits every grid row/col when the mask is
  // block-sparse. Sender and receiver of a transpose hop evaluate the
  // same block (the sender's column chunk IS the receiver's row chunk),
  // so no message is ever posted without its matching receive.
  std::vector<std::uint8_t> active;
  if (options.prune != nullptr) active = options.prune->active_columns();
  const auto block_active = [&](BlockRange range) {
    if (options.prune == nullptr) return true;
    for (std::int64_t i = range.begin; i < range.end; ++i) {
      if (active[static_cast<std::size_t>(i)] != 0) return true;
    }
    return false;
  };
  const bool my_rows_active = block_active(b_accum.row_range);
  const bool my_cols_active = block_active(b_accum.col_range);

  // The own block's wire feeds this rank's transpose hop and its column
  // broadcast, both gated on my_cols_active.
  std::vector<std::uint64_t> my_wire;
  if (my_cols_active) my_wire = encode_panel_wire(my_block);
  // A received stage panel: decoded once against its chunk height, then
  // narrowed to its tight row bound like the own block.
  const auto decode_stage = [&](std::span<const std::uint64_t> wire, int k,
                                std::int64_t cols) {
    const BlockRange chunk = block_range(word_rows, s * grid.layers(), grid.layer() * s + k);
    CsrPanel panel = decode_panel_wire(wire, chunk.size(), cols);
    panel.rows = panel.occupied_row_bound();
    return panel;
  };

  // (1) Transpose exchange: owner (ℓ, k, i) ships R(ℓ·s+k, i) to (ℓ, i, k).
  // Sends are posted one stage AHEAD of the multiply that consumes them
  // (stage 0 before the loop, stage k+1 before stage k's local work):
  // bsp sends are buffered copies and the per-stage tags keep them
  // ordered, so the stage-k+1 transpose hop completes while stage k
  // multiplies — the same overlap the ring schedule gets from double
  // buffering. Diagonal ranks send to themselves; the hop is kept so
  // every rank performs the same sequence of operations.
  const auto post_transpose = [&](int k) {
    // my_cols_active gates on the RECEIVER's output-row block: the
    // receiver (ℓ, grid_col, k) has grid_row == this rank's grid_col,
    // and row chunks equal column chunks on the square grid.
    if (grid.grid_row() == k && my_cols_active) {
      const int dest = grid.world_rank_of(grid.layer(), grid.grid_col(), k);
      grid.world().send<std::uint64_t>(dest, bsp::tags::summa_transpose(k),
                                       std::span<const std::uint64_t>(my_wire));
    }
  };
  post_transpose(0);

  for (int k = 0; k < s; ++k) {
    // Per-stage span; the inner broadcasts are Comm collectives and book
    // their own drift samples, so this span stays prediction-free.
    const obs::Span stage("summa/stage", "summa", &grid.world().counters());
    if (k + 1 < s) post_transpose(k + 1);
    std::vector<std::uint64_t> lbuf;
    bool l_own = false;
    if (grid.grid_col() == k && my_rows_active) {
      const int source = grid.world_rank_of(grid.layer(), k, grid.grid_row());
      lbuf = grid.world().recv<std::uint64_t>(source, bsp::tags::summa_transpose(k));
      l_own = source == grid.world().rank();
    }
    // (2) L-side broadcast along the grid row (root = grid column k).
    // All ranks of one grid row share the same output-row block, so the
    // skip verdict is uniform along the communicator.
    if (my_rows_active) grid.row_comm().broadcast(lbuf, k);
    // (3) N-side broadcast along the grid column (root = grid row k);
    // uniform verdict along the column, which shares the output-col block.
    const bool n_own = grid.grid_row() == k;
    std::vector<std::uint64_t> nbuf;
    if (my_cols_active) grid.col_comm().broadcast(n_own ? my_wire : nbuf, k);
    if (!my_rows_active || !my_cols_active) continue;
    // (4) Local multiply-accumulate. Both panels are slices of chunk
    // ℓ·s+k, so they share a row space; the kernel intersects them.
    CsrPanel lpanel;
    CsrPanel npanel;
    if (!l_own) lpanel = decode_stage(lbuf, k, target.row_range.size());
    if (!n_own) npanel = decode_stage(nbuf, k, target.col_range.size());
    csr_popcount_ata_accumulate(l_own ? my_block : lpanel, n_own ? my_block : npanel, 0, 0,
                                target, &grid.world().counters(), options);
  }

  if (replicated) {
    grid.fiber_comm().reduce(partial.values, std::plus<std::int64_t>{}, 0);
    if (grid.layer() == 0) {
      for (std::size_t idx = 0; idx < b_accum.values.size(); ++idx) {
        b_accum.values[idx] += partial.values[idx];
      }
    }
  }
}

void accumulate_column_popcounts(const CsrPanel& panel, std::int64_t col_offset,
                                 std::span<std::int64_t> acc) {
  for (std::size_t e = 0; e < panel.values.size(); ++e) {
    acc[static_cast<std::size_t>(col_offset + panel.col_idx[e])] += popcount64(panel.values[e]);
  }
}

}  // namespace sas::distmat
