// packing.hpp — per-batch preprocessing (paper §III-B, Listing 2's
// preprocessInput), split into the driver's first two pipeline stages:
//
//   ingest (read_batch)  — read the attribute values of this rank's
//      samples restricted to the batch (cyclic sample ownership: sample i
//      is read by rank i mod p). Purely local; the returned values are
//      GLOBAL attribute ids so the same reads can feed streaming sketch
//      construction (sketch hashing is defined over global ids).
//   pack (pack_batch)    — contribute observed row offsets to the
//      distributed filter f⁽ˡ⁾, obtain the replicated sorted filter
//      (Eq. 5), remap each value to its compacted row id — the prefix
//      sum p⁽ˡ⁾ of the filter (Eq. 6) — and pack segments of `bit_width`
//      compacted rows into word masks (Eq. 7).
//
// The split is what lets the hybrid estimator read inputs ONCE: the
// driver hands each batch's reads to both the sketch builders and the
// packer. The output is one column run per owned sample — ascending
// global word-rows and their masks, in the order the packer produces
// them — which the column-run exchange (distmat/panel_wire.hpp) slices
// onto the owners' panels without re-sorting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "core/sample_source.hpp"
#include "distmat/block.hpp"
#include "distmat/panel_wire.hpp"

namespace sas::core {

/// One rank's raw reads of one row batch (the ingest stage): the global
/// attribute ids of each cyclically owned sample, restricted to the
/// batch's row range.
struct BatchReads {
  std::vector<std::int64_t> samples;  ///< global sample ids (rank, rank+p, ...)
  std::vector<std::vector<std::int64_t>> values;  ///< sorted global attribute ids
};

/// Ingest stage: read this rank's share of batch `rows` (sample i is read
/// by rank i mod nranks). Local — no communication.
[[nodiscard]] BatchReads read_batch(int rank, int nranks, const SampleSource& source,
                                    distmat::BlockRange rows);

struct PackedBatch {
  /// h: word-rows of the packed batch matrix Â⁽ˡ⁾ (absent words are zero).
  std::int64_t word_rows = 0;
  /// Rows surviving the zero-row filter (batch height m̃ when filtering is
  /// disabled). Equals the length of the filter vector's support.
  std::int64_t filtered_rows = 0;
  /// This rank's packed entries as column runs, one per sample with at
  /// least one entry: global sample ids, ascending global word-rows.
  distmat::ColumnRuns runs;
};

/// Pack stage, collective over `comm`: filter + compact + bitmask-pack
/// one batch of reads. `bit_width` ∈ [1, 64] is the paper's b;
/// `use_filter` toggles the zero-row compaction (Eq. 5–6);
/// `compress_filter` replicates the filter union as a compressed bitmap
/// (dist_filter.hpp) instead of raw indices — same filter, fewer bytes.
/// Each `reads.values` list must be sorted and unique. Child spans
/// (category "pack") time the phases; the first two run only with the
/// filter on:
///   pack/local-union  — sorted_union merges this rank's sorted reads;
///   pack/filter-union — distributed_index_union slices that union per
///                       owner, encodes each slice in the smaller body,
///                       merges owner-side and decodes the replicated
///                       filter in place;
///   pack/compact      — compact_sorted_rows merge-walks each sample
///                       against the filter, then bits are packed.
[[nodiscard]] PackedBatch pack_batch(bsp::Comm& comm, const BatchReads& reads,
                                     distmat::BlockRange rows, int bit_width,
                                     bool use_filter, bool compress_filter = true);

/// Convenience fusion of the two stages (tests, callers that do not need
/// the reads for anything else).
[[nodiscard]] PackedBatch pack_batch(bsp::Comm& comm, const SampleSource& source,
                                     distmat::BlockRange rows, int bit_width,
                                     bool use_filter, bool compress_filter = true);

// ---- sketch-panel wire packing -------------------------------------------
//
// The sketch-exchange pipeline (sketch/exchange.hpp) rotates one message
// per ring step: a rank's per-sample sketch blobs flattened into a single
// contiguous word vector. The layout is self-describing so a received
// panel can be sliced back into per-sample views without copies:
//
//   [count, len_0, ..., len_{count-1}, payload_0, ..., payload_{count-1}]

/// Flatten per-sample word blobs into one wire panel.
[[nodiscard]] std::vector<std::uint64_t> pack_word_panel(
    const std::vector<std::vector<std::uint64_t>>& blobs);

/// Slice a packed panel back into per-blob views. The returned spans
/// alias `panel`; throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<std::span<const std::uint64_t>> unpack_word_panel(
    std::span<const std::uint64_t> panel);

}  // namespace sas::core
