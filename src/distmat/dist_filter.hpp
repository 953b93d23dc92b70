// dist_filter.hpp — distributed work filters: the zero-row filter f⁽ˡ⁾
// (paper Eq. 5) and the hybrid's candidate-pair mask union.
//
// Zero-row filter: every rank contributes the row indices it observed
// nonzeros in; the union is formed with one all-to-all (block owners
// deduplicate — the (max,×) semiring write of §IV-A) and then replicated
// on all ranks, matching the paper's implementation choice: "our
// implementation then proceeds by collecting the sparse vector f on all
// processors, and performing a local prefix sum". The prefix sum is
// implicit in the sorted order: the compacted row id of global row g is
// its position in the returned sorted vector (Eq. 6).
//
// == Sort-free flow =======================================================
//
// Nothing that arrives sorted is sorted again:
//   * local union — pack_batch merges its samples' sorted reads with
//     sorted_union (a balanced pairwise std::set_union tree);
//   * owner slices — owners hold contiguous blocks, so each owner's share
//     of the sorted contribution is one slice cut at its block boundary
//     (adjacent duplicates drop in that pass; only unsorted input is
//     sorted first);
//   * owner merge — each owner merges its p decoded sorted lists;
//   * replication — every gathered list decodes once, straight into the
//     result with its range offset added, into a vector sized up front;
//   * compaction — compact_sorted_rows walks one sorted sample against
//     the sorted filter with a forward cursor (short probe, then
//     galloping), so there is no per-value binary search.
//
// == Replication bytes ===================================================
//
// Replicating the union as raw 8-byte indices costs O(p · |union| · 8)
// bytes per batch — this was the hybrid's remaining byte floor after the
// targeted rescore exchange. With compression (the default,
// Config::compress_filter) every shipped index list — both the
// contribution all-to-all and the replication allgather — travels as the
// smallest of three encodings chosen per list:
//
//   * word-RLE bitmap: segments of [header(skip_words:32 | literal
//     words:32), literal bitmap words...] over the block's row range.
//     A batch that keeps most rows compresses toward 1 BIT per row
//     (~64x below the raw list); interior gaps of one zero word are
//     inlined, longer gaps start a new segment.
//   * delta-varint: LEB128-encoded gaps between consecutive indices —
//     the hypersparse winner (k-mer universes of ~4^21 rows leave gaps
//     of ~10^7: ~4 bytes per index instead of 8).
//   * raw sorted list (1 word per index) — the safety net; never more
//     than one mode word above the uncompressed cost.
//
// Contents are identical in every mode (tested); only the wire bytes
// move.
//
// Pair-mask union: the pair-space analogue for the hybrid estimator —
// each rank fills the mask rows of the samples whose sketches it scored;
// a bitwise-OR allreduce replicates the union so every rank can prune
// columns, exchanges, and kernel tiles against the same candidate set.
// The sparse counterpart (allreduce_pair_union) replicates the union of
// packed candidate-pair lists instead: O(total pairs) bytes per hop
// instead of the dense mask's O(n²/8), which is what the LSH candidate
// pass ships when the surviving pair set is far below n².
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/pair_mask.hpp"

namespace sas::distmat {

/// Sorted union of all ranks' index lists, replicated on every rank.
/// `universe` bounds the index range and defines block ownership; every
/// index must lie in [0, universe) (std::invalid_argument otherwise).
/// `mine` may be in any order and hold duplicates; sorted input skips
/// the local sort.
/// `compress` ships every index list in the compressed set encoding
/// (see the replication-bytes note above); the returned union is
/// identical either way. A damaged list from another rank throws
/// sas::error::CorruptInput.
[[nodiscard]] std::vector<std::int64_t> distributed_index_union(
    bsp::Comm& comm, std::span<const std::int64_t> mine, std::int64_t universe,
    bool compress = true);

/// Compressed encoding of a SORTED, UNIQUE index set within [0, extent):
/// one mode word — word-RLE bitmap (0), raw index list (1), or
/// delta-varint gaps (2) — followed by that mode's body, whichever of
/// the three encodes smallest, ties going to RLE, then delta (the
/// replication-bytes note above walks the tradeoff). The body sizes are
/// counted first and only the winner is built. An empty set encodes to
/// an empty vector.
[[nodiscard]] std::vector<std::uint64_t> encode_index_set(
    std::span<const std::int64_t> sorted, std::int64_t extent);

/// Inverse of encode_index_set. Throws sas::error::CorruptInput on
/// malformed input (unknown mode, truncated segments, runaway varints,
/// indices outside [0, extent)) — the words arrived over the wire or
/// from disk, so damage is input corruption, not a caller bug.
[[nodiscard]] std::vector<std::int64_t> decode_index_set(
    std::span<const std::uint64_t> words, std::int64_t extent);

/// Sorted, deduplicated union of SORTED, UNIQUE lists, merged by a
/// balanced pairwise std::set_union tree (no heap, no global sort).
[[nodiscard]] std::vector<std::int64_t> sorted_union(
    std::span<const std::span<const std::int64_t>> lists);

/// Compacted ids (Eq. 6) of one SORTED sample's rows — the prefix sum
/// p⁽ˡ⁾ of the sorted filter evaluated at each `sorted_rows[i] - base`.
/// A merge-walk with a forward cursor: a short linear probe, then
/// galloping. Throws std::logic_error if a row is not in the filter.
[[nodiscard]] std::vector<std::int64_t> compact_sorted_rows(
    std::span<const std::int64_t> sorted_filter, std::span<const std::int64_t> sorted_rows,
    std::int64_t base = 0);

/// Collective: replace every rank's `mask` with the bitwise-OR union of
/// all ranks' masks, then symmetrize. All ranks must pass masks of the
/// same size.
void allreduce_pair_mask(bsp::Comm& comm, PairMask& mask);

/// Collective union-merge of packed candidate pairs
/// (SparsePairMask::pack_pair format): returns the sorted, deduplicated
/// union of all ranks' lists, replicated on every rank. `mine` need not
/// be sorted. This is the sparse mask's replacement for the dense
/// word-OR allreduce — bytes scale with the pair count, not with n².
[[nodiscard]] std::vector<std::uint64_t> allreduce_pair_union(
    bsp::Comm& comm, std::vector<std::uint64_t> mine);

}  // namespace sas::distmat
