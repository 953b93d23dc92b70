#include "distmat/dist_filter.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "bsp/tags.hpp"
#include "distmat/block.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sas::distmat {

namespace {

/// Mode words of the compressed set encoding.
constexpr std::uint64_t kEncodingRle = 0;
constexpr std::uint64_t kEncodingList = 1;
constexpr std::uint64_t kEncodingDelta = 2;

constexpr std::uint64_t kMax32 = 0xffffffffULL;
constexpr auto kMax32Signed = static_cast<std::int64_t>(kMax32);

// Delta-varint body: LEB128-encoded gaps (first gap from −1, so every
// gap ≥ 1 and the byte 0x00 never appears — word padding zeroes act as
// the stream terminator), packed little-endian into words. Hypersparse
// filters over huge row spaces (genome k-mer universes) land here:
// ~⌈log₁₂₈ gap⌉ bytes per index instead of 8.

std::size_t delta_body_words(std::span<const std::int64_t> sorted) {
  std::size_t bytes = 0;
  std::int64_t prev = -1;
  for (std::int64_t v : sorted) {
    bytes += 1 + static_cast<std::size_t>(
                     std::bit_width(static_cast<std::uint64_t>(v - prev)) - 1) / 7;
    prev = v;
  }
  return (bytes + 7) / 8;
}

void append_delta_body(std::span<const std::int64_t> sorted, std::size_t body_words,
                       std::vector<std::uint64_t>& out) {
  const std::size_t base = out.size();
  out.resize(base + body_words, 0);
  std::size_t b = 0;  // byte position in the body
  const auto put = [&](std::uint64_t byte) {
    out[base + (b >> 3)] |= byte << ((b & 7) * 8);
    ++b;
  };
  std::int64_t prev = -1;
  for (std::int64_t v : sorted) {
    auto gap = static_cast<std::uint64_t>(v - prev);
    prev = v;
    for (; gap >= 0x80; gap >>= 7) put((gap & 0x7f) | 0x80);
    put(gap);
  }
}

/// The one delta-varint decoder: appends each decoded index plus
/// `offset` to `out`.
void decode_delta(std::span<const std::uint64_t> words, std::int64_t extent,
                  std::int64_t offset, std::vector<std::int64_t>& out) {
  std::int64_t prev = -1;
  std::uint64_t gap = 0;
  int shift = 0;
  for (std::size_t b = 0; b < words.size() * 8; ++b) {
    const auto byte =
        static_cast<std::uint8_t>(words[b >> 3] >> ((b & 7) * 8));
    if (byte == 0 && shift == 0) break;  // padding terminator (gaps >= 1)
    gap |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) != 0) {
      shift += 7;
      if (shift > 63) {
        throw error::CorruptInput("decode_index_set: runaway varint");
      }
      continue;
    }
    // Bound the gap BEFORE forming the index: a hostile varint can carry
    // bit 63 (or silently wrap past it), and prev + gap in signed space
    // would go negative / overflow. extent − 1 − prev is the largest
    // admissible gap and is non-negative by the loop invariant prev <
    // extent, so the unsigned comparison is exact.
    if (gap == 0 || gap > static_cast<std::uint64_t>(extent - 1 - prev)) {
      throw error::CorruptInput("decode_index_set: malformed delta stream");
    }
    prev += static_cast<std::int64_t>(gap);
    out.push_back(prev + offset);
    gap = 0;
    shift = 0;
  }
  if (shift != 0) {
    throw error::CorruptInput("decode_index_set: truncated varint");
  }
}

// Word-RLE bitmap body: segments of [header(skip:32 | literals:32),
// literal words...]. Segments are maximal runs of bitmap words whose
// interior zero-word gaps are at most one word (inlining one zero word
// costs the same as a fresh header and keeps segments long). A skip
// wider than 32 bits is carried by skip-only headers; a segment of more
// than 2^32 literal words (past 2^38 rows) is split into chunks whose
// headers after the first skip nothing.

/// One RLE segment: `sorted[begin, end)`, spanning bitmap words
/// [first_word, last_word].
struct RleSegment {
  std::size_t end;
  std::int64_t first_word;
  std::int64_t last_word;
};

RleSegment rle_segment(std::span<const std::int64_t> sorted, std::size_t begin) {
  RleSegment seg{begin, sorted[begin] >> 6, sorted[begin] >> 6};
  for (; seg.end < sorted.size(); ++seg.end) {
    const std::int64_t w = sorted[seg.end] >> 6;
    if (w - seg.last_word > 2) break;  // gap of >= 2 zero words: new segment
    seg.last_word = w;
  }
  return seg;
}

std::size_t rle_body_words(std::span<const std::int64_t> sorted) {
  std::size_t words = 0;
  std::int64_t pos = 0;  // bitmap word position after the previous segment
  for (std::size_t s = 0; s < sorted.size();) {
    const RleSegment seg = rle_segment(sorted, s);
    const std::int64_t skip = seg.first_word - pos;
    const std::int64_t literals = seg.last_word - seg.first_word + 1;
    const std::int64_t skip_headers = skip > kMax32Signed ? (skip - 1) / kMax32Signed : 0;
    const std::int64_t chunks = (literals + kMax32Signed - 1) / kMax32Signed;
    words += static_cast<std::size_t>(skip_headers + chunks + literals);
    pos = seg.last_word + 1;
    s = seg.end;
  }
  return words;
}

void append_rle_body(std::span<const std::int64_t> sorted, std::vector<std::uint64_t>& out) {
  std::int64_t pos = 0;
  for (std::size_t s = 0; s < sorted.size();) {
    const RleSegment seg = rle_segment(sorted, s);
    std::int64_t skip = seg.first_word - pos;
    for (; skip > kMax32Signed; skip -= kMax32Signed) out.push_back(kMax32 << 32);
    const std::int64_t literals = seg.last_word - seg.first_word + 1;
    for (std::int64_t done = 0; done < literals; done += kMax32Signed) {
      const std::int64_t chunk = std::min(literals - done, kMax32Signed);
      out.push_back((static_cast<std::uint64_t>(skip) << 32) |
                    static_cast<std::uint64_t>(chunk));
      skip = 0;
      const std::size_t base = out.size();
      out.resize(base + static_cast<std::size_t>(chunk), 0);
      const std::int64_t chunk_word = seg.first_word + done;
      for (; s < seg.end && (sorted[s] >> 6) < chunk_word + chunk; ++s) {
        out[base + static_cast<std::size_t>((sorted[s] >> 6) - chunk_word)] |=
            std::uint64_t{1} << (sorted[s] & 63);
      }
    }
    pos = seg.last_word + 1;
  }
}

/// Number of indices `words` decodes to when well formed — sizes a
/// decode's output up front. Damaged input only misjudges the
/// reservation (never beyond 64 per word); decoding still checks it.
std::size_t encoded_count(std::span<const std::uint64_t> words) {
  if (words.empty()) return 0;
  if (words[0] == kEncodingList) return words.size() - 1;
  std::size_t count = 0;
  if (words[0] == kEncodingDelta) {
    // One varint ends at every nonzero byte whose high bit is clear.
    for (std::uint64_t word : words.subspan(1)) {
      for (; word != 0; word >>= 8) count += (word & 0xff) != 0 && (word & 0x80) == 0;
    }
    return count;
  }
  for (std::size_t w = 1; w < words.size();) {
    const std::size_t end =
        std::min(words.size(), w + 1 + static_cast<std::size_t>(words[w] & kMax32));
    for (++w; w < end; ++w) count += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return count;
}

/// Decodes `words` (see decode_index_set) and appends each index plus
/// `offset` to `out`.
void decode_index_set_into(std::span<const std::uint64_t> words, std::int64_t extent,
                           std::int64_t offset, std::vector<std::int64_t>& out) {
  if (words.empty()) return;
  if (words[0] == kEncodingList) {
    std::int64_t prev = -1;
    for (std::size_t w = 1; w < words.size(); ++w) {
      const auto idx = static_cast<std::int64_t>(words[w]);
      if (idx <= prev || idx >= extent) {
        throw error::CorruptInput("decode_index_set: malformed raw list");
      }
      out.push_back(idx + offset);
      prev = idx;
    }
    return;
  }
  if (words[0] == kEncodingDelta) {
    decode_delta(words.subspan(1), extent, offset, out);
    return;
  }
  if (words[0] != kEncodingRle) {
    throw error::CorruptInput("decode_index_set: unknown encoding mode");
  }
  const std::int64_t word_extent = (extent + 63) / 64;
  std::int64_t pos = 0;  // current bitmap word position
  std::size_t w = 1;
  while (w < words.size()) {
    const std::int64_t skip = static_cast<std::int64_t>(words[w] >> 32);
    const std::int64_t literals = static_cast<std::int64_t>(words[w] & kMax32);
    ++w;
    if (w + static_cast<std::size_t>(literals) > words.size()) {
      throw error::CorruptInput("decode_index_set: truncated RLE segment");
    }
    pos += skip;
    // Bound pos before forming pos * 64: hostile skip headers chained
    // across segments could otherwise push it past the signed range.
    if (pos > word_extent) {
      throw error::CorruptInput("decode_index_set: RLE skip beyond extent");
    }
    for (std::int64_t l = 0; l < literals; ++l, ++w, ++pos) {
      if (pos >= word_extent) {
        if (words[w] != 0) {
          throw error::CorruptInput("decode_index_set: index beyond extent");
        }
        continue;  // zero padding words past the extent carry no indices
      }
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const std::int64_t idx = pos * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        if (idx >= extent) {
          throw error::CorruptInput("decode_index_set: index beyond extent");
        }
        out.push_back(idx + offset);
      }
    }
  }
}

std::vector<std::int64_t> set_union_of(std::span<const std::int64_t> a,
                                       std::span<const std::int64_t> b) {
  std::vector<std::int64_t> out(a.size() + b.size());
  out.erase(std::set_union(a.begin(), a.end(), b.begin(), b.end(), out.begin()),
            out.end());
  return out;
}

/// First position at or after `at` whose value is >= `target`: a short
/// linear probe in blocks of 8 (the next filter row is usually close; the
/// block that holds it is counted without branches), then galloping and
/// a binary search inside the bracket found.
std::size_t advance_to(std::span<const std::int64_t> sorted, std::size_t at,
                       std::int64_t target) {
  constexpr std::size_t kBlock = 8;
  constexpr int kProbeBlocks = 16;
  for (int b = 0; b < kProbeBlocks && at + kBlock <= sorted.size(); ++b, at += kBlock) {
    if (sorted[at + kBlock - 1] >= target) {
      std::size_t below = 0;
      for (std::size_t i = at; i < at + kBlock - 1; ++i) below += sorted[i] < target ? 1 : 0;
      return at + below;
    }
  }
  std::size_t lo = at;  // every position before lo holds a value < target
  std::size_t hi = at;
  for (std::size_t step = 1; hi < sorted.size() && sorted[hi] < target; step <<= 1) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, sorted.size());
  return static_cast<std::size_t>(
      std::lower_bound(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                       sorted.begin() + static_cast<std::ptrdiff_t>(hi), target) -
      sorted.begin());
}

}  // namespace

std::vector<std::uint64_t> encode_index_set(std::span<const std::int64_t> sorted,
                                            std::int64_t extent) {
  if (sorted.empty()) return {};
  for (std::size_t s = 0; s < sorted.size(); ++s) {
    if (sorted[s] < 0 || sorted[s] >= extent ||
        (s > 0 && sorted[s] <= sorted[s - 1])) {
      throw std::invalid_argument("encode_index_set: need sorted unique in [0, extent)");
    }
  }
  // Size all three bodies, build only the smallest (ties: RLE, then delta).
  const std::size_t rle = rle_body_words(sorted);
  const std::size_t delta = delta_body_words(sorted);
  const std::size_t best = std::min({rle, delta, sorted.size()});
  std::vector<std::uint64_t> out;
  out.reserve(1 + best);
  if (best == rle) {
    out.push_back(kEncodingRle);
    append_rle_body(sorted, out);
  } else if (best == delta) {
    out.push_back(kEncodingDelta);
    append_delta_body(sorted, delta, out);
  } else {
    out.push_back(kEncodingList);
    for (std::int64_t idx : sorted) out.push_back(static_cast<std::uint64_t>(idx));
  }
  return out;
}

std::vector<std::int64_t> decode_index_set(std::span<const std::uint64_t> words,
                                           std::int64_t extent) {
  std::vector<std::int64_t> out;
  out.reserve(encoded_count(words));
  decode_index_set_into(words, extent, 0, out);
  return out;
}

std::vector<std::int64_t> sorted_union(std::span<const std::span<const std::int64_t>> lists) {
  if (lists.empty()) return {};
  // Balanced pairwise merge tree: each level halves the list count, and
  // each merged pair is released as soon as its union exists.
  std::vector<std::vector<std::int64_t>> level;
  level.reserve((lists.size() + 1) / 2);
  for (std::size_t i = 0; i < lists.size(); i += 2) {
    level.push_back(i + 1 < lists.size()
                        ? set_union_of(lists[i], lists[i + 1])
                        : std::vector<std::int64_t>(lists[i].begin(), lists[i].end()));
  }
  while (level.size() > 1) {
    std::vector<std::vector<std::int64_t>> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 == level.size()) {
        next.push_back(std::move(level[i]));
        continue;
      }
      const std::vector<std::int64_t> a = std::move(level[i]);
      const std::vector<std::int64_t> b = std::move(level[i + 1]);
      next.push_back(set_union_of(a, b));
    }
    level = std::move(next);
  }
  return std::move(level.front());
}

std::vector<std::int64_t> distributed_index_union(bsp::Comm& comm,
                                                  std::span<const std::int64_t> mine,
                                                  std::int64_t universe, bool compress) {
  const int p = comm.size();
  std::vector<std::int64_t> sorted_copy;
  if (!std::is_sorted(mine.begin(), mine.end())) {
    sorted_copy.assign(mine.begin(), mine.end());
    std::sort(sorted_copy.begin(), sorted_copy.end());
    mine = sorted_copy;
  }
  if (!mine.empty() && (mine.front() < 0 || mine.back() >= universe)) {
    throw std::invalid_argument("distributed_index_union: index outside [0, universe)");
  }

  // Owner slices: owners hold contiguous blocks, so owner q's share of
  // the sorted input is the one slice cut at its block's end. Adjacent
  // duplicates drop here; compressed slices are relative to the owner's
  // range.
  std::vector<std::vector<std::int64_t>> slices(static_cast<std::size_t>(p));
  const auto* cut = mine.data();
  const auto* const last = mine.data() + mine.size();
  for (int q = 0; q < p; ++q) {
    const BlockRange range = block_range(universe, p, q);
    const auto* const end = std::lower_bound(cut, last, range.end);
    const std::int64_t base = compress ? range.begin : 0;
    auto& slice = slices[static_cast<std::size_t>(q)];
    slice.reserve(static_cast<std::size_t>(end - cut));
    for (; cut != end; ++cut) {
      if (slice.empty() || *cut - base != slice.back()) slice.push_back(*cut - base);
    }
  }

  // Owner side: merge the p sorted incoming lists — the (max,×)
  // accumulation of the paper's write().
  const BlockRange my_range = block_range(universe, p, comm.rank());
  std::vector<std::vector<std::int64_t>> incoming;
  if (compress) {
    std::vector<std::vector<std::uint64_t>> packed(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      packed[static_cast<std::size_t>(q)] =
          encode_index_set(slices[static_cast<std::size_t>(q)],
                           block_range(universe, p, q).size());
    }
    slices.clear();
    for (const auto& block : comm.alltoall_v(packed)) {
      incoming.push_back(decode_index_set(block, my_range.size()));
    }
  } else {
    incoming = comm.alltoall_v(slices);
    for (const auto& block : incoming) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        if (!my_range.contains(block[i]) || (i > 0 && block[i] <= block[i - 1])) {
          throw error::CorruptInput("distributed_index_union: malformed raw index list");
        }
      }
    }
  }
  const std::vector<std::span<const std::int64_t>> lists(incoming.begin(), incoming.end());
  const std::vector<std::int64_t> owned = sorted_union(lists);

  // Owners hold disjoint, increasing ranges (block partition), so the
  // rank-ordered concatenation of an allgather is already sorted.
  if (!compress) return comm.allgather<std::int64_t>(owned);

  // Compressed replication: each owner's set travels once per hop of
  // the ring allgather in the same encoding — the O(p · |union|) raw
  // word cost becomes O(p · encoded), ~1 bit per kept row on dense
  // batches. Every list decodes once, straight into the result.
  const auto gathered = comm.allgather_v<std::uint64_t>(
      std::span<const std::uint64_t>(encode_index_set(owned, my_range.size())));
  std::size_t total = 0;
  for (const auto& block : gathered) total += encoded_count(block);
  std::vector<std::int64_t> result;
  result.reserve(total);
  for (int q = 0; q < p; ++q) {
    const BlockRange range = block_range(universe, p, q);
    decode_index_set_into(gathered[static_cast<std::size_t>(q)], range.size(), range.begin,
                          result);
  }
  return result;
}

std::vector<std::int64_t> compact_sorted_rows(std::span<const std::int64_t> sorted_filter,
                                              std::span<const std::int64_t> sorted_rows,
                                              std::int64_t base) {
  std::vector<std::int64_t> ids(sorted_rows.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < sorted_rows.size(); ++i) {
    const std::int64_t row = sorted_rows[i] - base;
    at = advance_to(sorted_filter, at, row);
    if (at == sorted_filter.size() || sorted_filter[at] != row) {
      throw std::logic_error("compact_sorted_rows: row not present in filter");
    }
    ids[i] = static_cast<std::int64_t>(at);
  }
  return ids;
}

void allreduce_pair_mask(bsp::Comm& comm, PairMask& mask) {
  comm.allreduce(mask.words(),
                 [](std::uint64_t a, std::uint64_t b) { return a | b; });
  mask.symmetrize();
}

namespace {

/// User-tag block of the hierarchical pair-union exchange (bsp/tags.hpp
/// is the central registry; spgemm owns 200/300 for its schedules).
constexpr int kTagPairUnionUp = bsp::tags::kPairUnionUp;
constexpr int kTagPairUnionDown = bsp::tags::kPairUnionDown;
constexpr int kTagPairUnionLeader = bsp::tags::kPairUnionLeader;

void sort_unique(std::vector<std::uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/// Two-tier pair union: members hand their deduped key lists to the node
/// leader, which dedupes the NODE union before anything crosses the
/// inter-node tier — duplicated candidates between ranks of one node
/// (common: neighbouring ranks score overlapping pair blocks) are
/// eliminated from the expensive tier entirely. Leaders then exchange
/// node unions directly and fan the global union back out. Set union is
/// order-insensitive, so the result is bitwise identical to the flat
/// allgather path.
std::vector<std::uint64_t> hier_pair_union(bsp::Comm& comm,
                                           std::vector<std::uint64_t> mine) {
  // Booked as allgather drift: structurally this is the hierarchical
  // counterpart of the flat path's allgather_v.
  const obs::CollectiveScope obs_scope(obs::Primitive::kAllgather, comm.counters());
  const auto members = comm.node_ranks(comm.my_node());
  const int leader = members.front();
  if (comm.rank() != leader) {
    comm.send<std::uint64_t>(leader, kTagPairUnionUp,
                             std::span<const std::uint64_t>(mine));
    return comm.recv<std::uint64_t>(leader, kTagPairUnionDown);
  }
  for (std::size_t i = 1; i < members.size(); ++i) {
    const auto block = comm.recv<std::uint64_t>(members[i], kTagPairUnionUp);
    mine.insert(mine.end(), block.begin(), block.end());
  }
  sort_unique(mine);  // node union, deduped before the inter tier
  const int nn = comm.node_count();
  for (int q = 0; q < nn; ++q) {
    if (q == comm.my_node()) continue;
    comm.send<std::uint64_t>(comm.node_ranks(q).front(), kTagPairUnionLeader,
                             std::span<const std::uint64_t>(mine));
  }
  std::vector<std::uint64_t> all = std::move(mine);
  for (int q = 0; q < nn; ++q) {
    if (q == comm.my_node()) continue;
    const auto block =
        comm.recv<std::uint64_t>(comm.node_ranks(q).front(), kTagPairUnionLeader);
    all.insert(all.end(), block.begin(), block.end());
  }
  sort_unique(all);
  for (std::size_t i = 1; i < members.size(); ++i) {
    comm.send<std::uint64_t>(members[i], kTagPairUnionDown,
                             std::span<const std::uint64_t>(all));
  }
  return all;
}

}  // namespace

std::vector<std::uint64_t> allreduce_pair_union(bsp::Comm& comm,
                                                std::vector<std::uint64_t> mine) {
  std::sort(mine.begin(), mine.end());
  mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  if (comm.hierarchical()) return hier_pair_union(comm, std::move(mine));
  const auto blocks = comm.allgather_v<std::uint64_t>(
      std::span<const std::uint64_t>(mine));
  // Rank lists are each sorted; a concatenate + sort is O(total log p)-ish
  // and deterministic — candidate unions stay far below the n² regime
  // where a k-way merge would matter.
  std::vector<std::uint64_t> all;
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  all.reserve(total);
  for (const auto& block : blocks) all.insert(all.end(), block.begin(), block.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace sas::distmat
