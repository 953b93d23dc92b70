#include "core/packing.hpp"

#include <algorithm>
#include <stdexcept>

#include "distmat/dist_filter.hpp"
#include "obs/trace.hpp"

namespace sas::core {

BatchReads read_batch(int rank, int nranks, const SampleSource& source,
                      distmat::BlockRange rows) {
  const std::int64_t n = source.sample_count();
  BatchReads reads;
  const auto my_sample_count =
      static_cast<std::size_t>(rank < n ? (n - rank + nranks - 1) / nranks : 0);
  reads.samples.reserve(my_sample_count);
  reads.values.reserve(my_sample_count);
  for (std::int64_t i = rank; i < n; i += nranks) {
    reads.samples.push_back(i);
    reads.values.push_back(source.values_in_range(i, rows));
  }
  return reads;
}

PackedBatch pack_batch(bsp::Comm& comm, const BatchReads& reads,
                       distmat::BlockRange rows, int bit_width, bool use_filter,
                       bool compress_filter) {
  if (bit_width < 1 || bit_width > 64) {
    throw std::invalid_argument("pack_batch: bit_width must be in [1, 64]");
  }
  const std::int64_t batch_height = rows.size();

  // (1) Distributed zero-row filter f⁽ˡ⁾, replicated on all ranks.
  // Offsets are relative to the batch start (reads carry global ids).
  std::vector<std::int64_t> filter;
  if (use_filter) {
    obs::Span local_span("pack/local-union", "pack", &comm.counters());
    const std::vector<std::span<const std::int64_t>> lists(reads.values.begin(),
                                                           reads.values.end());
    std::vector<std::int64_t> observed = distmat::sorted_union(lists);
    for (std::int64_t& v : observed) v -= rows.begin;
    local_span.close();
    const obs::Span union_span("pack/filter-union", "pack", &comm.counters());
    filter = distmat::distributed_index_union(
        comm, std::span<const std::int64_t>(observed), batch_height, compress_filter);
  }
  const obs::Span compact_span("pack/compact", "pack");

  PackedBatch out;
  out.filtered_rows = use_filter ? static_cast<std::int64_t>(filter.size()) : batch_height;
  out.word_rows = (out.filtered_rows + bit_width - 1) / bit_width;

  // (2) Compact and pack: consecutive compacted rows of one sample that
  // share a word are OR-merged as they stream by (offsets are sorted, and
  // the compaction map is monotone, so same-word runs are contiguous and
  // every sample's words come out ascending). One packed entry is emitted
  // per (sample, word) run — up to b× fewer than the raw offsets, so
  // amortized growth beats reserving the loose offset-count bound (which
  // would pin up to 64× the needed capacity for the batch's lifetime).
  distmat::ColumnRuns& runs = out.runs;
  for (std::size_t s = 0; s < reads.samples.size(); ++s) {
    const std::int64_t col = reads.samples[s];
    const std::vector<std::int64_t>& values = reads.values[s];
    const std::vector<std::int64_t> ids =
        use_filter ? distmat::compact_sorted_rows(filter, values, rows.begin)
                   : std::vector<std::int64_t>{};
    std::int64_t current_word = -1;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::int64_t compacted = use_filter ? ids[i] : values[i] - rows.begin;
      const std::int64_t word = compacted / bit_width;
      const int bit = static_cast<int>(compacted % bit_width);
      if (word != current_word) {
        if (current_word >= 0) {
          runs.rows.push_back(current_word);
          runs.masks.push_back(mask);
        }
        current_word = word;
        mask = 0;
      }
      mask |= (1ULL << bit);
    }
    if (current_word >= 0) {
      runs.rows.push_back(current_word);
      runs.masks.push_back(mask);
    }
    runs.close_run(col);
  }
  return out;
}

PackedBatch pack_batch(bsp::Comm& comm, const SampleSource& source,
                       distmat::BlockRange rows, int bit_width, bool use_filter,
                       bool compress_filter) {
  return pack_batch(comm, read_batch(comm.rank(), comm.size(), source, rows), rows,
                    bit_width, use_filter, compress_filter);
}

std::vector<std::uint64_t> pack_word_panel(
    const std::vector<std::vector<std::uint64_t>>& blobs) {
  std::size_t payload = 0;
  for (const auto& blob : blobs) payload += blob.size();
  std::vector<std::uint64_t> panel;
  panel.reserve(1 + blobs.size() + payload);
  panel.push_back(blobs.size());
  for (const auto& blob : blobs) panel.push_back(blob.size());
  for (const auto& blob : blobs) panel.insert(panel.end(), blob.begin(), blob.end());
  return panel;
}

std::vector<std::span<const std::uint64_t>> unpack_word_panel(
    std::span<const std::uint64_t> panel) {
  if (panel.empty()) throw std::invalid_argument("unpack_word_panel: empty panel");
  const auto count = static_cast<std::size_t>(panel[0]);
  if (panel.size() < 1 + count) {
    throw std::invalid_argument("unpack_word_panel: truncated length table");
  }
  std::vector<std::span<const std::uint64_t>> views;
  views.reserve(count);
  std::size_t offset = 1 + count;
  for (std::size_t i = 0; i < count; ++i) {
    const auto len = static_cast<std::size_t>(panel[1 + i]);
    if (offset + len > panel.size()) {
      throw std::invalid_argument("unpack_word_panel: truncated payload");
    }
    views.push_back(panel.subspan(offset, len));
    offset += len;
  }
  if (offset != panel.size()) {
    throw std::invalid_argument("unpack_word_panel: trailing bytes");
  }
  return views;
}

}  // namespace sas::core
