// kmer_source.hpp — adapters from k-mer samples to the core driver.
//
// The indicator matrix of GenomeAtScale has one row per possible k-mer
// (m = 4ᵏ) and one column per sample (paper Table III); these sources
// expose KmerSample sets through the core::SampleSource batch interface.
#pragma once

#include <string>
#include <vector>

#include "core/sample_source.hpp"
#include "genome/sample.hpp"

namespace sas::genome {

/// In-memory adapter over built samples.
class KmerSampleSource final : public core::SampleSource {
 public:
  KmerSampleSource(int k, std::vector<KmerSample> samples);

  [[nodiscard]] std::int64_t sample_count() const override {
    return static_cast<std::int64_t>(samples_.size());
  }
  [[nodiscard]] std::int64_t attribute_universe() const override { return universe_; }
  [[nodiscard]] std::vector<std::int64_t> values_in_range(
      std::int64_t sample, distmat::BlockRange range) const override;

  [[nodiscard]] const KmerSample& sample(std::int64_t i) const {
    return samples_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::vector<std::string> sample_names() const;

 private:
  std::int64_t universe_;
  std::vector<KmerSample> samples_;
};

/// File-backed adapter over GenomeAtScale sample files (sorted numeric
/// representation, §IV). The constructor parses the files in parallel on
/// min(hardware_concurrency, file count) threads, each streaming its file
/// through read_sample_file; sample i is always sample_paths[i]. A code
/// at or above 4^k is error::CorruptInput naming the path. When several
/// files fail, the error of the first failing file in argument order is
/// rethrown. Range queries binary-search the sorted codes, matching the
/// streaming batch reads of the paper's readFiles().
///
/// Sketch persistence: `gas sketch --estimator <est>` drops a
/// `<sample path>.<est>.sketch` wire blob next to each sample file; this
/// source surfaces those blobs through persisted_sketch so the sketch
/// and hybrid pipelines skip re-sketching when the blob's (type, params,
/// seed) header matches the run.
class KmerFileSource final : public core::SampleSource {
 public:
  KmerFileSource(int k, const std::vector<std::string>& sample_paths);

  [[nodiscard]] std::int64_t sample_count() const override {
    return static_cast<std::int64_t>(samples_.size());
  }
  [[nodiscard]] std::int64_t attribute_universe() const override { return universe_; }
  [[nodiscard]] std::vector<std::int64_t> values_in_range(
      std::int64_t sample, distmat::BlockRange range) const override;

  [[nodiscard]] std::vector<std::uint64_t> persisted_sketch(
      std::int64_t sample, const core::Config& config) const override;

  /// The on-disk location of a sample's persisted sketch under `config`.
  [[nodiscard]] std::string sketch_path(std::int64_t sample,
                                        const core::Config& config) const;

  [[nodiscard]] std::vector<std::string> sample_names() const;

 private:
  std::int64_t universe_;
  std::vector<std::string> paths_;
  std::vector<KmerSample> samples_;
};

}  // namespace sas::genome
