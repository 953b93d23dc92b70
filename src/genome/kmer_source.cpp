#include "genome/kmer_source.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "sketch/exchange.hpp"
#include "sketch/sketch.hpp"
#include "util/error.hpp"

namespace sas::genome {

namespace {

std::int64_t universe_for_k(int k) {
  if (k < 1 || k > 31) throw std::invalid_argument("k must be in [1, 31]");
  return std::int64_t{1} << (2 * k);
}

std::vector<std::int64_t> codes_in_range(const std::vector<std::uint64_t>& kmers,
                                         distmat::BlockRange range) {
  const auto lo = std::lower_bound(kmers.begin(), kmers.end(),
                                   static_cast<std::uint64_t>(range.begin));
  const auto hi = std::lower_bound(lo, kmers.end(),
                                   static_cast<std::uint64_t>(range.end));
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) out.push_back(static_cast<std::int64_t>(*it));
  return out;
}

bool within_universe(const KmerSample& sample, std::int64_t universe) {
  return sample.kmers.empty() ||
         sample.kmers.back() < static_cast<std::uint64_t>(universe);
}

}  // namespace

KmerSampleSource::KmerSampleSource(int k, std::vector<KmerSample> samples)
    : universe_(universe_for_k(k)), samples_(std::move(samples)) {
  for (const KmerSample& s : samples_) {
    if (!within_universe(s, universe_)) {
      throw std::out_of_range("k-mer code exceeds 4^k universe for sample " + s.name);
    }
  }
}

std::vector<std::int64_t> KmerSampleSource::values_in_range(
    std::int64_t sample, distmat::BlockRange range) const {
  return codes_in_range(samples_[static_cast<std::size_t>(sample)].kmers, range);
}

std::vector<std::string> KmerSampleSource::sample_names() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const KmerSample& s : samples_) names.push_back(s.name);
  return names;
}

KmerFileSource::KmerFileSource(int k, const std::vector<std::string>& sample_paths)
    : universe_(universe_for_k(k)), paths_(sample_paths), samples_(sample_paths.size()) {
  // Workers claim file indices and fill index-addressed slots, so sample
  // order is argument order whatever order the files finish in.
  const std::size_t files = paths_.size();
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(files);
  const auto parse_files = [&] {
    for (std::size_t i = next++; i < files; i = next++) {
      try {
        samples_[i] = read_sample_file(paths_[i]);
        if (!within_universe(samples_[i], universe_)) {
          throw error::CorruptInput(paths_[i] + ": k-mer code exceeds the 4^" +
                                    std::to_string(k) + " universe");
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    const std::size_t threads =
        std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), files);
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(parse_files);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::string KmerFileSource::sketch_path(std::int64_t sample,
                                        const core::Config& config) const {
  const core::Estimator est = sketch::resolved_sketch_estimator(config);
  return paths_[static_cast<std::size_t>(sample)] + "." +
         sketch::estimator_wire_name(est) + ".sketch";
}

std::vector<std::uint64_t> KmerFileSource::persisted_sketch(
    std::int64_t sample, const core::Config& config) const {
  const core::Estimator est = sketch::resolved_sketch_estimator(config);
  switch (est) {
    case core::Estimator::kHll:
    case core::Estimator::kMinhash:
    case core::Estimator::kBottomK:
      break;
    default:
      return {};
  }
  // read_wire_file returns empty on missing files and throws
  // error::CorruptInput on malformed ones; parameter compatibility is
  // the caller's wire_matches_config check.
  return sketch::read_wire_file(sketch_path(sample, config));
}

std::vector<std::int64_t> KmerFileSource::values_in_range(
    std::int64_t sample, distmat::BlockRange range) const {
  return codes_in_range(samples_[static_cast<std::size_t>(sample)].kmers, range);
}

std::vector<std::string> KmerFileSource::sample_names() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const KmerSample& s : samples_) names.push_back(s.name);
  return names;
}

}  // namespace sas::genome
