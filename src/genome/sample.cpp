#include "genome/sample.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <unordered_map>

#include "util/error.hpp"

namespace sas::genome {

KmerSample build_sample(const std::string& name,
                        const std::vector<SequenceRecord>& records,
                        const KmerCodec& codec, int min_count) {
  if (min_count < 1) throw std::invalid_argument("build_sample: min_count must be >= 1");
  KmerSample sample;
  sample.name = name;

  if (min_count == 1) {
    // No counting needed: collect, sort, dedupe.
    for (const SequenceRecord& record : records) {
      auto codes = codec.canonical_kmers(record.sequence);
      sample.kmers.insert(sample.kmers.end(), codes.begin(), codes.end());
    }
    std::sort(sample.kmers.begin(), sample.kmers.end());
    sample.kmers.erase(std::unique(sample.kmers.begin(), sample.kmers.end()),
                       sample.kmers.end());
    return sample;
  }

  std::unordered_map<std::uint64_t, std::int64_t> counts;
  for (const SequenceRecord& record : records) {
    for (std::uint64_t code : codec.canonical_kmers(record.sequence)) ++counts[code];
  }
  for (const auto& [code, count] : counts) {
    if (count >= min_count) sample.kmers.push_back(code);
  }
  std::sort(sample.kmers.begin(), sample.kmers.end());
  return sample;
}

double jaccard_of_samples(const KmerSample& a, const KmerSample& b) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::int64_t inter = 0;
  while (ia < a.kmers.size() && ib < b.kmers.size()) {
    if (a.kmers[ia] < b.kmers[ib]) {
      ++ia;
    } else if (b.kmers[ib] < a.kmers[ia]) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  const auto uni = static_cast<std::int64_t>(a.kmers.size() + b.kmers.size()) - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

void write_sample_file(const std::string& path, const KmerSample& sample) {
  std::ofstream out(path);
  if (!out) throw error::ConfigError("cannot write sample file: " + path);
  out << "# " << sample.name << '\n';
  for (std::uint64_t code : sample.kmers) out << code << '\n';
}

namespace {

/// One pass over a sample file's lines: parses and validates each line as
/// it is seen, so a bad line fails with its path and 1-based line number.
class SampleParser {
 public:
  explicit SampleParser(const std::string& path) : path_(path) {}

  void line(const char* begin, const char* end) {
    ++line_no_;
    if (end != begin && end[-1] == '\r') --end;
    if (begin == end) return;
    if (*begin == '#') {
      const std::string_view text(begin + 1, static_cast<std::size_t>(end - begin - 1));
      const std::size_t start = text.find_first_not_of(" \t");
      if (start != std::string_view::npos) sample_.name = text.substr(start);
      return;
    }
    std::uint64_t code = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, code, 10);
    if (ec == std::errc::result_out_of_range) fail("k-mer code overflows uint64", begin, end);
    if (ec != std::errc{} || ptr != end) fail("not a base-10 k-mer code", begin, end);
    if (!sample_.kmers.empty() && code <= sample_.kmers.back()) {
      fail("k-mer codes must be sorted and unique", begin, end);
    }
    sample_.kmers.push_back(code);
  }

  [[nodiscard]] KmerSample take() { return std::move(sample_); }

 private:
  [[noreturn]] void fail(const char* reason, const char* begin, const char* end) const {
    constexpr std::size_t kShown = 40;
    const std::size_t len = static_cast<std::size_t>(end - begin);
    std::string shown(begin, std::min(len, kShown));
    if (len > kShown) shown += "...";
    throw error::CorruptInput(path_ + ":" + std::to_string(line_no_) + ": " + reason +
                              ": '" + shown + "'");
  }

  const std::string& path_;
  std::int64_t line_no_ = 0;
  KmerSample sample_;
};

}  // namespace

KmerSample read_sample_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw error::ConfigError("cannot open sample file: " + path);
  SampleParser parser(path);
  // Lines are parsed in place; the unterminated tail of each chunk moves
  // to the front of the buffer and is completed by the next read. Only a
  // "# name" header may fill the whole buffer, which then grows; any other
  // line that long is malformed, and parsing it throws.
  std::vector<char> buffer(kSampleReadBuffer);
  std::size_t tail = 0;
  while (true) {
    if (tail == buffer.size()) {
      if (buffer[0] != '#') parser.line(buffer.data(), buffer.data() + tail);
      buffer.resize(2 * buffer.size());
    }
    in.read(buffer.data() + tail, static_cast<std::streamsize>(buffer.size() - tail));
    if (in.bad()) throw error::CorruptInput(path + ": read failed");
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    const char* pos = buffer.data();
    const char* const end = buffer.data() + tail + got;
    while (const auto* newline = static_cast<const char*>(
               std::memchr(pos, '\n', static_cast<std::size_t>(end - pos)))) {
      parser.line(pos, newline);
      pos = newline + 1;
    }
    tail = static_cast<std::size_t>(end - pos);
    std::memmove(buffer.data(), pos, tail);
  }
  if (tail > 0) parser.line(buffer.data(), buffer.data() + tail);
  return parser.take();
}

}  // namespace sas::genome
