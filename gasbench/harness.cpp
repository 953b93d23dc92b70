// harness.cpp — the benchmark's own C++ side (see run.py).
//
//   gasbench_harness reference OUT.sasm FILE.kmers...
//       Exact all-pairs Jaccard (baselines::exact_all_pairs) over the
//       sample files, written as a dense .sasm: the reference every timed
//       `gas dist` output is checked against. Computed once per seed.
//
//   gasbench_harness check exact|minhash|hybrid REF.sasm OUT
//       Checks one `gas dist` output against the reference and prints one
//       JSON line: {"ok", "pairs", "mismatches", "mae", ...}.
//         exact   — every cell of OUT.sasm bitwise equal to the reference
//         minhash — mean |Ĵ − J| over i < j within oph_jaccard_error_bound
//         hybrid  — every pair with J ≥ prune_threshold is a survivor of
//                   OUT.sasp and carries the bitwise-exact value
//
//   gasbench_harness trace exact|minhash|hybrid OUT K FILE.kmers...
//       The traced run: the same public calls `gas dist` makes, in the
//       same order (KmerFileSource, similarity_at_scale_threaded with an
//       obs::Observer, the matrix_io writer), each timed from outside,
//       then one JSON line of per-layer metrics taken from the run's
//       stage table, cost counters, and the observer's spans/metrics.
//
// Pipeline settings mirror the benchmark's `gas dist` invocation
// (--ranks 4 --batches 4, every other flag at its default).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exact_pairwise.hpp"
#include "bsp/cost_model.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/matrix_io.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "obs/trace.hpp"
#include "sketch/one_perm_minhash.hpp"

namespace fs = std::filesystem;
using namespace sas;

namespace {

constexpr int kRanks = 4;
constexpr std::int64_t kBatches = 4;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flat JSON object of named numbers, printed on one line.
class JsonLine {
 public:
  void add(const char* name, double value) { fields_.emplace_back(name, value); }
  void print() const {
    std::printf("{");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", fields_[i].first,
                  std::isfinite(fields_[i].second) ? fields_[i].second : 0.0);
    }
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<const char*, double>> fields_;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

core::Estimator parse_estimator(const std::string& name) {
  if (name == "exact") return core::Estimator::kExact;
  if (name == "minhash") return core::Estimator::kMinhash;
  if (name == "hybrid") return core::Estimator::kHybrid;
  throw std::invalid_argument("unknown estimator '" + name + "'");
}

int cmd_reference(const std::string& out, const std::vector<std::string>& paths) {
  std::vector<std::string> names;
  std::vector<std::vector<std::uint64_t>> sets;
  for (const std::string& path : paths) {
    genome::KmerSample sample = genome::read_sample_file(path);
    names.push_back(sample.name);
    sets.push_back(std::move(sample.kmers));
  }
  core::write_similarity_binary_file(out, names, baselines::exact_all_pairs(sets, kRanks));
  return 0;
}

int cmd_check(const std::string& mode, const std::string& ref_path,
              const std::string& out_path) {
  if (mode != "exact" && mode != "minhash" && mode != "hybrid") {
    throw std::invalid_argument("unknown check mode '" + mode + "'");
  }
  const core::NamedSimilarity ref = core::read_similarity_binary_file(ref_path);
  const std::int64_t n = ref.matrix.size();
  const core::Config defaults;
  std::int64_t pairs = 0;
  std::int64_t mismatches = 0;
  double abs_error = 0.0;
  double bound = 0.0;
  std::int64_t required = 0;

  const auto visit_pairs = [&](auto&& value_at) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        abs_error += std::fabs(value_at(i, j) - ref.matrix.similarity(i, j));
        ++pairs;
      }
    }
  };

  bool names_match = false;
  if (mode == "hybrid") {
    const core::NamedSparseSimilarity out = core::read_sparse_similarity_binary_file(out_path);
    names_match = out.names == ref.names && out.sparse.size() == n;
    if (names_match) {
      visit_pairs([&](std::int64_t i, std::int64_t j) { return out.sparse.similarity(i, j); });
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = i + 1; j < n; ++j) {
          const double exact = ref.matrix.similarity(i, j);
          if (exact < defaults.prune_threshold) continue;
          ++required;
          if (!out.sparse.is_survivor(i, j) ||
              !same_bits(out.sparse.similarity(i, j), exact)) {
            ++mismatches;
          }
        }
      }
    }
  } else {
    const core::NamedSimilarity out = core::read_similarity_binary_file(out_path);
    names_match = out.names == ref.names && out.matrix.size() == n;
    if (names_match) {
      visit_pairs([&](std::int64_t i, std::int64_t j) { return out.matrix.similarity(i, j); });
      if (mode == "exact") {
        for (std::size_t c = 0; c < ref.matrix.values().size(); ++c) {
          if (!same_bits(out.matrix.values()[c], ref.matrix.values()[c])) ++mismatches;
        }
      } else {
        bound = sketch::oph_jaccard_error_bound(defaults.sketch_size, defaults.minhash_bits);
      }
    }
  }
  const double mae = pairs > 0 ? abs_error / static_cast<double>(pairs) : 0.0;
  const bool ok = names_match && pairs > 0 && mismatches == 0 &&
                  (mode != "minhash" || mae <= bound) && (mode != "hybrid" || required > 0);
  JsonLine line;
  line.add("ok", ok ? 1.0 : 0.0);
  line.add("pairs", static_cast<double>(pairs));
  line.add("mismatches", static_cast<double>(mismatches));
  line.add("mae", mae);
  line.add("bound", bound);
  line.add("required", static_cast<double>(required));
  line.print();
  return ok ? 0 : 1;
}

/// Seconds covered by the union of one rank's spans (nesting and overlap
/// counted once).
double covered_seconds(std::vector<obs::SpanEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t end = std::numeric_limits<std::int64_t>::min();
  for (const obs::SpanEvent& ev : events) {
    const std::int64_t ev_end = ev.start_ns + ev.dur_ns;
    if (ev_end <= end) continue;
    covered += ev_end - std::max(ev.start_ns, end);
    end = ev_end;
  }
  return static_cast<double>(covered) * 1e-9;
}

/// Max over ranks of the summed duration of the spans `pick` selects.
template <typename Pick>
double max_rank_span_seconds(const obs::Observer& observer, Pick pick) {
  double best = 0.0;
  for (int r = 0; r < observer.nranks(); ++r) {
    std::int64_t ns = 0;
    for (const obs::SpanEvent& ev : observer.rank(r).events()) {
      if (pick(ev)) ns += ev.dur_ns;
    }
    best = std::max(best, static_cast<double>(ns) * 1e-9);
  }
  return best;
}

bool is_stage(const obs::SpanEvent& ev, const char* name) {
  return std::strcmp(ev.category, "stage") == 0 && std::strcmp(ev.name, name) == 0;
}

int cmd_trace(const std::string& estimator, const std::string& out_path, int k,
              const std::vector<std::string>& paths) {
  core::Config config;
  config.batch_count = kBatches;
  config.estimator = parse_estimator(estimator);

  // The three calls `gas dist` makes, in its order, each timed from outside.
  auto start = Clock::now();
  const genome::KmerFileSource source(k, paths);
  const double load_s = seconds_since(start);

  obs::Observer observer(kRanks);
  std::vector<bsp::CostCounters> counters;
  start = Clock::now();
  const core::Result result =
      core::similarity_at_scale_threaded(kRanks, source, config, &counters, &observer);
  const double pipeline_s = seconds_since(start);

  const std::vector<std::string> names = source.sample_names();
  start = Clock::now();
  if (result.sparse_output()) {
    core::write_sparse_similarity_binary_file(out_path, names, result.sparse_similarity);
  } else {
    core::write_similarity_binary_file(out_path, names, result.similarity);
  }
  const double write_s = seconds_since(start);

  std::uintmax_t input_bytes = 0;
  for (const std::string& path : paths) input_bytes += fs::file_size(path);
  const auto stage = [&](core::Stage s) -> const core::StageStats& { return result.stages[s]; };
  const std::int64_t n = result.n;
  JsonLine line;

  // The pipeline call is the benchmark's third top-level span (with the
  // load and write below); run.py divides the three by the traced process
  // wall, and the union of the program's own rank-0 spans by the call.
  line.add("harness.pipeline_s", pipeline_s);
  line.add("harness.program_span_s", covered_seconds(observer.rank(0).events()));
  line.add("harness.dropped_spans", static_cast<double>(observer.total_dropped()));

  line.add("genome.load_s", load_s);
  line.add("genome.input_bytes", static_cast<double>(input_bytes));
  line.add("genome.load_mb_s", static_cast<double>(input_bytes) * 1e-6 / load_s);

  std::int64_t filtered_rows = 0;
  std::int64_t packed_nnz = 0;
  std::int64_t max_batch_nnz = 0;
  for (const core::BatchStats& b : result.batches) {
    filtered_rows += b.filtered_rows;
    packed_nnz += b.packed_nnz;
    max_batch_nnz = std::max(max_batch_nnz, b.packed_nnz);
  }
  const double mean_batch_nnz =
      result.batches.empty() ? 0.0
                             : static_cast<double>(packed_nnz) /
                                   static_cast<double>(result.batches.size());
  line.add("core.ingest_s", stage(core::Stage::kIngest).seconds);
  // Packing proper: pack/sketch stage spans inside a batch. The sketch
  // build and candidate pass open the same stage outside any batch; they
  // are booked under sketch.stage_s.
  line.add("core.pack_s", max_rank_span_seconds(observer, [](const obs::SpanEvent& ev) {
             return is_stage(ev, "pack/sketch") && ev.batch >= 0;
           }));
  line.add("core.pack_bytes", static_cast<double>(stage(core::Stage::kPackSketch).bytes_sent));
  line.add("core.assemble_s", stage(core::Stage::kAssemble).seconds);
  line.add("core.assemble_bytes", static_cast<double>(stage(core::Stage::kAssemble).bytes_sent));
  line.add("core.filtered_rows", static_cast<double>(filtered_rows));
  line.add("core.packed_nnz", static_cast<double>(packed_nnz));
  line.add("core.batch_nnz_skew",
           mean_batch_nnz > 0.0 ? static_cast<double>(max_batch_nnz) / mean_batch_nnz : 0.0);

  std::uint64_t messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t flops_total = 0;
  std::uint64_t flops_max = 0;
  for (const bsp::CostCounters& c : counters) {
    messages += c.messages_sent;
    total_bytes += c.bytes_sent;
    flops_total += c.flops;
    flops_max = std::max(flops_max, c.flops);
  }
  double wait_max = 0.0;
  double wait_sum = 0.0;
  std::uint64_t tiles_visited = 0;
  std::array<double, obs::kPrimitiveCount> collective_s{};
  for (int r = 0; r < observer.nranks(); ++r) {
    const obs::RankObserver& rank = observer.rank(r);
    const double wait = static_cast<double>(rank.mailbox_wait_ns.sum) * 1e-9;
    wait_max = std::max(wait_max, wait);
    wait_sum += wait;
    const auto it = rank.counters().find("spgemm.tiles_visited");
    if (it != rank.counters().end()) tiles_visited += it->second;
    for (std::size_t p = 0; p < obs::kPrimitiveCount; ++p) {
      collective_s[p] = std::max(collective_s[p], rank.drift()[p].measured_seconds);
    }
  }
  const auto collective = [&](obs::Primitive p) {
    return collective_s[static_cast<std::size_t>(p)];
  };
  line.add("bsp.exchange_s", stage(core::Stage::kExchange).seconds);
  line.add("bsp.exchange_bytes", static_cast<double>(stage(core::Stage::kExchange).bytes_sent));
  line.add("bsp.total_bytes", static_cast<double>(total_bytes));
  line.add("bsp.messages", static_cast<double>(messages));
  line.add("bsp.wait_s.max", wait_max);
  line.add("bsp.wait_s.mean", wait_sum / observer.nranks());
  line.add("bsp.broadcast_s", collective(obs::Primitive::kBroadcast));
  line.add("bsp.alltoall_s", collective(obs::Primitive::kAlltoall));
  line.add("bsp.allgather_s", collective(obs::Primitive::kAllgather));
  line.add("bsp.barrier_s", collective(obs::Primitive::kBarrier));
  line.add("bsp.allreduce_s", collective(obs::Primitive::kAllreduce));

  const double multiply_s = stage(core::Stage::kMultiply).seconds;
  const double flops_mean = static_cast<double>(flops_total) / static_cast<double>(counters.size());
  line.add("distmat.multiply_s", multiply_s);
  line.add("distmat.flops_total", static_cast<double>(flops_total));
  line.add("distmat.flops_max", static_cast<double>(flops_max));
  line.add("distmat.flop_imbalance",
           flops_mean > 0.0 ? static_cast<double>(flops_max) / flops_mean : 0.0);
  line.add("distmat.gflops_max_rank",
           multiply_s > 0.0 ? static_cast<double>(flops_max) * 1e-9 / multiply_s : 0.0);
  line.add("distmat.tiles_visited", static_cast<double>(tiles_visited));

  // Sketch build (+ the hybrid's candidate pass): pack/sketch stage spans
  // outside any batch. Candidate pass alone: the lsh/* phase spans, or
  // the all-pairs scoring span.
  line.add("sketch.stage_s", max_rank_span_seconds(observer, [](const obs::SpanEvent& ev) {
             return is_stage(ev, "pack/sketch") && ev.batch < 0;
           }));
  line.add("sketch.candidate_s", max_rank_span_seconds(observer, [](const obs::SpanEvent& ev) {
             return std::strcmp(ev.category, "lsh") == 0 ||
                    std::strcmp(ev.name, "allpairs-candidates") == 0;
           }));
  const double all_pairs = static_cast<double>(n * (n - 1) / 2);
  const double surviving = config.estimator == core::Estimator::kHybrid
                               ? static_cast<double>((result.candidates.count() - n) / 2)
                               : all_pairs;
  line.add("sketch.survivor_ratio", all_pairs > 0.0 ? surviving / all_pairs : 0.0);

  line.add("matrix_io.write_s", write_s);
  line.add("matrix_io.write_bytes", static_cast<double>(fs::file_size(out_path)));
  line.print();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gasbench_harness reference OUT.sasm FILE.kmers...\n"
               "       gasbench_harness check exact|minhash|hybrid REF.sasm OUT\n"
               "       gasbench_harness trace exact|minhash|hybrid OUT K FILE.kmers...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() >= 3 && args[0] == "reference") {
      return cmd_reference(args[1], {args.begin() + 2, args.end()});
    }
    if (args.size() == 4 && args[0] == "check") return cmd_check(args[1], args[2], args[3]);
    if (args.size() >= 5 && args[0] == "trace") {
      return cmd_trace(args[1], args[2], std::stoi(args[3]), {args.begin() + 4, args.end()});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gasbench_harness: %s\n", e.what());
    return 1;
  }
  return usage();
}
