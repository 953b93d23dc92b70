// bench_common.hpp — shared harness for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper
// (DESIGN.md §4 maps experiment ids to binaries). Because this
// reproduction runs on a small host instead of Stampede2, each bench
// reports BOTH:
//   * measured wall-clock (threads oversubscribe the physical cores, so
//     wall speedups saturate at the core count), and
//   * the modelled BSP time from the runtime's cost counters (machine-
//     independent; this is where the paper's scaling shapes must appear).
//
// The projection convention matches the paper (Fig. 2): run a subset of
// batches, average the per-batch time after dropping warm-up batches,
// and project total time = avg_batch_time × total_batches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bsp/cost_model.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sas::bench {

/// Paper-style per-batch statistics: mean over batches after skipping
/// `warmup` of them (the paper skips the first 3 of 11 BIGSI batches).
struct BatchTiming {
  double mean_seconds = 0.0;
  double ci95 = 0.0;
  std::size_t batches_timed = 0;
};

inline BatchTiming summarize_batches(const std::vector<core::BatchStats>& batches,
                                     std::size_t warmup) {
  StatAccumulator acc;
  for (std::size_t i = warmup < batches.size() ? warmup : 0; i < batches.size(); ++i) {
    acc.add(batches[i].seconds);
  }
  return {acc.mean(), acc.ci95_halfwidth(), acc.count()};
}

/// Mean measured traffic per batch — bytes summed over ranks, from the
/// per-batch byte counters BatchStats carries (fed by the bsp cost
/// counters), so the fig2 tables report what the network actually moved
/// next to the modelled BSP time.
inline std::uint64_t mean_batch_bytes(const std::vector<core::BatchStats>& batches) {
  if (batches.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& b : batches) total += b.bytes_sent;
  return total / batches.size();
}

/// One measured configuration of the core driver.
struct RunResult {
  core::Result result;
  bsp::CostSummary cost;
  double wall_seconds = 0.0;
};

/// `observer` (optional) is bound to the rank threads for the run — the
/// drift-gate and tracing-overhead benches pass one; everything else
/// runs unobserved (null observer = one TLS load per span site).
inline RunResult run_driver(int ranks, const core::SampleSource& source,
                            const core::Config& config,
                            obs::Observer* observer = nullptr) {
  RunResult out;
  std::vector<bsp::CostCounters> counters;
  Timer timer;
  out.result =
      core::similarity_at_scale_threaded(ranks, source, config, &counters, observer);
  out.wall_seconds = timer.seconds();
  out.cost = bsp::CostSummary::aggregate(counters);
  return out;
}

/// The BSP machine used for modelled times throughout the benches; the
/// ratios (not the absolute constants) drive the reported shapes.
inline bsp::BspMachine machine() { return bsp::BspMachine{5e-6, 5e-10, 1e-9}; }

/// Resident bytes of a run's rank-0 output: the dense matrix's n²
/// doubles, or the sparse view's survivor-proportional vectors.
inline std::uint64_t result_output_bytes(const core::Result& result) {
  if (result.sparse_output()) return result.sparse_similarity.resident_bytes();
  return static_cast<std::uint64_t>(result.similarity.values().size()) * sizeof(double);
}

/// Machine-readable perf tracking: appends one JSON object per line to
/// `path` (JSON-lines, append-safe across bench binaries) recording the
/// output-path byte metrics of one driver run —
///   assemble_bytes       measured assemble-stage traffic (dense gather
///                        or survivor-triplet gather),
///   filter_union_bytes   pack/sketch-stage traffic, dominated by the
///                        per-batch zero-row filter replication,
///   peak_root_output_bytes  rank-0 resident output (n²·8 dense,
///                        survivor-proportional sparse).
/// Nothing compares these lines automatically; diff two runs' files by
/// hand to follow the byte trajectory.
inline void append_result_bytes_json(const std::string& bench, const std::string& config,
                                     const core::Result& result,
                                     const std::string& path = "BENCH_result_bytes.json") {
  std::ofstream out(path, std::ios::app);
  if (!out) return;  // benches must not fail on a read-only workdir
  // One compact object per line through the shared emitter (obs/json.hpp)
  // — same schema and byte format as before, so old and new files diff.
  obs::JsonWriter w(out);
  w.begin_object()
      .field("bench", bench)
      .field("config", config)
      .field("assemble_bytes", result.stages[core::Stage::kAssemble].bytes_sent)
      .field("filter_union_bytes", result.stages[core::Stage::kPackSketch].bytes_sent)
      .field("peak_root_output_bytes", result_output_bytes(result))
      .end_object();
  out << '\n';
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const std::string& workload) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("workload:   %s\n", workload.c_str());
  std::printf("==============================================================\n\n");
}

/// Scaled stand-ins for the paper's corpora (DESIGN.md §2 records the
/// substitution rationale and scale factors).
inline core::BernoulliSampleSource kingsford_like(std::uint64_t seed = 19) {
  // Paper: n = 2,580 RNASeq samples, A density ≈ 1.5e-4 (low variability).
  // Scaled: n = 516 (1/5), m = 2^22 rows per full pass (z ≈ 325k).
  return core::BernoulliSampleSource(/*universe=*/std::int64_t{1} << 22,
                                     /*samples=*/516, /*density=*/1.5e-4, seed);
}

inline core::BernoulliSampleSource bigsi_like(std::uint64_t seed = 31) {
  // Paper: n = 446,506 WGS samples, density ≈ 4e-12 over m = 4^31
  // (hypersparse, highly variable column density). Scaled: n = 768,
  // m = 2^27, density 2e-6 (same hypersparsity regime: ≥99.8% of rows
  // all-zero, z ≈ 206k), density spread 8x across columns as in BIGSI.
  return core::BernoulliSampleSource(/*universe=*/std::int64_t{1} << 27,
                                     /*samples=*/768, /*density=*/2e-6, seed,
                                     /*density_spread=*/8.0);
}

}  // namespace sas::bench
