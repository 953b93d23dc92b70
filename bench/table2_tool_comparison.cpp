// table2_tool_comparison — reproduces paper Table II.
//
// The paper's Table II compares alignment-free genome-distance tools
// (DSM, Mash, Libra, GenomeAtScale) on scale dimensions: compute nodes,
// samples, data size, and similarity measure. At reproduction scale the
// same corpus is processed by the analogous tool archetypes implemented
// in this repository:
//   * GenomeAtScale (this work)  — distributed exact Jaccard, batched
//   * DSM-like                   — single-node exact Jaccard, all in RAM
//   * Mash-like                  — single-node MinHash approximation
// and the table reports measured wall time, parallelism, and accuracy
// (max |J_est − J_exact|), making the qualitative Table II quantitative.
#include <string>

#include "baselines/exact_pairwise.hpp"
#include "bench_common.hpp"
#include "genome/genome_at_scale.hpp"
#include "genome/synthetic.hpp"
#include "sketch/bottomk.hpp"

using namespace sas;
using namespace sas::bench;

int main() {
  const int n_samples = 24;
  const int k = 17;
  const std::int64_t genome_length = 25000;
  print_header("Table II — alignment-free tool comparison",
               "Besta et al., IPDPS'20, Table II",
               std::to_string(n_samples) + " synthetic WGS samples, " +
                   std::to_string(genome_length) + " bp each, k=" + std::to_string(k));

  // Corpus: three clades of related genomes, sequenced without error.
  Rng rng(2580);
  std::vector<genome::KmerSample> samples;
  std::int64_t total_bases = 0;
  const genome::KmerCodec codec(k);
  for (int clade = 0; clade < 3; ++clade) {
    const std::string ancestor = genome::random_genome(genome_length, rng);
    for (int i = 0; i < n_samples / 3; ++i) {
      const std::string individual = genome::mutate_point(ancestor, 0.01, rng);
      total_bases += static_cast<std::int64_t>(individual.size());
      samples.push_back(genome::build_sample(
          "c" + std::to_string(clade) + "_s" + std::to_string(i),
          {{"g", "", individual}}, codec));
    }
  }
  std::vector<std::vector<std::uint64_t>> sets;
  for (const auto& s : samples) sets.push_back(s.kmers);

  // GenomeAtScale (this work).
  Timer t_gas;
  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = 8;
  options.core.batch_count = 8;
  const auto gas = genome::run_genome_at_scale(samples, options);
  const double gas_time = t_gas.seconds();

  // DSM-like: single-node exact.
  Timer t_dsm;
  const auto dsm = baselines::exact_all_pairs(sets, 1);
  const double dsm_time = t_dsm.seconds();

  // Mash-like: single-node MinHash (sketch 1024, Mash's default scale).
  Timer t_mash;
  const auto mash_estimates = sketch::minhash_all_pairs(sets, 1024, 42);
  const double mash_time = t_mash.seconds();

  // Accuracy vs the exact matrix.
  const auto n = static_cast<std::int64_t>(samples.size());
  double gas_err = gas.similarity.max_abs_diff(dsm);
  double mash_err = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      mash_err = std::max(mash_err,
                          std::abs(mash_estimates[static_cast<std::size_t>(i * n + j)] -
                                   dsm.similarity(i, j)));
    }
  }

  TextTable table({"tool", "ranks", "#samples", "input size", "similarity", "wall time",
                   "max |err| vs exact"});
  table.add_row({"GenomeAtScale (this work)", std::to_string(gas.active_ranks),
                 fmt_count(static_cast<std::uint64_t>(n)),
                 fmt_bytes(static_cast<double>(total_bases)), "Jaccard (exact)",
                 fmt_duration(gas_time), fmt_fixed(gas_err, 6)});
  table.add_row({"DSM-like (single node)", "1", fmt_count(static_cast<std::uint64_t>(n)),
                 fmt_bytes(static_cast<double>(total_bases)), "Jaccard (exact)",
                 fmt_duration(dsm_time), "0.000000"});
  table.add_row({"Mash-like (MinHash s=1024)", "1",
                 fmt_count(static_cast<std::uint64_t>(n)),
                 fmt_bytes(static_cast<double>(total_bases)), "Jaccard (MinHash)",
                 fmt_duration(mash_time), fmt_fixed(mash_err, 6)});
  table.print();

  std::printf("\nPaper context (Table II, original scales):\n");
  TextTable paper({"tool", "#nodes", "#samples", "raw input", "similarity"});
  paper.add_row({"DSM", "1", "435", "3.3 TB", "Jaccard"});
  paper.add_row({"Mash", "1", "54,118", "674 GB (preproc.)", "Jaccard (MinHash)"});
  paper.add_row({"Libra", "10", "40", "372 GB", "Cosine"});
  paper.add_row({"GenomeAtScale", "1024", "446,506", "170 TB", "Jaccard"});
  paper.print();
  std::printf("\nShape to match: GenomeAtScale is the only tool that is simultaneously\n"
              "exact AND parallel beyond one node; MinHash trades accuracy for speed.\n");
  return 0;
}
