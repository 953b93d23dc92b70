// test_integration.cpp — cross-module, end-to-end scenarios:
//  * FASTA files on disk → GenomeAtScale → matrix matching the exact
//    single-node baseline on the same k-mer sets,
//  * evolved populations → distances tracking the mutation model, feeding
//    neighbor joining and clustering that recover the planted structure,
//  * PHYLIP export of a real pipeline result,
//  * the three computation paths (driver, MapReduce baseline, exact
//    pairwise) agreeing on identical genomic inputs,
//  * the gas CLI's failure-taxonomy exit codes, driven against the real
//    binary (GAS_BIN, set by ctest) — skipped when GAS_BIN is unset.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/clustering.hpp"
#include "analysis/neighbor_joining.hpp"
#include "baselines/exact_pairwise.hpp"
#include "baselines/mapreduce_jaccard.hpp"
#include "core/driver.hpp"
#include "genome/genome_at_scale.hpp"
#include "genome/kmer_source.hpp"
#include "genome/kmer_spectrum.hpp"
#include "genome/phylip.hpp"
#include "genome/synthetic.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;

genome::GenomeAtScaleOptions small_options(int k) {
  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = 4;
  options.core.batch_count = 3;
  return options;
}

TEST(Integration, FastaFilesToSimilarityMatrix) {
  // Three related genomes written as FASTA files, processed end-to-end.
  Rng rng(42);
  const std::string base = genome::random_genome(8000, rng);
  const std::vector<std::string> genomes{
      base, genome::mutate_point(base, 0.01, rng), genome::mutate_point(base, 0.2, rng)};

  const fs::path dir = fs::temp_directory_path() / "sas_integration_fasta";
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const fs::path path = dir / ("sample" + std::to_string(i) + ".fa");
    genome::write_fasta_file(path.string(),
                             {{"g" + std::to_string(i), "", genomes[i]}});
    paths.push_back(path.string());
  }

  const auto result = genome::run_genome_at_scale_fasta(paths, small_options(17));
  ASSERT_EQ(result.sample_names.size(), 3u);
  EXPECT_EQ(result.sample_names[0], "sample0");

  // Cross-check against the exact baseline on the same k-mer sets.
  const genome::KmerCodec codec(17);
  std::vector<std::vector<std::uint64_t>> sets;
  for (const auto& g : genomes) {
    sets.push_back(genome::build_sample("s", {{"r", "", g}}, codec).kmers);
  }
  const auto exact = baselines::exact_all_pairs(sets);
  EXPECT_EQ(result.similarity.max_abs_diff(exact), 0.0);

  // The closer mutant must be more similar.
  EXPECT_GT(result.similarity.similarity(0, 1), result.similarity.similarity(0, 2));
  fs::remove_all(dir);
}

TEST(Integration, MutationModelShapesTheMatrix) {
  Rng rng(77);
  const int k = 15;
  const std::string base = genome::random_genome(40000, rng);
  const std::vector<double> targets{0.9, 0.6, 0.3};
  const genome::KmerCodec codec(k);
  std::vector<genome::KmerSample> samples{
      genome::build_sample("base", {{"g", "", base}}, codec)};
  for (double target : targets) {
    const double rate = genome::mutation_rate_for_jaccard(k, target);
    samples.push_back(genome::build_sample(
        "m" + std::to_string(target),
        {{"g", "", genome::mutate_point(base, rate, rng)}}, codec));
  }
  const auto result = genome::run_genome_at_scale(samples, small_options(k));
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_NEAR(result.similarity.similarity(0, static_cast<std::int64_t>(t) + 1),
                targets[t], 0.08)
        << "target " << targets[t];
  }
}

TEST(Integration, EvolvedPopulationClustersAndTreeStructure) {
  Rng rng(123);
  // Two well-separated clades: evolve two ancestors independently.
  const std::string ancestor_a = genome::random_genome(12000, rng);
  const std::string ancestor_b = genome::random_genome(12000, rng);
  const auto clade_a = genome::evolve_population(ancestor_a, 3, 0.005, rng);
  const auto clade_b = genome::evolve_population(ancestor_b, 3, 0.005, rng);

  const genome::KmerCodec codec(15);
  std::vector<genome::KmerSample> samples;
  std::vector<std::string> names;
  for (const auto& g : clade_a.leaf_genomes) {
    names.push_back("a" + std::to_string(samples.size()));
    samples.push_back(genome::build_sample(names.back(), {{"g", "", g}}, codec));
  }
  for (const auto& g : clade_b.leaf_genomes) {
    names.push_back("b" + std::to_string(samples.size()));
    samples.push_back(genome::build_sample(names.back(), {{"g", "", g}}, codec));
  }

  const auto result = genome::run_genome_at_scale(samples, small_options(15));
  const auto distances = result.similarity.distance_matrix();

  // Clustering recovers the two clades.
  const auto merges = analysis::hierarchical_cluster(distances, 6, analysis::Linkage::kAverage);
  const auto labels = analysis::cut_dendrogram(merges, 6, 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[3], labels[5]);
  EXPECT_NE(labels[0], labels[3]);

  // Neighbor joining: the two clades must be separated in the tree (all
  // within-clade cophenetic distances below every cross-clade one).
  const auto tree = analysis::neighbor_joining(distances, names);
  const auto leaves = tree.leaves();
  const auto coph = tree.cophenetic_distances();
  std::vector<int> clade_of(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    clade_of[i] = tree.node(leaves[i]).name[0] == 'a' ? 0 : 1;
  }
  double max_within = 0.0;
  double min_across = 1e9;
  const auto nl = static_cast<std::int64_t>(leaves.size());
  for (std::int64_t i = 0; i < nl; ++i) {
    for (std::int64_t j = i + 1; j < nl; ++j) {
      const double d = coph[static_cast<std::size_t>(i * nl + j)];
      if (clade_of[static_cast<std::size_t>(i)] == clade_of[static_cast<std::size_t>(j)]) {
        max_within = std::max(max_within, d);
      } else {
        min_across = std::min(min_across, d);
      }
    }
  }
  EXPECT_LT(max_within, min_across);
}

TEST(Integration, PhylipExportOfPipelineResult) {
  Rng rng(5);
  const std::string base = genome::random_genome(5000, rng);
  const genome::KmerCodec codec(13);
  std::vector<genome::KmerSample> samples;
  for (int i = 0; i < 4; ++i) {
    samples.push_back(genome::build_sample(
        "s" + std::to_string(i),
        {{"g", "", genome::mutate_point(base, 0.02 * i, rng)}}, codec));
  }
  const auto result = genome::run_genome_at_scale(samples, small_options(13));

  const fs::path path = fs::temp_directory_path() / "sas_integration.phylip";
  genome::write_phylip_file(path.string(), result.sample_names,
                            result.similarity.distance_matrix(), 4);
  std::ifstream in(path);
  const auto parsed = genome::read_phylip(in);
  EXPECT_EQ(parsed.n, 4);
  EXPECT_EQ(parsed.names, result.sample_names);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(parsed.distances[static_cast<std::size_t>(i * 4 + j)],
                  result.similarity.distance(i, j), 1e-6);
    }
  }
  fs::remove(path);
}

TEST(Integration, AllThreeComputationPathsAgree) {
  Rng rng(31);
  const std::string base = genome::random_genome(6000, rng);
  const genome::KmerCodec codec(13);
  std::vector<genome::KmerSample> samples;
  std::vector<std::vector<std::uint64_t>> sets;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(genome::build_sample(
        "s" + std::to_string(i),
        {{"g", "", genome::mutate_point(base, 0.01 * i, rng)}}, codec));
    sets.push_back(samples.back().kmers);
  }
  genome::KmerSampleSource source(13, samples);

  core::Config cfg;
  cfg.batch_count = 2;
  const auto driver = core::similarity_at_scale_threaded(6, source, cfg);
  const auto mapreduce = baselines::mapreduce_jaccard_threaded(6, source, 2);
  const auto exact = baselines::exact_all_pairs(sets);

  EXPECT_EQ(driver.similarity.max_abs_diff(exact), 0.0);
  EXPECT_EQ(mapreduce.max_abs_diff(exact), 0.0);
}

TEST(Integration, FastqReadsThroughFullPipeline) {
  // Raw sequencing reads (FASTQ, with errors) -> spectrum threshold ->
  // distributed similarity: the Part I -> Part II path of Fig. 1 on the
  // read-level input the real corpora consist of.
  Rng rng(2021);
  const int k = 15;
  const genome::KmerCodec codec(k);
  const std::string base = genome::random_genome(9000, rng);
  const std::vector<std::string> genomes{base, genome::mutate_point(base, 0.02, rng),
                                         genome::random_genome(9000, rng)};

  const fs::path dir = fs::temp_directory_path() / "sas_integration_fastq";
  fs::create_directories(dir);
  std::vector<genome::KmerSample> samples;
  for (std::size_t g = 0; g < genomes.size(); ++g) {
    auto reads = genome::simulate_reads(genomes[g], 90, 25.0, 0.004, rng);
    // Write + re-read as FASTQ to exercise the format path.
    const fs::path path = dir / ("s" + std::to_string(g) + ".fq");
    {
      std::ofstream out(path);
      for (const auto& read : reads) {
        out << '@' << read.id << '\n'
            << read.sequence << "\n+\n"
            << std::string(read.sequence.size(), 'I') << '\n';
      }
    }
    const auto parsed = genome::read_fastq_file(path.string());
    ASSERT_EQ(parsed.size(), reads.size());
    const int threshold =
        genome::suggest_min_count(genome::build_spectrum(parsed, codec));
    EXPECT_GT(threshold, 1);  // noisy reads must trigger a real cutoff
    samples.push_back(genome::build_sample("s" + std::to_string(g), parsed, codec,
                                           threshold));
  }

  genome::GenomeAtScaleOptions options;
  options.k = k;
  options.ranks = 4;
  options.core.batch_count = 3;
  const auto result = genome::run_genome_at_scale(samples, options);
  // Related pair clearly more similar than the unrelated one, and close
  // to the mutation model despite sequencing noise.
  EXPECT_GT(result.similarity.similarity(0, 1), 0.3);
  EXPECT_LT(result.similarity.similarity(0, 2), 0.05);
  EXPECT_NEAR(result.similarity.similarity(0, 1),
              genome::expected_jaccard_after_mutation(k, 0.02), 0.12);
  fs::remove_all(dir);
}

TEST(Integration, FileBackedSourceMatchesInMemory) {
  Rng rng(64);
  const genome::KmerCodec codec(11);
  const fs::path dir = fs::temp_directory_path() / "sas_integration_samples";
  fs::create_directories(dir);
  std::vector<genome::KmerSample> samples;
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    samples.push_back(genome::build_sample(
        "s" + std::to_string(i), {{"g", "", genome::random_genome(2000, rng)}}, codec));
    const fs::path path = dir / ("s" + std::to_string(i) + ".kmers");
    genome::write_sample_file(path.string(), samples.back());
    paths.push_back(path.string());
  }
  const genome::KmerFileSource from_files(11, paths);
  const genome::KmerSampleSource in_memory(11, samples);

  const auto a = core::similarity_at_scale_threaded(2, from_files, core::Config{});
  const auto b = core::similarity_at_scale_threaded(2, in_memory, core::Config{});
  EXPECT_EQ(a.similarity.max_abs_diff(b.similarity), 0.0);
  fs::remove_all(dir);
}

// ------------------------------------------------------ gas CLI exit codes
//
// The error taxonomy doubles as the gas process exit code (0 ok,
// 1 generic, 2 config/usage, 3 corrupt input, 4 rank failure, 5 watchdog
// timeout). These tests exercise the REAL binary end-to-end: ctest
// exports its path as GAS_BIN; when absent (manual runs of the bare test
// executable) the tests skip rather than fail.

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// A tiny on-disk corpus for driving the binary: three k=11 samples.
class GasCli : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* bin = std::getenv("GAS_BIN");
    if (bin == nullptr || *bin == '\0') {
      GTEST_SKIP() << "GAS_BIN not set (run via ctest)";
    }
    bin_ = bin;
    dir_ = fs::temp_directory_path() /
           ("sas_gas_cli_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Rng rng(77);
    const genome::KmerCodec codec(11);
    for (int i = 0; i < 3; ++i) {
      const auto sample = genome::build_sample(
          "s" + std::to_string(i), {{"g", "", genome::random_genome(2000, rng)}},
          codec);
      const fs::path path = dir_ / ("s" + std::to_string(i) + ".kmers");
      genome::write_sample_file(path.string(), sample);
      samples_ += " " + path.string();
    }
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::string dist(const std::string& extra) const {
    return bin_ + " dist" + samples_ + " --k 11 --ranks 2 --batches 3 " + extra;
  }

  std::string bin_;
  fs::path dir_;
  std::string samples_;  // " path0 path1 path2"
};

TEST_F(GasCli, CleanRunExitsZero) {
  const auto result = run_command(dist("--algorithm ring"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST_F(GasCli, UsageErrorsExitWithConfigCode) {
  EXPECT_EQ(run_command(dist("--algorithm bogus")).exit_code, 2);
  EXPECT_EQ(run_command(dist("--resume")).exit_code, 2);  // no --checkpoint
  EXPECT_EQ(run_command(dist("--watchdog-ms -5")).exit_code, 2);
  EXPECT_EQ(run_command(dist("--fault-plan rank=0:op=zero:throw")).exit_code, 2);
}

TEST_F(GasCli, MissingInputExitsWithConfigCode) {
  // A nonexistent input path is a usage error, not an unclassified
  // failure: loaders throw error::ConfigError since the typed-error
  // migration (lint rule R3), so the CLI reports the config code.
  const auto result =
      run_command(bin_ + " dist /nonexistent/a.kmers /nonexistent/b.kmers --k 11");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST_F(GasCli, CorruptPersistedSketchExitsWithCorruptCode) {
  // An EXISTING but malformed persisted sketch blob must abort the run
  // with the corrupt-input code — silently re-sketching would mask rot.
  {
    std::ofstream blob(dir_ / "s0.kmers.minhash.sketch", std::ios::binary);
    blob << "\xff\xff\xff\xff\xff\xff\xff\xff";  // one word, bad magic
  }
  const auto result = run_command(dist("--estimator minhash --algorithm ring"));
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("sketch"), std::string::npos) << result.output;
}

TEST_F(GasCli, MalformedSampleFileExitsWithCorruptCode) {
  // Each malformed .kmers line is typed corrupt input naming the file,
  // whichever of the three inputs it sits in.
  const fs::path bad = dir_ / "s1.kmers";
  for (const char* text : {"# s1\n12abc\n", "# s1\n99999999999999999999\n",
                           "# s1\n5\n5\n", "# s1\n7\n5\n", "# s1\n4194304\n"}) {
    std::ofstream(bad, std::ios::trunc) << text;
    const auto result = run_command(dist("--algorithm ring"));
    EXPECT_EQ(result.exit_code, 3) << text << result.output;
    EXPECT_NE(result.output.find(bad.string()), std::string::npos) << result.output;
  }
}

TEST_F(GasCli, InjectedFaultExitsWithRankFailureCode) {
  const auto result =
      run_command(dist("--algorithm ring --fault-plan rank=1:op=2:throw"));
  EXPECT_EQ(result.exit_code, 4) << result.output;
  EXPECT_NE(result.output.find("fault injection"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("rank 1"), std::string::npos) << result.output;
}

TEST_F(GasCli, WatchdogExpiryExitsWithTimeoutCode) {
  // Rank 1 sleeps through its first op; rank 0 blocks waiting on it past
  // the 150 ms deadline. The report must name the blocked primitive.
  const auto result = run_command(
      dist("--algorithm ring --watchdog-ms 150 --fault-plan rank=1:op=0:delay=2000"));
  EXPECT_EQ(result.exit_code, 5) << result.output;
  EXPECT_NE(result.output.find("watchdog"), std::string::npos) << result.output;
}

TEST_F(GasCli, CheckpointResumeReproducesUninterruptedRun) {
  const fs::path ref_tsv = dir_ / "ref.tsv";
  const fs::path resumed_tsv = dir_ / "resumed.tsv";
  const fs::path ckpt = dir_ / "ckpt";

  const auto reference =
      run_command(dist("--algorithm ring --tsv " + ref_tsv.string()));
  ASSERT_EQ(reference.exit_code, 0) << reference.output;

  // Kill the checkpointed run mid-flight, then resume it to completion.
  const auto killed = run_command(dist("--algorithm ring --checkpoint " +
                                       ckpt.string() +
                                       " --fault-plan rank=1:op=6:throw"));
  ASSERT_EQ(killed.exit_code, 4) << killed.output;
  const auto resumed = run_command(dist("--algorithm ring --checkpoint " +
                                        ckpt.string() + " --resume --tsv " +
                                        resumed_tsv.string()));
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;

  const auto slurp = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string ref_bytes = slurp(ref_tsv);
  ASSERT_FALSE(ref_bytes.empty());
  EXPECT_EQ(ref_bytes, slurp(resumed_tsv));
}

}  // namespace
}  // namespace sas
