// test_fault.cpp — failure semantics of the BSP runtime (fault.hpp,
// runtime.cpp) and the checkpoint/restart path of the staged driver
// (core/checkpoint.hpp): abort propagation instead of deadlock, watchdog
// deadlines with blocked-rank diagnostics, deterministic fault injection,
// and bitwise-identical resume after a mid-run kill.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/fault.hpp"
#include "bsp/runtime.hpp"
#include "core/checkpoint.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/spgemm.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------ fault plan parsing

TEST(FaultPlan, ParsesActionLists) {
  const auto plan =
      bsp::FaultPlan::parse("rank=1:op=8:throw;rank=0:op=3:delay=50;rank=2:op=0:flip=9");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].kind, bsp::FaultKind::kThrow);
  EXPECT_EQ(plan.actions[0].rank, 1);
  EXPECT_EQ(plan.actions[0].op, 8u);
  EXPECT_EQ(plan.actions[1].kind, bsp::FaultKind::kDelay);
  EXPECT_EQ(plan.actions[1].param, 50u);
  EXPECT_EQ(plan.actions[2].kind, bsp::FaultKind::kFlip);
  EXPECT_EQ(plan.actions[2].param, 9u);

  // flip's byte offset defaults to 0; empty specs parse to empty plans.
  EXPECT_EQ(bsp::FaultPlan::parse("rank=0:op=0:flip").actions[0].param, 0u);
  EXPECT_TRUE(bsp::FaultPlan::parse("").actions.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=x:op=2:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=-3:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("op=2:rank=1:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:frobnicate"),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw=3"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:delay"), error::ConfigError);
}

TEST(FaultPlan, RandomThrowIsSeedDeterministic) {
  const auto a = bsp::FaultPlan::random_throw(77, 16, 30);
  const auto b = bsp::FaultPlan::random_throw(77, 16, 30);
  ASSERT_EQ(a.actions.size(), 1u);
  EXPECT_EQ(a.actions[0].rank, b.actions[0].rank);
  EXPECT_EQ(a.actions[0].op, b.actions[0].op);
  EXPECT_LT(a.actions[0].rank, 16);
  EXPECT_LT(a.actions[0].op, 30u);
}

// ------------------------------------------------------- abort propagation

TEST(AbortPropagation, ThrowingRankWakesBlockedPeers) {
  // Ranks 0, 2, 3 block in a receive that will never be satisfied; rank 1
  // throws. Without abort propagation this deadlocks; with it, every peer
  // unwinds promptly and the ORIGINAL error (annotated) is rethrown.
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(4, [](bsp::Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom from the failing rank");
      (void)comm.recv<std::int64_t>((comm.rank() + 1) % 4, /*tag=*/99);
    });
    FAIL() << "expected the run to rethrow the rank failure";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("boom from the failing rank"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0) << "abort propagation took too long";
}

TEST(AbortPropagation, StandardHierarchyStillCatches) {
  // The annotated rethrow derives from std::runtime_error, so existing
  // catch sites keep working.
  EXPECT_THROW(bsp::Runtime::run(
                   2,
                   [](bsp::Comm& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("x");
                     comm.barrier();
                   }),
               std::runtime_error);
}

TEST(AbortPropagation, SingleRankMessageParity) {
  // p = 1 takes the no-thread fast path; its error wrapping must match
  // the p > 1 thread path exactly.
  try {
    bsp::Runtime::run(1, [](bsp::Comm&) { throw std::runtime_error("boom"); });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_STREQ(e.what(), "rank 0: boom");
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
  }

  try {
    bsp::Runtime::run(2, [](bsp::Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom");
      (void)comm.recv<std::int64_t>(1, 7);
    });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_STREQ(e.what(), "rank 1: boom");
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
  }
}

TEST(AbortPropagation, TaxonomyCodeSurvivesAnnotation) {
  // A rank throwing a typed taxonomy error keeps its code through the
  // annotate-and-rethrow path (the gas exit-code mapping depends on it).
  try {
    bsp::Runtime::run(2, [](bsp::Comm& comm) {
      if (comm.rank() == 0) throw error::CorruptInput("bad bytes");
      comm.barrier();
    });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput);
    EXPECT_STREQ(e.what(), "rank 0: bad bytes");
  }
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, ReportsBlockedReceive) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(200);
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          // Rank 1 returns immediately; rank 0 waits for a message that
          // never comes.
          if (comm.rank() == 0) (void)comm.recv<std::int64_t>(1, /*tag=*/5);
        },
        options);
    FAIL() << "expected a watchdog timeout";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kWatchdogTimeout);
    EXPECT_NE(std::string(e.what()).find("recv(source=1, tag=5)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bsp watchdog"), std::string::npos) << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(Watchdog, ReportsBlockedBarrier) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(200);
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          if (comm.rank() == 0) comm.barrier();  // rank 1 never arrives
        },
        options);
    FAIL() << "expected a watchdog timeout";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kWatchdogTimeout);
    EXPECT_NE(std::string(e.what()).find("in barrier"), std::string::npos) << e.what();
  }
}

TEST(Watchdog, QuietRunsAreUnaffected) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(5000);
  const auto counters = bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        std::vector<std::int64_t> data = {comm.rank()};
        comm.broadcast(data, 0);
        EXPECT_EQ(data[0], 0);
        comm.barrier();
      },
      options);
  EXPECT_EQ(counters.size(), 4u);
}

// --------------------------------------------------------- fault injection

TEST(FaultInjection, InjectedThrowTerminatesCollectives) {
  bsp::RuntimeOptions options;
  options.fault_plan =
      std::make_shared<const bsp::FaultPlan>(bsp::FaultPlan::parse("rank=1:op=0:throw"));
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(
        4,
        [](bsp::Comm& comm) {
          const std::vector<std::int64_t> mine = {comm.rank()};
          const auto all =
              comm.allgather<std::int64_t>(std::span<const std::int64_t>(mine));
          (void)all;
        },
        options);
    FAIL() << "expected the injected fault to abort the run";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
    EXPECT_NE(std::string(e.what()).find("fault injection: rank 1"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(FaultInjection, DelayActionOnlySlowsTheRun) {
  bsp::RuntimeOptions options;
  options.fault_plan = std::make_shared<const bsp::FaultPlan>(
      bsp::FaultPlan::parse("rank=0:op=0:delay=60"));
  const auto start = Clock::now();
  bsp::Runtime::run(
      2,
      [](bsp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<std::int64_t>(1, 3, 42);
        } else {
          EXPECT_EQ(comm.recv<std::int64_t>(0, 3).at(0), 42);
        }
      },
      options);
  EXPECT_GE(seconds_since(start), 0.055);
}

TEST(FaultInjection, ByteFlipIsCaughtByWireValidation) {
  // Flip the top byte of the first wire word — the sketch magic — in
  // flight. The receiver's wire validation (PR 4) must reject the blob,
  // which aborts the run with a typed error instead of silently
  // estimating garbage.
  bsp::RuntimeOptions options;
  options.fault_plan = std::make_shared<const bsp::FaultPlan>(
      bsp::FaultPlan::parse("rank=0:op=0:flip=7"));
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          std::vector<std::uint64_t> kmers;
          for (std::uint64_t v = 0; v < 300; ++v) kmers.push_back(v * 17);
          const auto wire =
              sketch::OnePermMinHash(std::span<const std::uint64_t>(kmers), 64, 16, 1)
                  .wire();
          if (comm.rank() == 0) {
            comm.send<std::uint64_t>(1, 0, std::span<const std::uint64_t>(wire));
          } else {
            const auto got = comm.recv<std::uint64_t>(0, 0);
            (void)sketch::wire_type(std::span<const std::uint64_t>(got));
          }
        },
        options);
    FAIL() << "expected the flipped blob to fail wire validation";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
    EXPECT_NE(std::string(e.what()).find("not a sketch wire blob"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, FlippedSummaBroadcastHeaderFailsAsPanelWire) {
  // 2×2 SUMMA grid. Rank 3 sits at grid (1, 1). Its first 24 ops are the
  // four grid splits (one 4-rank ring allgather each: 3 sends + 3
  // receives). Op 24 posts its stage-1 transpose ahead (a self-send on
  // the diagonal); op 25 receives the stage-0 row broadcast — grid column
  // 0's L panel wire. Flipping byte 0 hits that wire's header word: the
  // decode must reject it as a typed failure naming the panel wire.
  bsp::RuntimeOptions options;
  options.fault_plan = std::make_shared<const bsp::FaultPlan>(
      bsp::FaultPlan::parse("rank=3:op=25:flip=0"));
  const std::int64_t h = 20;
  const std::int64_t n = 8;
  try {
    bsp::Runtime::run(
        4,
        [&](bsp::Comm& comm) {
          distmat::ProcGrid grid(comm, 1);
          const distmat::BlockRange chunk = distmat::block_range(h, 2, grid.grid_row());
          const distmat::BlockRange cols = distmat::block_range(n, 2, grid.grid_col());
          std::vector<distmat::Triplet<std::uint64_t>> entries;
          for (std::int64_t r = 0; r < chunk.size(); ++r) {
            for (std::int64_t c = 0; c < cols.size(); ++c) entries.push_back({r, c, 0x5});
          }
          distmat::DenseBlock<std::int64_t> b_block(distmat::block_range(n, 2, grid.grid_row()),
                                                    cols);
          distmat::summa_ata_accumulate(
              grid, h, distmat::CsrPanel::from_triplets(chunk.size(), cols.size(), entries),
              b_block);
        },
        options);
    FAIL() << "expected the flipped panel wire header to abort the run";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
    EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("panel wire: bad magic"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- seeded stress matrix

core::VectorSampleSource stress_source(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(24);
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < 220; ++v) {
      if (rng.bernoulli(0.25)) s.push_back(v);
    }
  }
  return core::VectorSampleSource(220, std::move(samples));
}

struct StressCase {
  int nranks;
  core::Estimator estimator;
};

class FaultStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(FaultStress, InjectedFailureTerminatesWithOriginalError) {
  // A random rank throws at a random early op (seeded — reruns reproduce
  // the exact failure point). The run must terminate well inside the
  // watchdog deadline and surface the injected error, across every
  // estimator's pipeline shape.
  const StressCase c = GetParam();
  const auto source = stress_source(1000 + static_cast<std::uint64_t>(c.nranks));

  core::Config config;
  config.estimator = c.estimator;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 2;
  config.watchdog_ms = 30000;  // safety net: a hang fails fast, not never
  const std::uint64_t seed =
      static_cast<std::uint64_t>(7919 * c.nranks) +
      static_cast<std::uint64_t>(c.estimator);
  // Every rank performs at least 2(p-1) >= p send/recv ops (ring
  // collectives), so an op index below p always fires.
  const auto plan = bsp::FaultPlan::random_throw(
      seed, c.nranks, static_cast<std::uint64_t>(c.nranks));
  config.fault_plan = "rank=" + std::to_string(plan.actions[0].rank) +
                      ":op=" + std::to_string(plan.actions[0].op) + ":throw";

  const auto start = Clock::now();
  try {
    (void)core::similarity_at_scale_threaded(c.nranks, source, config);
    FAIL() << "expected the injected failure to abort (plan " << config.fault_plan
           << ")";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure) << e.what();
    EXPECT_NE(std::string(e.what()).find("fault injection"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what())
                  .find("rank " + std::to_string(plan.actions[0].rank)),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 30.0) << "run did not terminate promptly";
}

INSTANTIATE_TEST_SUITE_P(
    RanksByEstimator, FaultStress,
    ::testing::Values(StressCase{2, core::Estimator::kExact},
                      StressCase{4, core::Estimator::kExact},
                      StressCase{16, core::Estimator::kExact},
                      StressCase{2, core::Estimator::kHll},
                      StressCase{4, core::Estimator::kHll},
                      StressCase{16, core::Estimator::kHll},
                      StressCase{2, core::Estimator::kMinhash},
                      StressCase{4, core::Estimator::kMinhash},
                      StressCase{16, core::Estimator::kMinhash},
                      StressCase{2, core::Estimator::kBottomK},
                      StressCase{4, core::Estimator::kBottomK},
                      StressCase{16, core::Estimator::kBottomK},
                      StressCase{2, core::Estimator::kHybrid},
                      StressCase{4, core::Estimator::kHybrid},
                      StressCase{16, core::Estimator::kHybrid}));

// ------------------------------------------------------ checkpoint/restart

/// Fresh scratch directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::Config checkpoint_config(core::Estimator estimator) {
  core::Config config;
  config.estimator = estimator;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 3;
  config.watchdog_ms = 60000;
  return config;
}

TEST(Checkpoint, ResumeAfterMidRunKillIsBitwiseIdentical) {
  const int nranks = 4;
  const auto source = stress_source(4242);
  const fs::path dir = fresh_dir("sas_ckpt_exact");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  const core::Result reference =
      core::similarity_at_scale_threaded(nranks, source, config);

  const std::uint64_t fingerprint = core::checkpoint_fingerprint(
      config, source.sample_count(), source.attribute_universe(), nranks);

  // Kill the run mid-batch by injecting a throw at increasing op indices
  // until the surviving checkpoint covers SOME but not ALL batches.
  config.checkpoint_dir = dir.string();
  bool killed_mid_run = false;
  for (std::uint64_t op = 4; op <= 400 && !killed_mid_run; op += 4) {
    fs::remove_all(dir);
    core::Config faulty = config;
    faulty.fault_plan = "rank=1:op=" + std::to_string(op) + ":throw";
    try {
      (void)core::similarity_at_scale_threaded(nranks, source, faulty);
      break;  // ops ran out before the pipeline finished injecting
    } catch (const error::Error&) {
      const core::Checkpoint ckpt(dir.string(), fingerprint);
      if (const auto manifest = ckpt.load_manifest()) {
        if (manifest->completed >= 1 && manifest->completed < config.batch_count) {
          killed_mid_run = true;
        }
      }
    }
  }
  ASSERT_TRUE(killed_mid_run)
      << "no op index landed between the first and last batch";

  // Resume from the partial checkpoint; the batch loop accumulates
  // deterministically, so the result must be bit-for-bit the reference.
  config.resume = true;
  const core::Result resumed =
      core::similarity_at_scale_threaded(nranks, source, config);
  ASSERT_EQ(resumed.n, reference.n);
  EXPECT_EQ(resumed.similarity.max_abs_diff(reference.similarity), 0.0);
  EXPECT_EQ(resumed.batches.size(), reference.batches.size());
  fs::remove_all(dir);
}

TEST(Checkpoint, HybridResumeMatchesUninterruptedRun) {
  const int nranks = 4;
  const auto source = stress_source(999);
  const fs::path dir = fresh_dir("sas_ckpt_hybrid");

  core::Config config = checkpoint_config(core::Estimator::kHybrid);
  config.prune_threshold = 0.05;
  const core::Result reference =
      core::similarity_at_scale_threaded(nranks, source, config);

  const std::uint64_t fingerprint = core::checkpoint_fingerprint(
      config, source.sample_count(), source.attribute_universe(), nranks);

  config.checkpoint_dir = dir.string();
  bool killed_mid_run = false;
  for (std::uint64_t op = 4; op <= 600 && !killed_mid_run; op += 4) {
    fs::remove_all(dir);
    core::Config faulty = config;
    faulty.fault_plan = "rank=1:op=" + std::to_string(op) + ":throw";
    try {
      (void)core::similarity_at_scale_threaded(nranks, source, faulty);
      break;
    } catch (const error::Error&) {
      const core::Checkpoint ckpt(dir.string(), fingerprint);
      if (const auto manifest = ckpt.load_manifest()) {
        if (manifest->completed >= 1 && manifest->completed < config.batch_count) {
          killed_mid_run = true;
        }
      }
    }
  }
  ASSERT_TRUE(killed_mid_run)
      << "no op index landed between the first and last rescore batch";

  config.resume = true;
  const core::Result resumed =
      core::similarity_at_scale_threaded(nranks, source, config);
  ASSERT_EQ(resumed.n, reference.n);
  ASSERT_EQ(resumed.sparse_output(), reference.sparse_output());
  EXPECT_EQ(resumed.sparse_similarity.to_dense().max_abs_diff(
                reference.sparse_similarity.to_dense()),
            0.0);
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeWithDifferentConfigIsRejected) {
  const int nranks = 2;
  const auto source = stress_source(7);
  const fs::path dir = fresh_dir("sas_ckpt_fingerprint");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.checkpoint_dir = dir.string();
  (void)core::similarity_at_scale_threaded(nranks, source, config);

  core::Config other = config;
  other.batch_count = 5;  // a different batch shape invalidates the state
  other.resume = true;
  try {
    (void)core::similarity_at_scale_threaded(nranks, source, other);
    FAIL() << "expected a fingerprint mismatch";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kConfig) << e.what();
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, CorruptedStateFileIsRejected) {
  const int nranks = 2;
  const auto source = stress_source(8);
  const fs::path dir = fresh_dir("sas_ckpt_corrupt");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.checkpoint_dir = dir.string();
  (void)core::similarity_at_scale_threaded(nranks, source, config);

  // Flip one byte in the middle of rank 1's state file; the CRC trailer
  // must catch it on resume. (The full run left its final batch-3 state.)
  const fs::path victim = dir / "rank1.b3.sasc";
  ASSERT_TRUE(fs::exists(victim));
  std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::int64_t>(file.tellg());
  ASSERT_GT(size, 32);
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();

  config.resume = true;
  try {
    (void)core::similarity_at_scale_threaded(nranks, source, config);
    FAIL() << "expected the CRC check to reject the damaged state file";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeRequiresCheckpointDir) {
  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.resume = true;
  const auto source = stress_source(9);
  EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
               error::ConfigError);
}

TEST(Checkpoint, SketchEstimatorsRejectCheckpointing) {
  core::Config config = checkpoint_config(core::Estimator::kHll);
  config.checkpoint_dir =
      (fs::temp_directory_path() / "sas_ckpt_sketch_reject").string();
  const auto source = stress_source(10);
  EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
               error::ConfigError);
}

}  // namespace
}  // namespace sas
