// test_corruption.cpp — the corruption matrix (ISSUE 6 satellite): every
// byte-level truncation and single-byte flip of each persisted artifact
// and inter-rank panel message must either parse to a benign value or
// throw the TYPED sas::error::CorruptInput (sketch estimate layers may
// also reject with std::invalid_argument) — never crash, never allocate
// absurd memory, never silently index out of bounds. Run under
// ASan/UBSan/TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/matrix_io.hpp"
#include "core/similarity_matrix.hpp"
#include "distmat/csr.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/panel_wire.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;

// ----------------------------------------------------------- SASM matrices

std::string serialized_dense() {
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  const std::vector<double> values = {1.0, 0.5, 0.25, 0.5, 1.0, 0.125,
                                      0.25, 0.125, 1.0};
  std::ostringstream out(std::ios::binary);
  core::write_similarity_binary(out, names, core::SimilarityMatrix(3, values));
  return out.str();
}

TEST(CorruptionMatrix, DenseTruncationsAllThrowTyped) {
  const std::string bytes = serialized_dense();
  // A full read round-trips.
  {
    std::istringstream in(bytes, std::ios::binary);
    const auto loaded = core::read_similarity_binary(in);
    EXPECT_EQ(loaded.names.size(), 3u);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)core::read_similarity_binary(in), error::CorruptInput)
        << "truncation to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(CorruptionMatrix, DenseFlipsAreBenignOrTyped) {
  const std::string bytes = serialized_dense();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    std::istringstream in(flipped, std::ios::binary);
    try {
      const auto loaded = core::read_similarity_binary(in);
      (void)loaded.matrix.similarity(0, 0);  // benign parse must be usable
    } catch (const error::CorruptInput&) {
      // typed rejection: fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped the taxonomy: "
                    << e.what();
    }
  }
}

// ------------------------------------------------------------ SASP sparse

std::string serialized_sparse() {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<std::uint64_t> survivor_keys = {
      core::SparseSimilarity::pack_pair(0, 1), core::SparseSimilarity::pack_pair(1, 2)};
  std::vector<double> survivor_values = {0.5, 0.25};
  std::vector<std::uint64_t> estimate_keys = {core::SparseSimilarity::pack_pair(0, 3)};
  std::vector<double> estimate_values = {0.125};
  std::vector<std::int64_t> ahat = {10, 20, 30, 40};
  const core::SparseSimilarity sparse(4, std::move(survivor_keys),
                                      std::move(survivor_values),
                                      std::move(estimate_keys),
                                      std::move(estimate_values), std::move(ahat));
  std::ostringstream out(std::ios::binary);
  core::write_sparse_similarity_binary(out, names, sparse);
  return out.str();
}

TEST(CorruptionMatrix, SparseTruncationsAllThrowTyped) {
  const std::string bytes = serialized_sparse();
  {
    std::istringstream in(bytes, std::ios::binary);
    const auto loaded = core::read_sparse_similarity_binary(in);
    EXPECT_EQ(loaded.sparse.survivor_count(), 2);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)core::read_sparse_similarity_binary(in), error::CorruptInput)
        << "truncation to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(CorruptionMatrix, SparseFlipsAreBenignOrTyped) {
  const std::string bytes = serialized_sparse();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    std::istringstream in(flipped, std::ios::binary);
    try {
      const auto loaded = core::read_sparse_similarity_binary(in);
      (void)loaded.sparse.similarity(0, 1);  // benign parse must be usable
    } catch (const error::CorruptInput&) {
      // typed rejection (including wrapped SparseSimilarity invariants)
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped the taxonomy: "
                    << e.what();
    }
  }
}

// ------------------------------------------------------ sketch wire files

std::vector<std::uint64_t> sample_wire() {
  std::vector<std::uint64_t> kmers;
  for (std::uint64_t v = 0; v < 400; ++v) kmers.push_back(v * 13 + 1);
  return sketch::OnePermMinHash(std::span<const std::uint64_t>(kmers), 64, 16, 7)
      .wire();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CorruptionMatrix, WireFileTruncationsAreTypedOrValidated) {
  const auto wire = sample_wire();
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_wire";
  fs::create_directories(dir);
  const fs::path path = dir / "sample.sketch";

  std::string bytes(reinterpret_cast<const char*>(wire.data()), wire.size() * 8);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    try {
      const auto loaded = sketch::read_wire_file(path.string());
      // A whole-word truncation that keeps the magic reads back; the
      // estimate layer's wire validation must then either accept it (the
      // header is self-describing) or reject it — not crash.
      (void)sketch::estimate_jaccard_wire(std::span<const std::uint64_t>(loaded),
                                          std::span<const std::uint64_t>(loaded));
    } catch (const error::CorruptInput&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "truncation to " << len << " escaped: " << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, WireFileFlipsAreTypedOrValidated) {
  const auto wire = sample_wire();
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_wire_flip";
  fs::create_directories(dir);
  const fs::path path = dir / "sample.sketch";

  std::string bytes(reinterpret_cast<const char*>(wire.data()), wire.size() * 8);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    write_bytes(path, flipped);
    try {
      const auto loaded = sketch::read_wire_file(path.string());
      (void)sketch::estimate_jaccard_wire(std::span<const std::uint64_t>(loaded),
                                          std::span<const std::uint64_t>(loaded));
    } catch (const error::CorruptInput&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip at byte " << pos << " escaped: " << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, MissingWireFileIsStillAbsenceNotCorruption) {
  EXPECT_TRUE(sketch::read_wire_file("/nonexistent/sas/sketch.blob").empty());
}

// ------------------------------------------------------ .kmers sample files

constexpr int kSampleK = 6;  // universe 4^6 = 4096

std::string serialized_sample(const fs::path& path) {
  genome::write_sample_file(path.string(),
                            genome::KmerSample{"tiny", {3, 17, 255, 1000, 4095}});
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Loads one damaged sample file: it must parse to a sorted, unique set
/// inside the 4^k universe or throw error::CorruptInput naming the path.
void expect_sample_contained(const fs::path& path, const std::string& label) {
  try {
    const genome::KmerFileSource source(kSampleK, {path.string()});
    const auto codes = source.values_in_range(
        0, distmat::BlockRange{0, std::numeric_limits<std::int64_t>::max()});
    EXPECT_TRUE(std::adjacent_find(codes.begin(), codes.end(),
                                   std::greater_equal<>()) == codes.end())
        << label << ": codes not sorted and unique";
    EXPECT_TRUE(codes.empty() || codes.back() < source.attribute_universe())
        << label << ": codes outside the universe";
  } catch (const error::CorruptInput& e) {
    EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos)
        << label << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

TEST(CorruptionMatrix, SampleFileTruncationsAreTypedOrValid) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers";
  fs::create_directories(dir);
  const fs::path path = dir / "tiny.kmers";
  const std::string bytes = serialized_sample(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    expect_sample_contained(path, "truncation to " + std::to_string(len));
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, SampleFileFlipsAreTypedOrValid) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers_flip";
  fs::create_directories(dir);
  const fs::path path = dir / "tiny.kmers";
  const std::string bytes = serialized_sample(path);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xff);
    write_bytes(path, flipped);
    expect_sample_contained(path, "flip at byte " + std::to_string(pos));
  }
  fs::remove_all(dir);
}

TEST(CorruptionMatrix, MalformedSampleLinesThrowTypedWithPath) {
  const fs::path dir = fs::temp_directory_path() / "sas_corruption_kmers_lines";
  fs::create_directories(dir);
  const fs::path path = dir / "bad.kmers";
  struct Case {
    std::string text;
    const char* where;  // expected "path:line" suffix; "" when no line applies
  };
  const Case cases[] = {
      {"# s\n12abc\n", ":2:"},                 // trailing junk
      {"# s\n99999999999999999999\n", ":2:"},  // overflows uint64
      {"# s\n5\n5\n", ":3:"},                  // duplicate
      {"# s\n7\n5\n", ":3:"},                  // decreasing
      {"# s\n3\n4096\n", ""},                  // >= 4^k
      // A non-header line longer than the read buffer fails before the
      // buffer grows to hold it.
      {"# s\n" + std::string(2 * genome::kSampleReadBuffer, '7') + "\n", ":2:"},
  };
  for (const Case& c : cases) {
    write_bytes(path, c.text);
    try {
      const genome::KmerFileSource source(kSampleK, {path.string()});
      ADD_FAILURE() << "accepted: " << c.text.substr(0, 40);
    } catch (const error::CorruptInput& e) {
      EXPECT_NE(std::string(e.what()).find(path.string() + c.where), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.text.substr(0, 40) << " escaped the taxonomy: " << e.what();
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------- compressed index set decode

void expect_decode_contained(const std::vector<std::uint64_t>& words,
                             std::int64_t extent, const std::string& label) {
  try {
    const auto decoded =
        distmat::decode_index_set(std::span<const std::uint64_t>(words), extent);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_GE(decoded[i], 0) << label;
      ASSERT_LT(decoded[i], extent) << label;
    }
  } catch (const error::CorruptInput&) {
    // typed rejection: fine
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
  }
}

TEST(CorruptionMatrix, IndexSetDamageIsBenignOrTyped) {
  // Three inputs chosen to exercise all three encodings: dense (RLE),
  // huge-gap hypersparse (delta varint), and a tiny set (raw list).
  struct Shape {
    std::vector<std::int64_t> indices;
    std::int64_t extent;
  };
  std::vector<Shape> shapes;
  Shape dense;
  dense.extent = 512;
  for (std::int64_t v = 0; v < 512; v += 2) dense.indices.push_back(v);
  shapes.push_back(dense);
  Shape hypersparse;
  hypersparse.extent = std::int64_t{1} << 45;
  for (std::int64_t v = 0; v < 200; ++v) {
    hypersparse.indices.push_back(v * 33554432);
  }
  shapes.push_back(hypersparse);
  shapes.push_back(Shape{{3, 99, 1000}, 4096});

  for (const Shape& shape : shapes) {
    const auto words = distmat::encode_index_set(
        std::span<const std::int64_t>(shape.indices), shape.extent);
    const std::string mode = "mode " + std::to_string(words.empty() ? 99 : words[0]);

    // Truncations: drop trailing words one at a time.
    for (std::size_t len = 0; len < words.size(); ++len) {
      const std::vector<std::uint64_t> cut(words.begin(),
                                           words.begin() + static_cast<long>(len));
      expect_decode_contained(cut, shape.extent,
                              mode + " truncated to " + std::to_string(len));
    }

    // Byte flips in every word.
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (int byte = 0; byte < 8; ++byte) {
        std::vector<std::uint64_t> flipped = words;
        flipped[w] ^= std::uint64_t{0xff} << (byte * 8);
        expect_decode_contained(flipped, shape.extent,
                                mode + " flip word " + std::to_string(w) + " byte " +
                                    std::to_string(byte));
      }
    }
  }
}


// ---------------------------------------- panel wires and column runs

/// A decode that succeeded must describe a structurally valid panel
/// inside the caller's extents — everything the SpGEMM kernel indexes by.
void expect_valid_panel(const distmat::CsrPanel& panel, std::int64_t rows,
                        std::int64_t cols, const std::string& label) {
  ASSERT_EQ(panel.rows, rows) << label;
  ASSERT_EQ(panel.cols, cols) << label;
  ASSERT_EQ(panel.row_ptr.size(), panel.row_ids.size() + 1) << label;
  ASSERT_EQ(panel.row_ptr.front(), 0) << label;
  ASSERT_EQ(panel.row_ptr.back(), panel.nnz()) << label;
  ASSERT_EQ(panel.col_idx.size(), panel.values.size()) << label;
  for (std::int64_t k = 0; k < panel.occupied(); ++k) {
    ASSERT_GE(panel.row_id(k), k == 0 ? 0 : panel.row_id(k - 1) + 1) << label;
    ASSERT_LT(panel.row_id(k), rows) << label;
    ASSERT_LT(panel.row_begin(k), panel.row_end(k)) << label;
    for (std::int64_t e = panel.row_begin(k); e < panel.row_end(k); ++e) {
      const std::int64_t col = panel.col_idx[static_cast<std::size_t>(e)];
      ASSERT_GE(col, e == panel.row_begin(k) ? 0 : panel.col_idx[static_cast<std::size_t>(e - 1)] + 1)
          << label;
      ASSERT_LT(col, cols) << label;
    }
  }
}

/// Every truncation and single-byte flip of `words` must decode to a
/// valid panel or throw CorruptInput.
void sweep_panel_damage(
    const std::vector<std::uint64_t>& words, std::int64_t rows, std::int64_t cols,
    const std::function<distmat::CsrPanel(const std::vector<std::uint64_t>&)>& decode,
    const std::string& shape) {
  const auto check = [&](const std::vector<std::uint64_t>& damaged, const std::string& label) {
    try {
      expect_valid_panel(decode(damaged), rows, cols, label);
    } catch (const error::CorruptInput&) {
      // typed rejection: fine
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << " escaped the taxonomy: " << e.what();
    }
  };
  for (std::size_t len = 0; len < words.size(); ++len) {
    check(std::vector<std::uint64_t>(words.begin(), words.begin() + static_cast<long>(len)),
          shape + " truncated to " + std::to_string(len) + " words");
  }
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (int byte = 0; byte < 8; ++byte) {
      std::vector<std::uint64_t> flipped = words;
      flipped[w] ^= std::uint64_t{0xff} << (byte * 8);
      check(flipped, shape + " flip word " + std::to_string(w) + " byte " +
                         std::to_string(byte));
    }
  }
}

/// Three panels: dense (RLE row set), hypersparse rows past 2³² (delta
/// row set), and a single entry.
struct PanelShape {
  std::string name;
  std::int64_t rows;
  std::int64_t cols;
  std::vector<distmat::Triplet<std::uint64_t>> entries;  // (row, col) sorted
};

std::vector<PanelShape> panel_shapes() {
  std::vector<PanelShape> shapes;
  PanelShape dense{"dense", 64, 6, {}};
  Rng rng(606);
  for (std::int64_t r = 0; r < dense.rows; ++r) {
    for (std::int64_t c = 0; c < dense.cols; ++c) {
      if (rng.bernoulli(0.6)) dense.entries.push_back({r, c, rng()});
    }
  }
  shapes.push_back(dense);
  PanelShape sparse{"hypersparse", std::int64_t{1} << 40, 3, {}};
  for (std::int64_t i = 0; i < 24; ++i) {
    sparse.entries.push_back({i * 45812984497 + 11, i % 3, rng()});
  }
  shapes.push_back(sparse);
  shapes.push_back(PanelShape{"single", 5, 2, {{4, 1, 0x80}}});
  return shapes;
}

TEST(CorruptionMatrix, PanelWireDamageIsValidOrTyped) {
  for (const PanelShape& shape : panel_shapes()) {
    const distmat::CsrPanel panel =
        distmat::CsrPanel::from_triplets(shape.rows, shape.cols, shape.entries);
    const std::vector<std::uint64_t> wire = distmat::encode_panel_wire(panel);
    ASSERT_FALSE(wire.empty()) << shape.name;
    sweep_panel_damage(
        wire, shape.rows, shape.cols,
        [&](const std::vector<std::uint64_t>& words) {
          return distmat::decode_panel_wire(words, shape.rows, shape.cols);
        },
        "panel wire " + shape.name);
  }
  // The empty panel is the empty wire, and decodes to an empty panel.
  const distmat::CsrPanel empty = distmat::CsrPanel::from_triplets(7, 3, {});
  EXPECT_TRUE(distmat::encode_panel_wire(empty).empty());
  expect_valid_panel(distmat::decode_panel_wire({}, 7, 3), 7, 3, "empty wire");
}

TEST(CorruptionMatrix, ColumnRunMessageDamageIsValidOrTyped) {
  for (const PanelShape& shape : panel_shapes()) {
    distmat::ColumnRuns runs;
    for (std::int64_t c = 0; c < shape.cols; ++c) {
      for (const auto& t : shape.entries) {
        if (t.col != c) continue;
        runs.rows.push_back(t.row);
        runs.masks.push_back(t.value);
      }
      runs.close_run(c);
    }
    const auto messages = distmat::encode_column_runs(
        runs, distmat::serial_owner_map(shape.rows, shape.cols), 1);
    ASSERT_EQ(messages.size(), 1u);
    sweep_panel_damage(
        messages[0], shape.rows, shape.cols,
        [&](const std::vector<std::uint64_t>& words) {
          const std::vector<std::vector<std::uint64_t>> one{words};
          return distmat::decode_column_runs(one, shape.rows, shape.cols);
        },
        "column runs " + shape.name);
    // A column arriving twice (from one message or two) is corruption,
    // not a second contribution.
    const std::vector<std::vector<std::uint64_t>> twice{messages[0], messages[0]};
    EXPECT_THROW((void)distmat::decode_column_runs(twice, shape.rows, shape.cols),
                 error::CorruptInput)
        << shape.name;
  }
}

}  // namespace
}  // namespace sas
