// Corruption matrix for two archive loaders outside the checkpoint path:
// SupervisionReport::load (the supervisor's sealed attempt record) and
// SmcDiagnostics::deserialize (the per-window adaptive-SMC record that
// rides inside window and stream archives).
//
// Each record is mutated two ways, through two entry points:
//  * sealed file (BinaryReader::load, then the record parser): truncation
//    at every byte and a single-bit flip at every payload byte must end in
//    a typed io::ArchiveError -- the seal catches what the parser cannot;
//  * in-memory payload (BinaryReader over the raw bytes, no seal): every
//    truncation must still be a typed error, and every single-bit flip must
//    either parse or throw io::ArchiveError. This is the parser's own
//    robustness: a flipped count or length must not reach an allocation,
//    an out-of-range read or an untyped exception.
//
// This file runs in the unit group, so the sanitizer CI legs sweep the
// whole matrix under ASan + UBSan as well.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/particle_system.hpp"
#include "io/binary_archive.hpp"
#include "supervise/report.hpp"

namespace {

using namespace epismc;
using epismc::io::ArchiveError;
using epismc::io::ArchiveErrorKind;
using epismc::io::ArchiveFooter;
using epismc::io::BinaryReader;
using epismc::io::BinaryWriter;

using Bytes = std::vector<std::byte>;

std::filesystem::path scratch_path(const std::string& cell) {
  return std::filesystem::temp_directory_path() /
         ("epismc_loader_corruption_" + cell + ".bin");
}

void write_file(const std::filesystem::path& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  Bytes bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

Bytes truncated(const Bytes& bytes, std::size_t size) {
  return Bytes(bytes.begin(),
               bytes.begin() + static_cast<std::ptrdiff_t>(size));
}

Bytes bit_flipped(Bytes bytes, std::size_t offset, int bit) {
  bytes[offset] ^= std::byte{static_cast<unsigned char>(1u << bit)};
  return bytes;
}

enum class Outcome { kParsed, kTyped, kUntyped };

/// Run `parse` and classify how it ended. A typed error must not be
/// classed retryable: the bytes are bad, and a retry reads the same bytes.
Outcome classify(const std::function<void()>& parse, const std::string& cell) {
  try {
    parse();
    return Outcome::kParsed;
  } catch (const ArchiveError& e) {
    EXPECT_FALSE(e.retryable())
        << cell << ": bad bytes must not be classed retryable: " << e.what();
    return Outcome::kTyped;
  } catch (const std::exception& e) {
    ADD_FAILURE() << cell << ": untyped exception escaped: " << e.what();
    return Outcome::kUntyped;
  }
}

/// A loader under test: how to parse a sealed file, and how to parse an
/// unsealed in-memory image (header + payload, as BinaryWriter::bytes()).
struct Loader {
  std::string name;
  Bytes sealed;  // a real sealed file, footer included
  std::function<void(const std::filesystem::path&)> load_file;
  std::function<void(BinaryReader&)> parse;
};

/// Sealed path: every truncation and one bit flip per payload byte must
/// be a typed error.
void sealed_matrix(const Loader& loader) {
  const std::filesystem::path path = scratch_path(loader.name);
  const auto expect_typed = [&](const Bytes& mutant, const std::string& cell) {
    write_file(path, mutant);
    EXPECT_EQ(classify([&] { loader.load_file(path); }, cell), Outcome::kTyped)
        << cell << ": mutated sealed archive did not end in ArchiveError";
  };
  for (std::size_t cut = 0; cut < loader.sealed.size(); ++cut) {
    expect_typed(truncated(loader.sealed, cut),
                 loader.name + " truncate_" + std::to_string(cut));
  }
  const std::size_t payload = loader.sealed.size() - ArchiveFooter::kBytes;
  for (std::size_t off = 0; off < payload; ++off) {
    const int bit = static_cast<int>(off % 8);
    expect_typed(bit_flipped(loader.sealed, off, bit),
                 loader.name + " flip_" + std::to_string(off) + "_b" +
                     std::to_string(bit));
  }
  std::filesystem::remove(path);
}

/// Unsealed path: every truncation is typed; every single-bit flip either
/// parses or is typed. Returns how many flips were typed errors.
std::size_t in_memory_matrix(const Loader& loader) {
  const Bytes image = truncated(loader.sealed,
                                loader.sealed.size() - ArchiveFooter::kBytes);
  const auto parse_image = [&](const Bytes& bytes) {
    return [&loader, bytes] {
      BinaryReader in(bytes);
      loader.parse(in);
    };
  };
  EXPECT_EQ(classify(parse_image(image), loader.name + " clean"),
            Outcome::kParsed);
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const std::string cell = loader.name + " memory_truncate_" +
                             std::to_string(cut);
    EXPECT_EQ(classify(parse_image(truncated(image, cut)), cell),
              Outcome::kTyped)
        << cell << ": a torn image must not parse";
  }
  std::size_t typed = 0;
  for (std::size_t off = 0; off < image.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::string cell = loader.name + " memory_flip_" +
                               std::to_string(off) + "_b" +
                               std::to_string(bit);
      const Outcome outcome = classify(parse_image(bit_flipped(image, off, bit)),
                                       cell);
      EXPECT_NE(outcome, Outcome::kUntyped) << cell;
      if (outcome == Outcome::kTyped) ++typed;
    }
  }
  return typed;
}

supervise::SupervisionReport sample_report() {
  supervise::SupervisionReport report;
  report.seed = 0x5eedull;
  report.max_retries = 2;
  report.task_deadline_seconds = 30.0;
  report.stall_timeout_seconds = 5.0;
  report.pool_stats = "lanes=4 workers=3 peak_active=4";

  supervise::TaskReport crashed;
  crashed.name = "cell:paper-baseline/seir-event";
  crashed.kind = "sweep-cell";
  crashed.outcome = supervise::TaskOutcome::kOk;
  crashed.wall_seconds = 1.25;
  supervise::TaskAttempt first;
  first.attempt = 0;
  first.outcome = supervise::TaskOutcome::kRetryableCrash;
  first.exit_code = -1;
  first.signal = 11;
  first.wall_seconds = 0.5;
  first.note = "killed, retrying";
  supervise::TaskAttempt second;
  second.attempt = 1;
  second.outcome = supervise::TaskOutcome::kOk;
  second.exit_code = 0;
  second.wall_seconds = 0.7;
  second.backoff_seconds = 0.05;
  second.resumed = 1;
  second.recovered_generation = 7;
  crashed.attempts = {first, second};

  supervise::TaskReport clean;
  clean.name = "stream:feed.ckpt";
  clean.kind = "stream";
  clean.wall_seconds = 0.3;
  supervise::TaskAttempt only;
  only.exit_code = 0;
  only.wall_seconds = 0.3;
  clean.attempts = {only};

  report.tasks = {crashed, clean};
  return report;
}

core::SmcDiagnostics sample_diagnostics() {
  core::SmcDiagnostics d;
  d.strategy = core::InferenceStrategy::kTemperedRejuvenate;
  d.triggered = true;
  d.ess_threshold = 0.5;
  d.initial_ess = 3.5;
  d.final_ess = 40.0;
  d.stages = {{0.125, 48.0, -3.0}, {0.5, 47.5, -2.5}, {1.0, 49.0, -1.0}};
  d.move_acceptance = {0.25, 0.125};
  d.rejuvenation_proposed = 192;
  d.rejuvenation_accepted = 36;
  d.degeneracy.demoted = 2;
  d.degeneracy.draws = {3, 17};
  return d;
}

Loader supervision_report_loader() {
  const std::filesystem::path path = scratch_path("report_seed");
  sample_report().save(path);
  Loader loader{"report", read_file(path),
                [](const std::filesystem::path& p) {
                  (void)supervise::SupervisionReport::load(p);
                },
                [](BinaryReader& in) {
                  (void)supervise::SupervisionReport::deserialize(in);
                }};
  std::filesystem::remove(path);
  return loader;
}

Loader smc_diagnostics_loader() {
  const std::filesystem::path path = scratch_path("smc_seed");
  BinaryWriter out(core::SmcDiagnostics::kArchiveVersion);
  sample_diagnostics().serialize(out);
  out.save(path);
  Loader loader{"smc", read_file(path),
                [](const std::filesystem::path& p) {
                  BinaryReader in = BinaryReader::load(p);
                  (void)core::SmcDiagnostics::deserialize(in);
                },
                [](BinaryReader& in) {
                  (void)core::SmcDiagnostics::deserialize(in);
                }};
  std::filesystem::remove(path);
  return loader;
}

TEST(LoaderCorruption, SupervisionReportRoundTrips) {
  const Loader loader = supervision_report_loader();
  const std::filesystem::path path = scratch_path("report_clean");
  write_file(path, loader.sealed);
  const supervise::SupervisionReport back =
      supervise::SupervisionReport::load(path);
  std::filesystem::remove(path);
  const supervise::SupervisionReport want = sample_report();
  EXPECT_EQ(back.seed, want.seed);
  EXPECT_EQ(back.pool_stats, want.pool_stats);
  ASSERT_EQ(back.tasks.size(), 2u);
  ASSERT_EQ(back.tasks[0].attempts.size(), 2u);
  EXPECT_EQ(back.tasks[0].attempts[0].outcome,
            supervise::TaskOutcome::kRetryableCrash);
  EXPECT_EQ(back.tasks[0].attempts[1].recovered_generation, 7u);
  EXPECT_EQ(back.tasks[1].name, "stream:feed.ckpt");
}

TEST(LoaderCorruption, SupervisionReportSealedMutantsAreTyped) {
  sealed_matrix(supervision_report_loader());
}

TEST(LoaderCorruption, SupervisionReportParserMutantsAreTypedOrParse) {
  // Flips in the tag, the counts, the string lengths and the outcome
  // bytes are all caught by the parser itself.
  EXPECT_GT(in_memory_matrix(supervision_report_loader()), 0u);
}

TEST(LoaderCorruption, SmcDiagnosticsRoundTrips) {
  const Loader loader = smc_diagnostics_loader();
  BinaryReader in(truncated(loader.sealed,
                            loader.sealed.size() - ArchiveFooter::kBytes));
  const core::SmcDiagnostics back = core::SmcDiagnostics::deserialize(in);
  EXPECT_TRUE(in.exhausted());
  const core::SmcDiagnostics want = sample_diagnostics();
  EXPECT_EQ(back.strategy, want.strategy);
  EXPECT_EQ(back.stages.size(), want.stages.size());
  EXPECT_EQ(back.move_acceptance, want.move_acceptance);
  EXPECT_EQ(back.degeneracy.draws, want.degeneracy.draws);
}

TEST(LoaderCorruption, SmcDiagnosticsSealedMutantsAreTyped) {
  sealed_matrix(smc_diagnostics_loader());
}

TEST(LoaderCorruption, SmcDiagnosticsParserMutantsAreTypedOrParse) {
  EXPECT_GT(in_memory_matrix(smc_diagnostics_loader()), 0u);

  // The strategy byte directly follows the 8-byte archive header; its high
  // bit names no strategy and must be rejected as corrupt, not cast.
  const Loader loader = smc_diagnostics_loader();
  const Bytes image = bit_flipped(
      truncated(loader.sealed, loader.sealed.size() - ArchiveFooter::kBytes),
      8, 7);
  BinaryReader in(image);
  try {
    (void)core::SmcDiagnostics::deserialize(in);
    ADD_FAILURE() << "unknown strategy tag parsed";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kCorrupt) << e.what();
  }
}

}  // namespace
