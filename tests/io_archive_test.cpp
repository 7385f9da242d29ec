// Binary archive: round-trips for PODs, strings and vectors; header
// validation; truncation detection, including corrupt element counts that
// must fail typed before a loader allocates from them; the byte layout of
// the per-window records; durable (fsync + checksummed-footer) file
// save/load with a typed error taxonomy.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/particle_system.hpp"
#include "core/posterior.hpp"
#include "epi/schedule.hpp"
#include "io/binary_archive.hpp"

namespace {

using epismc::io::ArchiveError;
using epismc::io::ArchiveErrorKind;
using epismc::io::ArchiveFooter;
using epismc::io::BinaryReader;
using epismc::io::BinaryWriter;

TEST(Archive, PodRoundTrip) {
  BinaryWriter out(3);
  out.write(std::int32_t{-42});
  out.write(std::uint64_t{123456789012345ull});
  out.write(3.14159);
  out.write(true);

  BinaryReader in(out.bytes());
  EXPECT_EQ(in.version(), 3u);
  EXPECT_EQ(in.read<std::int32_t>(), -42);
  EXPECT_EQ(in.read<std::uint64_t>(), 123456789012345ull);
  EXPECT_DOUBLE_EQ(in.read<double>(), 3.14159);
  EXPECT_EQ(in.read<bool>(), true);
  EXPECT_TRUE(in.exhausted());
}

TEST(Archive, StructRoundTrip) {
  struct Pod {
    std::int32_t a;
    double b;
    std::uint8_t c;
  };
  BinaryWriter out;
  out.write(Pod{7, 2.5, 255});
  BinaryReader in(out.bytes());
  const auto p = in.read<Pod>();
  EXPECT_EQ(p.a, 7);
  EXPECT_DOUBLE_EQ(p.b, 2.5);
  EXPECT_EQ(p.c, 255);
}

TEST(Archive, StringRoundTrip) {
  BinaryWriter out;
  out.write_string("hello, archive");
  out.write_string("");
  out.write_string(std::string("embedded\0null", 13));
  BinaryReader in(out.bytes());
  EXPECT_EQ(in.read_string(), "hello, archive");
  EXPECT_EQ(in.read_string(), "");
  EXPECT_EQ(in.read_string(), std::string("embedded\0null", 13));
}

TEST(Archive, VectorRoundTrip) {
  BinaryWriter out;
  const std::vector<double> doubles = {1.0, -2.5, 1e300};
  const std::vector<std::int64_t> empty;
  out.write_vector(doubles);
  out.write_vector(empty);
  BinaryReader in(out.bytes());
  EXPECT_EQ(in.read_vector<double>(), doubles);
  EXPECT_TRUE(in.read_vector<std::int64_t>().empty());
}

TEST(Archive, BadMagicRejected) {
  std::vector<std::byte> garbage(16, std::byte{0x5A});
  EXPECT_THROW(BinaryReader{garbage}, ArchiveError);
}

TEST(Archive, TruncationDetected) {
  BinaryWriter out;
  out.write(std::uint64_t{1});
  std::vector<std::byte> bytes = out.bytes();
  bytes.resize(bytes.size() - 4);
  BinaryReader in(std::move(bytes));
  EXPECT_THROW((void)in.read<std::uint64_t>(), ArchiveError);
}

TEST(Archive, TruncatedVectorLengthDetected) {
  BinaryWriter out;
  out.write(std::uint64_t{1000000});  // claims 10^6 doubles follow
  BinaryReader in(out.bytes());
  EXPECT_THROW((void)in.read_vector<double>(), ArchiveError);
}

TEST(Archive, RemainingTracksCursor) {
  BinaryWriter out;
  out.write(std::uint32_t{5});
  BinaryReader in(out.bytes());
  EXPECT_EQ(in.remaining(), 4u);
  (void)in.read<std::uint32_t>();
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Archive, FileSaveLoad) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_test.bin";
  BinaryWriter out(9);
  out.write_string("persisted");
  out.write(std::int64_t{-99});
  out.save(path);

  BinaryReader in = BinaryReader::load(path);
  EXPECT_EQ(in.version(), 9u);
  EXPECT_EQ(in.read_string(), "persisted");
  EXPECT_EQ(in.read<std::int64_t>(), -99);
  std::filesystem::remove(path);
}

TEST(Archive, LoadMissingFileThrows) {
  try {
    (void)BinaryReader::load("/nonexistent/epismc.bin");
    FAIL() << "missing file was loaded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kIo) << e.what();
    EXPECT_TRUE(e.retryable());
  }
}

TEST(Archive, FooterSealsPayloadGenerationAndCrc) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_footer.bin";
  BinaryWriter out(4);
  out.write_string("sealed");
  out.write(std::uint64_t{7});
  out.save(path, 17);

  // On disk: the payload plus exactly one 24-byte checksummed footer.
  EXPECT_EQ(std::filesystem::file_size(path),
            out.bytes().size() + ArchiveFooter::kBytes);

  // The footer is stripped before parsing; the generation stamp survives.
  BinaryReader in = BinaryReader::load(path);
  EXPECT_EQ(in.version(), 4u);
  EXPECT_EQ(in.generation(), 17u);
  EXPECT_EQ(in.read_string(), "sealed");
  EXPECT_EQ(in.read<std::uint64_t>(), 7u);
  EXPECT_TRUE(in.exhausted());
  std::filesystem::remove(path);
}

TEST(Archive, DefaultGenerationIsZero) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_gen0.bin";
  BinaryWriter out(1);
  out.write(std::int32_t{1});
  out.save(path);
  EXPECT_EQ(BinaryReader::load(path).generation(), 0u);
  std::filesystem::remove(path);
}

TEST(Archive, BitFlipFailsCrcAsCorrupt) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_bitflip.bin";
  BinaryWriter out(1);
  for (int i = 0; i < 64; ++i) out.write(static_cast<std::uint64_t>(i));
  out.save(path);

  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(100);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(100);
  f.write(&byte, 1);
  f.close();

  try {
    (void)BinaryReader::load(path);
    FAIL() << "bit-flipped archive was loaded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kCorrupt) << e.what();
    EXPECT_FALSE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Archive, LoadEmptyFileIsTruncatedNotHugeAllocation) {
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_empty.bin";
  { std::ofstream touch(path, std::ios::binary); }
  try {
    (void)BinaryReader::load(path);
    FAIL() << "empty file was loaded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kTruncated) << e.what();
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Archive, LoadDirectoryPathIsIoError) {
  try {
    (void)BinaryReader::load(std::filesystem::temp_directory_path());
    FAIL() << "directory path was loaded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kIo) << e.what();
  }
}

TEST(Archive, PreDurabilityFileLacksFooterSeal) {
  // A raw header-only file written before the footer era (or torn right
  // after the header) must fail the seal check, not parse as empty.
  const auto path =
      std::filesystem::temp_directory_path() / "epismc_archive_prefooter.bin";
  BinaryWriter out(1);
  for (int i = 0; i < 8; ++i) out.write(std::uint64_t{0});
  {
    std::ofstream raw(path, std::ios::binary | std::ios::trunc);
    raw.write(reinterpret_cast<const char*>(out.bytes().data()),
              static_cast<std::streamsize>(out.bytes().size()));
  }
  try {
    (void)BinaryReader::load(path);
    FAIL() << "unsealed archive was loaded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kCorrupt) << e.what();
    EXPECT_NE(std::string(e.what()).find("footer"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Archive, FailedSaveCleansUpTempAndReportsIo) {
  // Renaming onto an existing directory fails after the temp file was
  // written; the save must unlink its temp and surface a retryable io
  // error rather than litter the parent directory.
  const auto dir =
      std::filesystem::temp_directory_path() / "epismc_save_target_dir";
  std::filesystem::create_directories(dir);
  BinaryWriter out(1);
  out.write(std::uint32_t{7});
  try {
    out.save(dir);
    FAIL() << "saving onto a directory succeeded";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kIo) << e.what();
    EXPECT_TRUE(e.retryable());
  }
  const std::string prefix = dir.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << "temp file leaked: " << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(Archive, ErrorKindPrefixesMessage) {
  const ArchiveError e(ArchiveErrorKind::kTruncated, "needs 8 bytes");
  EXPECT_EQ(std::string(e.what()), "[truncated] needs 8 bytes");
  EXPECT_EQ(e.kind(), ArchiveErrorKind::kTruncated);
  // The legacy single-string constructor defaults to corrupt.
  EXPECT_EQ(ArchiveError("old style").kind(), ArchiveErrorKind::kCorrupt);
}

TEST(Archive, SmcDiagnosticsRoundTripsFieldByField) {
  using epismc::core::InferenceStrategy;
  using epismc::core::SmcDiagnostics;

  SmcDiagnostics d;
  d.strategy = InferenceStrategy::kTemperedRejuvenate;
  d.triggered = true;
  d.ess_threshold = 0.5;
  d.initial_ess = 3.25;
  d.final_ess = 391.5;
  d.stages = {{0.125, 310.0, -12.5}, {0.5, 305.5, -30.25}, {1.0, 391.5, -41.0}};
  d.move_acceptance = {0.107, 0.052};
  d.rejuvenation_proposed = 2400;
  d.rejuvenation_accepted = 191;
  d.degeneracy.demoted = 2;
  d.degeneracy.draws = {11, 312};

  BinaryWriter out(SmcDiagnostics::kArchiveVersion);
  d.serialize(out);
  BinaryReader in(out.bytes());
  EXPECT_EQ(in.version(), SmcDiagnostics::kArchiveVersion);
  const SmcDiagnostics r = SmcDiagnostics::deserialize(in);
  EXPECT_TRUE(in.exhausted());

  EXPECT_EQ(r.strategy, d.strategy);
  EXPECT_EQ(r.triggered, d.triggered);
  EXPECT_EQ(r.ess_threshold, d.ess_threshold);
  EXPECT_EQ(r.initial_ess, d.initial_ess);
  EXPECT_EQ(r.final_ess, d.final_ess);
  ASSERT_EQ(r.stages.size(), d.stages.size());
  for (std::size_t i = 0; i < d.stages.size(); ++i) {
    EXPECT_EQ(r.stages[i].phi, d.stages[i].phi);
    EXPECT_EQ(r.stages[i].ess, d.stages[i].ess);
    EXPECT_EQ(r.stages[i].log_marginal_increment,
              d.stages[i].log_marginal_increment);
  }
  EXPECT_EQ(r.move_acceptance, d.move_acceptance);
  EXPECT_EQ(r.rejuvenation_proposed, d.rejuvenation_proposed);
  EXPECT_EQ(r.rejuvenation_accepted, d.rejuvenation_accepted);
  EXPECT_EQ(r.degeneracy.demoted, d.degeneracy.demoted);
  EXPECT_EQ(r.degeneracy.draws, d.degeneracy.draws);

  // Serializing the same record twice yields identical bytes: no struct
  // memcpy, so no uninitialized padding can leak into the archive.
  BinaryWriter again(SmcDiagnostics::kArchiveVersion);
  d.serialize(again);
  EXPECT_EQ(out.bytes(), again.bytes());

  // A truncated payload is detected, not misparsed.
  std::vector<std::byte> cut = out.bytes();
  cut.resize(cut.size() - 4);
  BinaryReader truncated(cut);
  EXPECT_THROW((void)SmcDiagnostics::deserialize(truncated), ArchiveError);

  // An unknown strategy tag is rejected.
  BinaryWriter bad(SmcDiagnostics::kArchiveVersion);
  bad.write(std::uint8_t{42});
  bad.write(0.0);
  BinaryReader bad_in(bad.bytes());
  EXPECT_THROW((void)SmcDiagnostics::deserialize(bad_in), ArchiveError);
}

// --- Element counts a loader allocates from. -------------------------------

void expect_truncated(BinaryReader& in, void (*load)(BinaryReader&)) {
  try {
    load(in);
    FAIL() << "a corrupt count was accepted";
  } catch (const ArchiveError& e) {
    EXPECT_EQ(e.kind(), ArchiveErrorKind::kTruncated) << e.what();
  }
}

TEST(Archive, ReadCountRejectsCountsThatCannotFit) {
  BinaryWriter out;
  out.write(std::uint64_t{3});
  out.write(std::uint64_t{0});
  out.write(std::uint64_t{0});
  out.write(std::uint64_t{0});
  {
    BinaryReader in(out.bytes());
    EXPECT_EQ(in.read_count(8), 3u);  // 24 bytes left: three fit exactly
  }
  BinaryReader in(out.bytes());
  expect_truncated(in, [](BinaryReader& r) { (void)r.read_count(9); });
}

TEST(Archive, SmcDiagnosticsHugeStageCountIsTruncated) {
  BinaryWriter out(epismc::core::SmcDiagnostics::kArchiveVersion);
  out.write(std::uint8_t{0});  // strategy
  out.write(std::uint8_t{0});  // triggered
  out.write(0.0);
  out.write(0.0);
  out.write(0.0);
  out.write(std::uint64_t{1} << 60);  // stage count
  BinaryReader in(out.bytes());
  expect_truncated(in, [](BinaryReader& r) {
    (void)epismc::core::SmcDiagnostics::deserialize(r);
  });
}

TEST(Archive, PiecewiseScheduleHugeSegmentCountIsTruncated) {
  BinaryWriter out;
  out.write(~std::uint64_t{0});  // segment count 2^64 - 1
  BinaryReader in(out.bytes());
  expect_truncated(in, [](BinaryReader& r) {
    (void)epismc::epi::PiecewiseSchedule::deserialize(r);
  });
}

// --- Per-window record layout. ------------------------------------------------
//
// The stream checkpoint and the sweep cell archive both carry these
// records; the hash pins their byte image (header + WindowPosteriorSummary
// + WindowDiagnostics) so a reordered or resized field fails here instead
// of silently breaking archives already on disk.
TEST(Archive, WindowRecordByteImageIsPinned) {
  using epismc::core::ParameterSummary;
  using epismc::core::WindowDiagnostics;
  using epismc::core::WindowPosteriorSummary;

  WindowPosteriorSummary w;
  w.from_day = 20;
  w.to_day = 33;
  w.theta = {0.25, 0.015625, 0.25, {0.1875, 0.3125}, {0.125, 0.375}};
  w.rho = {0.75, 0.0625, 0.8125, {0.625, 0.875}, {0.5, 1.0}};
  WindowDiagnostics d;
  d.ess = 12.5;
  d.perplexity = 0.25;
  d.max_weight = 0.125;
  d.log_marginal = -3.5;
  d.unique_resampled = 7;
  d.n_sims = 40;
  d.propagate_seconds = 1.5;
  d.checkpoint_seconds = 0.75;
  d.inline_capture = true;

  BinaryWriter out;
  const std::size_t header = out.size();
  w.serialize(out);
  EXPECT_EQ(out.size() - header, WindowPosteriorSummary::kArchiveBytes);
  d.serialize(out);
  EXPECT_EQ(out.size() - header, WindowPosteriorSummary::kArchiveBytes +
                                     WindowDiagnostics::kArchiveBytes);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::byte b : out.bytes()) {
    h = (h ^ static_cast<std::uint8_t>(b)) * 1099511628211ull;
  }
  EXPECT_EQ(h, 0xa4a13b345fc1dda2ull);

  BinaryReader in(out.bytes());
  const WindowPosteriorSummary rw = WindowPosteriorSummary::deserialize(in);
  const WindowDiagnostics rd = WindowDiagnostics::deserialize(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(rw.to_day, 33);
  EXPECT_EQ(rw.theta.ci90.hi, 0.375);
  EXPECT_EQ(rw.rho.ci50.lo, 0.625);
  EXPECT_EQ(rd.n_sims, 40u);
  EXPECT_EQ(rd.checkpoint_seconds, 0.75);
  EXPECT_TRUE(rd.inline_capture);
}

}  // namespace
