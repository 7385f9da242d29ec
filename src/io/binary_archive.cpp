#include "io/binary_archive.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "fault/fault.hpp"
#include "io/crc32c.hpp"

namespace epismc::io {

const char* to_string(ArchiveErrorKind kind) {
  switch (kind) {
    case ArchiveErrorKind::kIo: return "io";
    case ArchiveErrorKind::kTruncated: return "truncated";
    case ArchiveErrorKind::kCorrupt: return "corrupt";
    case ArchiveErrorKind::kVersion: return "version";
    case ArchiveErrorKind::kForeignTag: return "foreign-tag";
  }
  return "unknown";
}

namespace {

[[noreturn]] void throw_errno(ArchiveErrorKind kind, const std::string& step,
                              const std::filesystem::path& path) {
  throw ArchiveError(kind, step + " " + path.string() + ": " +
                               std::strerror(errno));
}

/// The 24-byte footer for `payload`, CRC included. The CRC covers the
/// payload and then the three footer fields before it, so a flipped
/// length/generation/magic is caught like any payload flip; streaming the
/// two pieces through crc32c_update seals the frame without copying the
/// payload next to its footer.
std::array<std::byte, ArchiveFooter::kBytes> seal_footer(
    const std::vector<std::byte>& payload, std::uint64_t generation) {
  std::array<std::byte, ArchiveFooter::kBytes> footer{};
  const std::uint64_t payload_bytes = payload.size();
  const std::uint32_t magic = ArchiveFooter::kMagic;
  std::memcpy(footer.data(), &payload_bytes, sizeof payload_bytes);
  std::memcpy(footer.data() + 8, &generation, sizeof generation);
  std::memcpy(footer.data() + 16, &magic, sizeof magic);
  std::uint32_t crc = crc32c_update(0, payload.data(), payload.size());
  crc = crc32c_update(crc, footer.data(), ArchiveFooter::kBytes - sizeof crc);
  std::memcpy(footer.data() + 20, &crc, sizeof crc);
  return footer;
}

/// write(2) loop with EINTR handling; cleans nothing up itself.
bool write_all(int fd, const std::byte* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void fsync_directory(const std::filesystem::path& dir) {
  const std::filesystem::path target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno(ArchiveErrorKind::kIo, "cannot open directory", target);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno(ArchiveErrorKind::kIo, "fsync failed for directory", target);
  }
  ::close(fd);
}

/// The torn-write action: emulate a filesystem tearing the write by
/// putting a prefix of the sealed frame at the *final* path (no
/// temp/rename protocol) and dying, exactly what the pre-durability
/// writer risked on power loss. The only place the full frame is built.
[[noreturn]] void tear_and_die(
    const std::filesystem::path& path, const std::vector<std::byte>& payload,
    const std::array<std::byte, ArchiveFooter::kBytes>& footer,
    std::uint64_t at_byte) {
  std::vector<std::byte> frame = payload;
  frame.insert(frame.end(), footer.begin(), footer.end());
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(at_byte, frame.size()));
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd >= 0) {
    write_all(fd, frame.data(), n);
    ::close(fd);
  }
  std::_Exit(fault::kCrashExitCode);
}

}  // namespace

void BinaryWriter::save(const std::filesystem::path& path,
                        std::uint64_t generation) const {
  const auto footer = seal_footer(buffer_, generation);
  if (fault::armed()) {
    if (const auto at_byte = fault::torn_write_byte()) {
      tear_and_die(path, buffer_, footer, *at_byte);
    }
    fault::hit("archive-write");
  }

  // Unique temp name: pid guards against another process checkpointing
  // the same path, the counter against two writers in this process.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(save_counter.fetch_add(1, std::memory_order_relaxed));

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw_errno(ArchiveErrorKind::kIo, "BinaryWriter: cannot open temp file",
                tmp);
  }
  const auto fail = [&](const char* step) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());  // never leak the temp file on failure
    errno = saved_errno;
    throw_errno(ArchiveErrorKind::kIo, std::string("BinaryWriter: ") + step,
                tmp);
  };
  if (!write_all(fd, buffer_.data(), buffer_.size()) ||
      !write_all(fd, footer.data(), footer.size())) {
    fail("write failed for");
  }
  // Durability order: file contents reach stable storage before the
  // rename publishes them, and the directory entry after.
  if (::fsync(fd) != 0) fail("fsync failed for");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno(ArchiveErrorKind::kIo, "BinaryWriter: close failed for", tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    throw ArchiveError(ArchiveErrorKind::kIo,
                       "BinaryWriter: rename " + tmp.string() + " -> " +
                           path.string() + " failed: " + ec.message());
  }
  fsync_directory(path.parent_path());
}

BinaryReader::BinaryReader(std::vector<std::byte> bytes)
    : buffer_(std::move(bytes)) {
  const auto magic = read<std::uint32_t>();
  if (magic != BinaryWriter::kMagic) {
    throw ArchiveError(ArchiveErrorKind::kForeignTag,
                       "BinaryReader: bad magic (not an epismc archive)");
  }
  version_ = read<std::uint32_t>();
}

BinaryReader BinaryReader::load(const std::filesystem::path& path) {
  fault::hit("archive-read");

  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(status)) {
    throw ArchiveError(ArchiveErrorKind::kIo,
                       "BinaryReader: cannot open " + path.string() + ": " +
                           (ec ? ec.message() : "no such file"));
  }
  if (std::filesystem::is_directory(status)) {
    throw ArchiveError(
        ArchiveErrorKind::kIo,
        "BinaryReader: " + path.string() + " is a directory, not an archive");
  }

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw ArchiveError(ArchiveErrorKind::kIo,
                       "BinaryReader: cannot open " + path.string());
  }
  const std::streamsize size = in.tellg();
  if (size < 0) {
    throw ArchiveError(ArchiveErrorKind::kIo,
                       "BinaryReader: cannot determine size of " +
                           path.string());
  }
  if (size == 0) {
    throw ArchiveError(ArchiveErrorKind::kTruncated,
                       "BinaryReader: " + path.string() + " is empty");
  }
  constexpr std::size_t kMinBytes = 2 * sizeof(std::uint32_t);  // the header
  if (static_cast<std::size_t>(size) < kMinBytes + ArchiveFooter::kBytes) {
    throw ArchiveError(ArchiveErrorKind::kTruncated,
                       "BinaryReader: " + path.string() + " holds " +
                           std::to_string(size) +
                           " bytes, too few for an archive header and "
                           "footer");
  }
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    throw ArchiveError(ArchiveErrorKind::kIo,
                       "BinaryReader: read failed " + path.string());
  }

  // Verify the footer seal before any payload byte is interpreted.
  ArchiveFooter footer;
  const std::byte* f = bytes.data() + bytes.size() - ArchiveFooter::kBytes;
  std::memcpy(&footer.payload_bytes, f, sizeof footer.payload_bytes);
  std::memcpy(&footer.generation, f + 8, sizeof footer.generation);
  std::memcpy(&footer.magic, f + 16, sizeof footer.magic);
  std::memcpy(&footer.crc, f + 20, sizeof footer.crc);
  if (footer.magic != ArchiveFooter::kMagic) {
    throw ArchiveError(ArchiveErrorKind::kCorrupt,
                       "BinaryReader: " + path.string() +
                           " carries no valid footer seal (torn write, "
                           "truncation, or a pre-durability archive)");
  }
  const std::uint64_t expect_payload =
      static_cast<std::uint64_t>(bytes.size()) - ArchiveFooter::kBytes;
  if (footer.payload_bytes != expect_payload) {
    throw ArchiveError(ArchiveErrorKind::kTruncated,
                       "BinaryReader: " + path.string() +
                           " footer declares " +
                           std::to_string(footer.payload_bytes) +
                           " payload bytes but the file holds " +
                           std::to_string(expect_payload));
  }
  const std::uint32_t crc = crc32c(
      std::span<const std::byte>(bytes.data(), bytes.size() - sizeof footer.crc));
  if (crc != footer.crc) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "stored %08x, computed %08x", footer.crc,
                  crc);
    throw ArchiveError(ArchiveErrorKind::kCorrupt,
                       "BinaryReader: CRC32C mismatch in " + path.string() +
                           " (" + buf + ")");
  }

  bytes.resize(expect_payload);
  BinaryReader reader(std::move(bytes));
  reader.generation_ = footer.generation;
  return reader;
}

}  // namespace epismc::io
