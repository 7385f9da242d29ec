#pragma once

// Versioned binary serialization for simulator checkpoints.
//
// The paper's framework depends on serializing the *exact* state of the
// disease simulator ("the number of persons in each state, the future state
// transition events, the current simulated time") so calibration windows can
// restart from stored states instead of day zero. This archive provides the
// byte-level substrate: little-endian on-wire layout, magic/version header,
// and primitives for trivially-copyable types, strings and vectors.
//
// On disk every archive is durable and self-verifying. save() writes to a
// unique temp file (pid + counter, so two processes checkpointing the same
// path never collide), fsyncs the file and its parent directory, renames
// into place, and seals the frame with a footer carrying the payload
// length, a caller-supplied generation stamp (checkpoint rotation orders
// slots by it) and a CRC32C over everything before it. load() verifies the
// footer before a single payload byte is parsed, so a torn write, a
// truncation or bit rot fails with a typed ArchiveError instead of garbage
// state.
//
// Checkpoints travel between runs of the same binary on the same cluster, so
// the format targets x86-64/little-endian; a static_assert guards the
// assumption rather than paying for byte swaps in the hot path.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace epismc::io {

static_assert(std::endian::native == std::endian::little,
              "checkpoint archives assume a little-endian host");

/// What went wrong with an archive -- callers branch on this to decide
/// between "retry" (environmental io failures) and "refuse" (the bytes
/// themselves are unusable).
enum class ArchiveErrorKind : std::uint8_t {
  kIo,          // open/read/write/fsync/rename failed; retrying may succeed
  kTruncated,   // fewer bytes than the format or a length field promises
  kCorrupt,     // checksum mismatch, garbled footer, or inconsistent fields
  kVersion,     // well-formed archive from an unsupported format version
  kForeignTag,  // well-formed archive holding some other payload type
};

[[nodiscard]] const char* to_string(ArchiveErrorKind kind);

class ArchiveError : public std::runtime_error {
 public:
  /// Untyped fallback, kept so call sites migrate incrementally; reads as
  /// corrupt (the conservative "refuse" classification).
  explicit ArchiveError(const std::string& what)
      : ArchiveError(ArchiveErrorKind::kCorrupt, what) {}
  ArchiveError(ArchiveErrorKind kind, const std::string& what)
      : std::runtime_error('[' + std::string(to_string(kind)) + "] " + what),
        kind_(kind) {}

  [[nodiscard]] ArchiveErrorKind kind() const noexcept { return kind_; }
  /// True for environmental failures worth retrying; false when the bytes
  /// themselves are bad (retrying reads the same bad bytes).
  [[nodiscard]] bool retryable() const noexcept {
    return kind_ == ArchiveErrorKind::kIo;
  }

 private:
  ArchiveErrorKind kind_;
};

/// The 24-byte frame save() appends after the payload: payload length,
/// generation stamp, footer magic, and a CRC32C over every byte before
/// the crc field (payload included). Exposed so the rotation layer and
/// the checkpoint_inspect tool can peek at sealed files cheaply.
struct ArchiveFooter {
  static constexpr std::uint32_t kMagic = 0x45534346u;  // "ESCF"
  static constexpr std::size_t kBytes = 24;

  std::uint64_t payload_bytes = 0;
  std::uint64_t generation = 0;
  std::uint32_t magic = kMagic;
  std::uint32_t crc = 0;
};

/// Append-only byte sink.
class BinaryWriter {
 public:
  static constexpr std::uint32_t kMagic = 0x45534D43u;  // "ESMC"

  explicit BinaryWriter(std::uint32_t version = 1) {
    // One allocation up front for the header and the first small fields.
    // It also keeps GCC 12 from flagging the header insert into a
    // zero-capacity vector as -Wstringop-overflow.
    buffer_.reserve(64);
    write_header(version);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buffer_.insert(buffer_.end(), p, p + sizeof(T));
  }

  void write_string(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buffer_.insert(buffer_.end(), p, p + s.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(T));
  }

  /// Make room for `extra` more bytes in one allocation, so a large
  /// payload of known size is not built through a chain of doubling
  /// copies.
  void reserve(std::size_t extra) { buffer_.reserve(buffer_.size() + extra); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  /// Durable atomic persist: unique temp file (pid + counter), payload +
  /// checksummed footer stamped with `generation`, fsync of file and
  /// parent directory, rename into place. The footer is sealed without
  /// copying the payload: its CRC streams over the buffer and then the
  /// footer fields, and the two are written back to back. The temp file is
  /// removed on any failure. Throws ArchiveError (kIo) naming the failing
  /// step.
  void save(const std::filesystem::path& path,
            std::uint64_t generation = 0) const;

 private:
  void write_header(std::uint32_t version) {
    write(kMagic);
    write(version);
  }

  std::vector<std::byte> buffer_;
};

/// Sequential byte source with bounds checking.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::byte> bytes);
  /// Read + verify a sealed archive: rejects missing files, directories
  /// and empty files (kIo / kTruncated), then checks the footer magic,
  /// the declared payload length and the CRC32C before handing the
  /// payload to the in-memory constructor. Every archive load in the
  /// system goes through this verification.
  static BinaryReader load(const std::filesystem::path& path);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  /// Generation stamp from the footer (0 for in-memory readers and
  /// archives saved without one).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    require(sizeof(T));
    std::memcpy(&value, buffer_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    require(n);
    std::string s(reinterpret_cast<const char*>(buffer_.data() + cursor_), n);
    cursor_ += n;
    return s;
  }

  /// Read an element count (stored as `Count`) for a loader that allocates
  /// from it. Each element occupies at least `min_bytes_per_item` (>= 1)
  /// archive bytes, so a count that cannot fit in what is left is rejected
  /// as kTruncated before the caller reserves or resizes: a corrupt count
  /// must fail typed, not request a bogus allocation.
  template <typename Count = std::uint64_t>
    requires std::is_unsigned_v<Count>
  std::size_t read_count(std::size_t min_bytes_per_item) {
    const std::uint64_t n = read<Count>();
    if (n > remaining() / min_bytes_per_item) {
      throw ArchiveError(
          ArchiveErrorKind::kTruncated,
          "BinaryReader: count " + std::to_string(n) + " (at least " +
              std::to_string(min_bytes_per_item) +
              " bytes each) exceeds the " + std::to_string(remaining()) +
              " bytes left in the archive");
    }
    return static_cast<std::size_t>(n);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const std::size_t n = read_count(sizeof(T));
    std::vector<T> v(n);
    if (n != 0) {  // an empty vector's data() may be null; memcpy forbids it
      std::memcpy(v.data(), buffer_.data() + cursor_, n * sizeof(T));
      cursor_ += n * sizeof(T);
    }
    return v;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ == buffer_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buffer_.size() - cursor_;
  }

 private:
  void require(std::size_t n) const {
    // remaining() form: immune to cursor_ + n overflowing on a corrupt
    // 64-bit length field.
    if (n > buffer_.size() - cursor_) {
      throw ArchiveError(ArchiveErrorKind::kTruncated,
                         "BinaryReader: truncated archive (" +
                             std::to_string(n) + " bytes needed, " +
                             std::to_string(buffer_.size() - cursor_) +
                             " left)");
    }
  }

  std::vector<std::byte> buffer_;
  std::size_t cursor_ = 0;
  std::uint32_t version_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace epismc::io
