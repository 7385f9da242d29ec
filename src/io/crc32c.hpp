#pragma once

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) -- the checksum
// sealing every on-disk archive (see binary_archive.hpp). x86-64 hosts
// with SSE4.2 use the crc32 instruction, selected once at first call;
// every other host runs the slicing-by-8 table code. Both give identical
// values. The hardware path matters because a streaming session seals a
// multi-megabyte checkpoint every few days and verifies it again on
// resume: on 10.5 MB the table code takes about 8.1 ms and the crc32
// instruction about 2.3 ms (median of 21, one core of a Xeon host). The
// choice of CRC32C (over zlib's CRC32) matches what filesystems and
// storage stacks use for the same torn-write/bit-rot detection job.

#include <cstddef>
#include <cstdint>
#include <span>

namespace epismc::io {

/// One-shot checksum of `data`.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data) noexcept;

/// Streaming form: feed `crc` of the previous chunk back in (start from
/// 0). crc32c(a ++ b) == crc32c_update(crc32c(a), b).
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                                          std::size_t size) noexcept;

namespace detail {

/// The slicing-by-8 table implementation crc32c_update falls back to on
/// hosts without SSE4.2; exposed so tests can hold the dispatched path to
/// it on any host.
[[nodiscard]] std::uint32_t crc32c_update_portable(std::uint32_t crc,
                                                   const void* data,
                                                   std::size_t size) noexcept;

}  // namespace detail

}  // namespace epismc::io
