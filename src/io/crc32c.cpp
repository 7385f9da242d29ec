#include "io/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace epismc::io {

namespace {

// 8 derived tables for slicing-by-8; table[0] is the classic byte-at-a-
// time table for the reflected Castagnoli polynomial.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
};

Tables make_tables() {
  constexpr std::uint32_t kPoly = 0x82F63B78u;
  Tables tb;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tb.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tb.t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      crc = tb.t[0][crc & 0xFFu] ^ (crc >> 8);
      tb.t[k][i] = crc;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = make_tables();
  return tb;
}

#if defined(__x86_64__)

// The SSE4.2 crc32 instruction computes exactly this polynomial, 8 bytes
// per instruction; memcpy keeps the unaligned 8-byte loads free of UB.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
    p += 8;
    size -= 8;
  }
  while (size-- > 0) c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  return ~static_cast<std::uint32_t>(c);
}

#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*,
                                   std::size_t) noexcept;

UpdateFn select_update() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_update_sse42;
#endif
  return &detail::crc32c_update_portable;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_update_portable(std::uint32_t crc, const void* data,
                                     std::size_t size) noexcept {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                            std::size_t size) noexcept {
  static const UpdateFn update = select_update();
  return update(crc, data, size);
}

std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
  return crc32c_update(0, data.data(), data.size());
}

}  // namespace epismc::io
