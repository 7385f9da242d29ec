// CRC32C pinned to known answers. Archive save and load share one checksum
// function, so a wrong CRC would round-trip unnoticed; these vectors (RFC
// 3720, appendix B.4) hold both the dispatched path and the portable table
// code to the standard values, and to each other at every length and
// alignment a short buffer can take.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "io/crc32c.hpp"

namespace {

using epismc::io::crc32c;
using epismc::io::crc32c_update;
using epismc::io::detail::crc32c_update_portable;

std::span<const std::byte> as_bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

TEST(Crc32c, MatchesRfc3720Vectors) {
  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);

  std::array<std::byte, 32> buf{};
  EXPECT_EQ(crc32c(buf), 0x8A9136AAu);
  buf.fill(std::byte{0xFF});
  EXPECT_EQ(crc32c(buf), 0x62A8AB43u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(crc32c(buf), 0x46DD794Eu);
}

TEST(Crc32c, DispatchedAndPortablePathsAgreeAtEveryLengthAndOffset) {
  // 8 start offsets cover every misalignment of the hardware path's
  // 8-byte loads; lengths 0..1024 cover its body and tail loops. On a host
  // without SSE4.2 both sides are the table code.
  constexpr std::size_t kMaxLen = 1024;
  std::vector<unsigned char> data(kMaxLen + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = data.data() + offset;
      ASSERT_EQ(crc32c_update(0, p, len), crc32c_update_portable(0, p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32c, UpdateChainsAcrossSplits) {
  std::vector<std::byte> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {0, 1, 7, 8, 9, 150, 299, 300}) {
    const std::span<const std::byte> a(data.data(), split);
    const std::span<const std::byte> b(data.data() + split,
                                       data.size() - split);
    EXPECT_EQ(crc32c_update(crc32c(a), b.data(), b.size()), whole)
        << "split at " << split;
  }
}

}  // namespace
