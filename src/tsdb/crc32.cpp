#include "tsdb/crc32.hpp"

#include <array>

namespace zerosum::tsdb {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight lookups fold eight bytes at once.
constexpr Tables buildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8U) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr Tables kTables = buildTables();

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t loadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) |
         (static_cast<std::uint32_t>(p[3]) << 24U);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = loadLe32(bytes) ^ c;
    const std::uint32_t hi = loadLe32(bytes + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^
        t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8U) & 0xFFU] ^ t[1][(hi >> 16U) & 0xFFU] ^
        t[0][hi >> 24U];
  }
  for (; size > 0; --size, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xFFU] ^ (c >> 8U);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace zerosum::tsdb
