// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
// guarding WAL records and segment footers.  It runs over every WAL
// record on the daemon's append path, so it is slice-by-8: eight
// 256-entry tables, built at compile time, fold eight bytes per step.
// BM_Crc32 (bench/bench_micro.cpp) reads about 1.5 GB/s on 1 KiB-64 KiB
// buffers on a 4-vCPU Xeon VM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace zerosum::tsdb {

/// CRC of `size` bytes, continuing from `seed` (pass the previous return
/// value to checksum a logical record split across buffers).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace zerosum::tsdb
