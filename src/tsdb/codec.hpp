// Compression kernels for the persistent time-series store (src/tsdb).
//
// Three standalone, exhaustively round-trip-tested codecs, composed by
// the segment writer into per-series column blocks:
//
//   * varint/zigzag  — LEB128-style unsigned varints plus the zigzag
//     signed mapping, the framing primitive for everything below;
//   * timestamps     — delta-of-delta over int64 window indices /
//     quantized ticks (Gorilla §4.1.1 spirit, varint-framed rather than
//     bit-packed: monitoring windows are regular, so the second delta is
//     almost always zero and costs one byte);
//   * values         — Gorilla §4.1.2 XOR float compression, bit-packed:
//     each double is XORed with its predecessor and the meaningful bits
//     are stored with leading/trailing-zero windows reused from the
//     previous value when they still fit.  Lossless for every bit
//     pattern including -0.0, infinities, and NaNs.
//
// All decode paths are strict: truncated or trailing bytes throw
// ParseError — a segment that fails to decode must be detected, never
// silently misread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zerosum::tsdb {

// --- bit-level I/O ---------------------------------------------------------

/// Append-only MSB-first bit buffer (the Gorilla value codec needs
/// sub-byte control codes; everything else is byte-aligned varints).
/// Bits gather in a 64-bit word that reaches `out` eight bytes at a time,
/// so `out` holds every written bit only after flush().
class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}
  ~BitWriter() { flush(); }

  BitWriter(const BitWriter&) = delete;
  BitWriter& operator=(const BitWriter&) = delete;

  /// Appends the low `bits` bits of `value`, most significant first.
  void write(std::uint64_t value, unsigned bits);
  void writeBit(bool bit) { write(bit ? 1 : 0, 1); }

  /// Appends the pending bits, the last byte padded with zero bits.
  /// Implicit in the destructor; idempotent.
  void flush();

 private:
  std::string& out_;
  std::uint64_t pending_ = 0;  ///< the low pendingBits_ bits, MSB first
  unsigned pendingBits_ = 0;   ///< < 64 between calls
};

/// MSB-first bit reader over a byte range; read past the end throws
/// ParseError.
class BitReader {
 public:
  BitReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit BitReader(const std::string& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads `bits` bits, most significant first.
  [[nodiscard]] std::uint64_t read(unsigned bits);
  [[nodiscard]] bool readBit() { return read(1) != 0; }

  /// Bytes consumed, counting a partially-read byte as consumed.
  [[nodiscard]] std::size_t bytesConsumed() const {
    return pos_ + (bit_ != 0 ? 1 : 0);
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;   ///< next byte index
  unsigned bit_ = 0;      ///< next bit within data_[pos_], 0 = MSB
};

// --- varint / zigzag -------------------------------------------------------

/// Appends an LEB128 unsigned varint (7 bits per byte, high bit = more).
void putVarint(std::string& out, std::uint64_t value);

/// Reads one varint from `data` at `pos`, advancing `pos`; throws
/// ParseError on truncation or a varint longer than 10 bytes.  Every
/// decoder reads a std::string_view, so a segment's blocks decode where
/// they are mapped.
std::uint64_t getVarint(std::string_view data, std::size_t& pos);

/// Zigzag mapping: 0,-1,1,-2,... -> 0,1,2,3,...
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1U) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1U) ^
         -static_cast<std::int64_t>(v & 1U);
}

// --- timestamp column (delta-of-delta) -------------------------------------

/// Encodes a monotone-or-not int64 sequence as
/// [varint count][zigzag first][zigzag delta0][zigzag ddelta...].
/// Regular sampling makes every second-order delta zero: one byte each.
void encodeTimestamps(const std::vector<std::int64_t>& ts, std::string& out);

/// Decodes one timestamp column starting at `pos`, advancing `pos`.
std::vector<std::int64_t> decodeTimestamps(std::string_view data,
                                           std::size_t& pos);

// --- value column (Gorilla XOR) --------------------------------------------

/// Encodes doubles losslessly: [varint count][varint bit-packed length]
/// [XOR bit stream].  Control codes per value: '0' = identical to the
/// previous value; '10' = XOR fits the previous leading/length window;
/// '11' = 5-bit leading-zero count + 6-bit significant-bit count + bits.
void encodeValues(const std::vector<double>& values, std::string& out);

/// Decodes one value column starting at `pos`, advancing `pos`.
std::vector<double> decodeValues(std::string_view data, std::size_t& pos);

// --- count column (varint) -------------------------------------------------

/// Encodes u64 counts as [varint count][varint...]; window sample counts
/// are small and near-constant, so plain varints beat bit tricks.
void encodeCounts(const std::vector<std::uint64_t>& counts, std::string& out);
std::vector<std::uint64_t> decodeCounts(std::string_view data,
                                        std::size_t& pos);

}  // namespace zerosum::tsdb
