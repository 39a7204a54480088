#include "tsdb/codec.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace zerosum::tsdb {

// --- BitWriter -------------------------------------------------------------

void BitWriter::write(std::uint64_t value, unsigned bits) {
  if (bits > 64) {
    throw StateError("BitWriter: more than 64 bits at once");
  }
  if (bits == 0) {
    return;
  }
  if (bits < 64) {
    value &= (std::uint64_t{1} << bits) - 1U;
  }
  const unsigned total = pendingBits_ + bits;
  if (total < 64) {
    pending_ = (pending_ << bits) | value;  // bits < 64 here
    pendingBits_ = total;
    return;
  }
  // The word fills: its top is the pending bits, the rest the high bits
  // of `value`; the low `spill` bits of `value` stay pending.  Every
  // shift count is below 64.
  const unsigned spill = total - 64;
  const std::uint64_t word =
      pendingBits_ == 0 ? value
                        : (pending_ << (64 - pendingBits_)) | (value >> spill);
  char bytes[8];
  for (unsigned i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(word >> (56 - 8 * i));
  }
  out_.append(bytes, sizeof(bytes));
  pending_ = spill == 0 ? 0 : value & ((std::uint64_t{1} << spill) - 1U);
  pendingBits_ = spill;
}

void BitWriter::flush() {
  if (pendingBits_ == 0) {
    return;
  }
  const std::uint64_t word = pending_ << (64 - pendingBits_);
  for (unsigned i = 0; i * 8 < pendingBits_; ++i) {
    out_.push_back(static_cast<char>(word >> (56 - 8 * i)));
  }
  pending_ = 0;
  pendingBits_ = 0;
}

// --- BitReader -------------------------------------------------------------

std::uint64_t BitReader::read(unsigned bits) {
  if (bits > 64) {
    throw ParseError("BitReader: more than 64 bits at once");
  }
  std::uint64_t value = 0;
  while (bits > 0) {
    if (pos_ >= size_) {
      throw ParseError("tsdb codec: bit stream truncated");
    }
    const auto byte = static_cast<std::uint8_t>(data_[pos_]);
    const unsigned avail = 8 - bit_;
    const unsigned take = bits < avail ? bits : avail;
    const std::uint8_t chunk = static_cast<std::uint8_t>(
        (byte >> (avail - take)) & ((1U << take) - 1U));
    value = (value << take) | chunk;
    bit_ += take;
    bits -= take;
    if (bit_ == 8) {
      bit_ = 0;
      ++pos_;
    }
  }
  return value;
}

// --- varint ----------------------------------------------------------------

void putVarint(std::string& out, std::uint64_t value) {
  while (value >= 0x80U) {
    out.push_back(static_cast<char>(0x80U | (value & 0x7FU)));
    value >>= 7U;
  }
  out.push_back(static_cast<char>(value));
}

std::uint64_t getVarint(std::string_view data, std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) {
      throw ParseError("tsdb codec: varint truncated");
    }
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    value |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
    if ((byte & 0x80U) == 0) {
      return value;
    }
    shift += 7;
  }
  throw ParseError("tsdb codec: varint longer than 10 bytes");
}

// --- timestamps ------------------------------------------------------------

void encodeTimestamps(const std::vector<std::int64_t>& ts, std::string& out) {
  putVarint(out, ts.size());
  if (ts.empty()) {
    return;
  }
  putVarint(out, zigzag(ts[0]));
  std::int64_t prevDelta = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    // Wrapping subtraction: pathological inputs (INT64_MIN vs MAX) must
    // round-trip rather than overflow into UB.
    const std::int64_t delta = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(ts[i]) -
        static_cast<std::uint64_t>(ts[i - 1]));
    const std::int64_t dd = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(delta) -
        static_cast<std::uint64_t>(prevDelta));
    putVarint(out, zigzag(dd));
    prevDelta = delta;
  }
}

std::vector<std::int64_t> decodeTimestamps(std::string_view data,
                                           std::size_t& pos) {
  const std::uint64_t count = getVarint(data, pos);
  if (count > data.size() - pos + 1) {
    // Each encoded entry costs >= 1 byte; a count beyond the remaining
    // bytes is corruption, not a huge allocation request.
    throw ParseError("tsdb codec: timestamp count exceeds payload");
  }
  std::vector<std::int64_t> out;
  out.reserve(count);
  if (count == 0) {
    return out;
  }
  std::int64_t value = unzigzag(getVarint(data, pos));
  out.push_back(value);
  std::int64_t delta = 0;
  for (std::uint64_t i = 1; i < count; ++i) {
    delta = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(delta) +
        static_cast<std::uint64_t>(unzigzag(getVarint(data, pos))));
    value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) +
                                      static_cast<std::uint64_t>(delta));
    out.push_back(value);
  }
  return out;
}

// --- values (Gorilla XOR) --------------------------------------------------

namespace {

std::uint64_t doubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bitsDouble(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void encodeValues(const std::vector<double>& values, std::string& out) {
  putVarint(out, values.size());
  if (values.empty()) {
    putVarint(out, 0);  // empty bit stream — the column stays framed
    return;
  }
  // The stream goes straight into `out`; its length prefix is slotted in
  // before it once known (a memmove of the stream, no second buffer).
  const std::size_t streamAt = out.size();
  {
    BitWriter w(out);
    std::uint64_t prev = doubleBits(values[0]);
    w.write(prev, 64);
    unsigned prevLeading = 65;  // sentinel: no reusable window yet
    unsigned prevSigBits = 0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      const std::uint64_t bits = doubleBits(values[i]);
      const std::uint64_t x = bits ^ prev;
      prev = bits;
      if (x == 0) {
        w.writeBit(false);  // '0': repeat
        continue;
      }
      auto leading = static_cast<unsigned>(std::countl_zero(x));
      const auto trailing = static_cast<unsigned>(std::countr_zero(x));
      // 5 bits of leading-zero count: clamp (a longer run just stores a
      // few redundant zero bits).
      if (leading > 31) {
        leading = 31;
      }
      const unsigned sigBits = 64 - leading - trailing;
      if (prevLeading <= 64 && leading >= prevLeading &&
          trailing >= 64 - prevLeading - prevSigBits) {
        // '10': the previous window still covers the meaningful bits.
        w.write(0b10, 2);
        w.write(x >> (64 - prevLeading - prevSigBits), prevSigBits);
      } else {
        // '11': new window.  sigBits is in [1, 64]; store as 6-bit
        // value with 64 encoded as 0 (Gorilla's trick would be off by
        // one; an explicit mapping keeps the decode branch-free).
        w.write(0b11, 2);
        w.write(leading, 5);
        w.write(sigBits & 63U, 6);
        w.write(x >> trailing, sigBits);
        prevLeading = leading;
        prevSigBits = sigBits;
      }
    }
  }
  std::string prefix;  // at most 10 bytes: the small-string buffer
  putVarint(prefix, out.size() - streamAt);
  out.insert(streamAt, prefix);
}

std::vector<double> decodeValues(std::string_view data, std::size_t& pos) {
  const std::uint64_t count = getVarint(data, pos);
  const std::uint64_t byteLen = getVarint(data, pos);
  if (byteLen > data.size() - pos) {
    throw ParseError("tsdb codec: value stream truncated");
  }
  if (count > byteLen * 8 + 1) {
    // Every value costs >= 1 bit after the first.
    throw ParseError("tsdb codec: value count exceeds bit stream");
  }
  std::vector<double> out;
  out.reserve(count);
  if (count > 0) {
    BitReader r(data.data() + pos, byteLen);
    std::uint64_t prev = r.read(64);
    out.push_back(bitsDouble(prev));
    unsigned leading = 0;
    unsigned sigBits = 0;
    for (std::uint64_t i = 1; i < count; ++i) {
      if (!r.readBit()) {
        out.push_back(bitsDouble(prev));
        continue;
      }
      if (r.readBit()) {
        leading = static_cast<unsigned>(r.read(5));
        sigBits = static_cast<unsigned>(r.read(6));
        if (sigBits == 0) {
          sigBits = 64;
        }
        if (leading + sigBits > 64) {
          throw ParseError("tsdb codec: bad XOR window");
        }
      } else if (sigBits == 0) {
        throw ParseError("tsdb codec: window reuse before any window");
      }
      const std::uint64_t meaningful = r.read(sigBits);
      prev ^= meaningful << (64 - leading - sigBits);
      out.push_back(bitsDouble(prev));
    }
  }
  pos += byteLen;
  return out;
}

// --- counts ----------------------------------------------------------------

void encodeCounts(const std::vector<std::uint64_t>& counts,
                  std::string& out) {
  putVarint(out, counts.size());
  for (const std::uint64_t c : counts) {
    putVarint(out, c);
  }
}

std::vector<std::uint64_t> decodeCounts(std::string_view data,
                                        std::size_t& pos) {
  const std::uint64_t count = getVarint(data, pos);
  if (count > data.size() - pos + 1) {
    throw ParseError("tsdb codec: count column exceeds payload");
  }
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(getVarint(data, pos));
  }
  return out;
}

}  // namespace zerosum::tsdb
