#include "common/cpuset.hpp"

#include <bit>
#include <charconv>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace zerosum {

namespace {

std::size_t parseIndex(std::string_view tok) {
  std::size_t value = 0;
  const char* begin = tok.data();
  const char* end = begin + tok.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw ParseError("bad cpu index '" + std::string(tok) + "'");
  }
  if (value >= CpuSet::kMaxCpus) {
    throw ParseError("cpu index " + std::to_string(value) + " exceeds capacity");
  }
  return value;
}

}  // namespace

CpuSet CpuSet::fromList(std::string_view list) {
  CpuSet out;
  std::string_view rest = strings::trimView(list);
  if (rest.empty()) {
    return out;
  }
  while (true) {
    const auto comma = rest.find(',');
    const std::string_view tok = strings::trimView(
        comma == std::string_view::npos ? rest : rest.substr(0, comma));
    if (tok.empty()) {
      throw ParseError("empty element in cpulist '" + std::string(list) +
                       "'");
    }
    const auto dash = tok.find('-');
    if (dash == std::string_view::npos) {
      out.set(parseIndex(tok));
    } else {
      const std::size_t lo = parseIndex(tok.substr(0, dash));
      const std::size_t hi = parseIndex(tok.substr(dash + 1));
      if (hi < lo) {
        throw ParseError("descending range '" + std::string(tok) + "'");
      }
      for (std::size_t i = lo; i <= hi; ++i) {
        out.set(i);
      }
    }
    if (comma == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(comma + 1);
  }
  return out;
}

CpuSet CpuSet::fromHexMask(std::string_view mask) {
  const std::string trimmed = strings::trim(mask);
  if (trimmed.empty()) {
    throw ParseError("empty cpu hex mask");
  }
  const auto words = strings::split(trimmed, ',');
  CpuSet out;
  // Words are most-significant first; the last word covers CPUs 0-31.
  std::size_t wordBase = 0;
  for (auto it = words.rbegin(); it != words.rend(); ++it, wordBase += 32) {
    const std::string word = strings::trim(*it);
    if (word.empty() || word.size() > 8) {
      throw ParseError("bad hex mask word '" + word + "'");
    }
    std::uint32_t bits = 0;
    for (char c : word) {
      std::uint32_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        throw ParseError("bad hex digit '" + std::string(1, c) +
                         "' in cpu mask");
      }
      bits = (bits << 4) | nibble;
    }
    for (std::size_t bit = 0; bit < 32; ++bit) {
      if ((bits >> bit) & 1u) {
        out.set(wordBase + bit);
      }
    }
  }
  return out;
}

CpuSet CpuSet::range(std::size_t firstCpu, std::size_t lastCpu) {
  if (lastCpu < firstCpu) {
    throw StateError("CpuSet::range: last < first");
  }
  if (lastCpu >= kMaxCpus) {
    throw StateError("CpuSet::range: index exceeds capacity");
  }
  CpuSet out;
  for (std::size_t i = firstCpu; i <= lastCpu; ++i) {
    out.set(i);
  }
  return out;
}

CpuSet CpuSet::of(const std::vector<std::size_t>& cpus) {
  CpuSet out;
  for (std::size_t c : cpus) {
    out.set(c);
  }
  return out;
}

CpuSet CpuSet::firstN(std::size_t n) {
  if (n == 0) {
    return {};
  }
  return range(0, n - 1);
}

void CpuSet::set(std::size_t cpu) {
  if (cpu >= kMaxCpus) {
    throw StateError("CpuSet::set: index " + std::to_string(cpu) +
                     " exceeds capacity");
  }
  words_[cpu / kWordBits] |= std::uint64_t{1} << (cpu % kWordBits);
}

void CpuSet::clear(std::size_t cpu) {
  if (cpu >= kMaxCpus) {
    throw StateError("CpuSet::clear: index exceeds capacity");
  }
  words_[cpu / kWordBits] &= ~(std::uint64_t{1} << (cpu % kWordBits));
}

bool CpuSet::test(std::size_t cpu) const {
  return cpu < kMaxCpus &&
         ((words_[cpu / kWordBits] >> (cpu % kWordBits)) & 1u) != 0;
}

std::size_t CpuSet::count() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

bool CpuSet::empty() const { return findNext(true, 0) == kMaxCpus; }

std::size_t CpuSet::findNext(bool bit, std::size_t from) const {
  // XOR with `flip` turns the bits looked for into ones.
  const std::uint64_t flip = bit ? 0 : ~std::uint64_t{0};
  std::size_t w = from / kWordBits;
  if (w >= kWords) {
    return kMaxCpus;
  }
  std::uint64_t bits =
      (words_[w] ^ flip) & (~std::uint64_t{0} << (from % kWordBits));
  while (bits == 0) {
    if (++w == kWords) {
      return kMaxCpus;
    }
    bits = words_[w] ^ flip;
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
}

std::size_t CpuSet::first() const {
  const std::size_t cpu = findNext(true, 0);
  if (cpu == kMaxCpus) {
    throw StateError("CpuSet::first on empty set");
  }
  return cpu;
}

std::size_t CpuSet::last() const {
  for (std::size_t w = kWords; w-- > 0;) {
    if (words_[w] != 0) {
      return w * kWordBits + kWordBits - 1 -
             static_cast<std::size_t>(std::countl_zero(words_[w]));
    }
  }
  throw StateError("CpuSet::last on empty set");
}

std::vector<std::size_t> CpuSet::toVector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t w = 0; w < kWords; ++w) {
    // Pop the lowest set bit until the word is empty.
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      out.push_back(w * kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  return out;
}

std::string CpuSet::toList() const {
  std::string out;
  // Each run [lo, end) costs two word scans, whatever its length.
  for (std::size_t lo = findNext(true, 0); lo < kMaxCpus;) {
    const std::size_t end = findNext(false, lo);
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(lo);
    if (end - 1 > lo) {
      out += '-';
      out += std::to_string(end - 1);
    }
    lo = findNext(true, end);
  }
  return out;
}

CpuSet CpuSet::operator&(const CpuSet& o) const {
  CpuSet out = *this;
  out &= o;
  return out;
}

CpuSet CpuSet::operator|(const CpuSet& o) const {
  CpuSet out = *this;
  out |= o;
  return out;
}

CpuSet CpuSet::operator-(const CpuSet& o) const {
  CpuSet out;
  for (std::size_t w = 0; w < kWords; ++w) {
    out.words_[w] = words_[w] & ~o.words_[w];
  }
  return out;
}

CpuSet& CpuSet::operator|=(const CpuSet& o) {
  for (std::size_t w = 0; w < kWords; ++w) {
    words_[w] |= o.words_[w];
  }
  return *this;
}

CpuSet& CpuSet::operator&=(const CpuSet& o) {
  for (std::size_t w = 0; w < kWords; ++w) {
    words_[w] &= o.words_[w];
  }
  return *this;
}

bool CpuSet::intersects(const CpuSet& o) const {
  for (std::size_t w = 0; w < kWords; ++w) {
    if ((words_[w] & o.words_[w]) != 0) {
      return true;
    }
  }
  return false;
}

bool CpuSet::containsAll(const CpuSet& o) const {
  for (std::size_t w = 0; w < kWords; ++w) {
    if ((o.words_[w] & ~words_[w]) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace zerosum
