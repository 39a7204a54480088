#include "common/cpuset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace zerosum {
namespace {

TEST(CpuSet, DefaultIsEmpty) {
  CpuSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.toList(), "");
}

TEST(CpuSet, SetAndTest) {
  CpuSet s;
  s.set(3);
  EXPECT_TRUE(s.test(3));
  EXPECT_FALSE(s.test(2));
  EXPECT_EQ(s.count(), 1u);
}

TEST(CpuSet, ClearRemovesBit) {
  CpuSet s = CpuSet::of({1, 2, 3});
  s.clear(2);
  EXPECT_FALSE(s.test(2));
  EXPECT_EQ(s.count(), 2u);
}

TEST(CpuSet, SetBeyondCapacityThrows) {
  CpuSet s;
  EXPECT_THROW(s.set(CpuSet::kMaxCpus), StateError);
}

TEST(CpuSet, TestBeyondCapacityIsFalse) {
  CpuSet s;
  EXPECT_FALSE(s.test(CpuSet::kMaxCpus + 5));
}

TEST(CpuSet, ParseSingle) {
  EXPECT_EQ(CpuSet::fromList("0").toList(), "0");
  EXPECT_EQ(CpuSet::fromList("7").toList(), "7");
}

TEST(CpuSet, ParseRange) {
  const CpuSet s = CpuSet::fromList("1-7");
  EXPECT_EQ(s.count(), 7u);
  EXPECT_TRUE(s.test(1));
  EXPECT_TRUE(s.test(7));
  EXPECT_FALSE(s.test(0));
  EXPECT_FALSE(s.test(8));
}

TEST(CpuSet, ParseFrontierStyleList) {
  // The exact affinity string of the paper's "Other" thread (Listing 2).
  const CpuSet s = CpuSet::fromList(
      "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,"
      "89-95,97-103,105-111,113-119,121-127");
  EXPECT_EQ(s.count(), 112u);
  EXPECT_FALSE(s.test(0));
  EXPECT_FALSE(s.test(8));
  EXPECT_FALSE(s.test(64));
  EXPECT_TRUE(s.test(127));
}

TEST(CpuSet, ParseToleratesWhitespace) {
  const CpuSet s = CpuSet::fromList(" 1-3 , 5 ");
  EXPECT_EQ(s.toList(), "1-3,5");
}

TEST(CpuSet, ParseEmptyYieldsEmptySet) {
  EXPECT_TRUE(CpuSet::fromList("").empty());
  EXPECT_TRUE(CpuSet::fromList("   ").empty());
}

TEST(CpuSet, ParseRejectsGarbage) {
  EXPECT_THROW(CpuSet::fromList("abc"), ParseError);
  EXPECT_THROW(CpuSet::fromList("1-"), ParseError);
  EXPECT_THROW(CpuSet::fromList("-3"), ParseError);
  EXPECT_THROW(CpuSet::fromList("1,,3"), ParseError);
  EXPECT_THROW(CpuSet::fromList("3-1"), ParseError);
  EXPECT_THROW(CpuSet::fromList("1.5"), ParseError);
}

TEST(CpuSet, ParseRejectsOutOfRange) {
  EXPECT_THROW(CpuSet::fromList(std::to_string(CpuSet::kMaxCpus)), ParseError);
}

TEST(CpuSet, RoundTripFormatting) {
  const std::string list = "0,2-5,9,64-66";
  EXPECT_EQ(CpuSet::fromList(list).toList(), list);
}

TEST(CpuSet, RangeFactory) {
  EXPECT_EQ(CpuSet::range(4, 6).toList(), "4-6");
  EXPECT_EQ(CpuSet::range(5, 5).toList(), "5");
  EXPECT_THROW(CpuSet::range(6, 4), StateError);
}

TEST(CpuSet, FirstNFactory) {
  EXPECT_EQ(CpuSet::firstN(4).toList(), "0-3");
  EXPECT_TRUE(CpuSet::firstN(0).empty());
}

TEST(CpuSet, FirstAndLast) {
  const CpuSet s = CpuSet::of({5, 9, 300});
  EXPECT_EQ(s.first(), 5u);
  EXPECT_EQ(s.last(), 300u);
}

TEST(CpuSet, FirstLastOnEmptyThrow) {
  CpuSet s;
  EXPECT_THROW(s.first(), StateError);
  EXPECT_THROW(s.last(), StateError);
}

TEST(CpuSet, ToVectorAscending) {
  const CpuSet s = CpuSet::of({9, 1, 5});
  const std::vector<std::size_t> expected = {1, 5, 9};
  EXPECT_EQ(s.toVector(), expected);
}

TEST(CpuSet, Intersection) {
  const CpuSet a = CpuSet::fromList("1-5");
  const CpuSet b = CpuSet::fromList("4-8");
  EXPECT_EQ((a & b).toList(), "4-5");
}

TEST(CpuSet, Union) {
  const CpuSet a = CpuSet::fromList("1-3");
  const CpuSet b = CpuSet::fromList("5-6");
  EXPECT_EQ((a | b).toList(), "1-3,5-6");
}

TEST(CpuSet, Difference) {
  const CpuSet a = CpuSet::fromList("1-8");
  const CpuSet b = CpuSet::fromList("3-4");
  EXPECT_EQ((a - b).toList(), "1-2,5-8");
}

TEST(CpuSet, Intersects) {
  EXPECT_TRUE(CpuSet::fromList("1-5").intersects(CpuSet::fromList("5-9")));
  EXPECT_FALSE(CpuSet::fromList("1-4").intersects(CpuSet::fromList("5-9")));
  EXPECT_FALSE(CpuSet{}.intersects(CpuSet::fromList("1")));
}

TEST(CpuSet, ContainsAll) {
  const CpuSet big = CpuSet::fromList("0-15");
  EXPECT_TRUE(big.containsAll(CpuSet::fromList("3-7")));
  EXPECT_FALSE(big.containsAll(CpuSet::fromList("14-16")));
  EXPECT_TRUE(big.containsAll(CpuSet{}));  // vacuous
}

TEST(CpuSet, Equality) {
  EXPECT_EQ(CpuSet::fromList("1-3"), CpuSet::of({1, 2, 3}));
  EXPECT_NE(CpuSet::fromList("1-3"), CpuSet::of({1, 2}));
}

TEST(CpuSet, CompoundAssignment) {
  CpuSet s = CpuSet::fromList("1-4");
  s |= CpuSet::fromList("8");
  EXPECT_EQ(s.toList(), "1-4,8");
  s &= CpuSet::fromList("2-8");
  EXPECT_EQ(s.toList(), "2-4,8");
}

TEST(CpuSet, HexMaskSingleWord) {
  EXPECT_EQ(CpuSet::fromHexMask("ff").toList(), "0-7");
  EXPECT_EQ(CpuSet::fromHexMask("1").toList(), "0");
  EXPECT_EQ(CpuSet::fromHexMask("fe").toList(), "1-7");
  EXPECT_EQ(CpuSet::fromHexMask("80000000").toList(), "31");
  EXPECT_EQ(CpuSet::fromHexMask("A5").toList(), "0,2,5,7");  // upper case
}

TEST(CpuSet, HexMaskMultiWord) {
  // Most-significant word first, as the kernel prints it.
  EXPECT_EQ(CpuSet::fromHexMask("1,00000000").toList(), "32");
  EXPECT_EQ(CpuSet::fromHexMask("ffffffff,ffffffff").toList(), "0-63");
  EXPECT_EQ(CpuSet::fromHexMask("3,00000000,00000000").toList(), "64-65");
}

TEST(CpuSet, HexMaskMatchesListForm) {
  // The two /proc representations of the same affinity must agree:
  // Listing 2's "fe" == "1-7".
  EXPECT_EQ(CpuSet::fromHexMask("fe"), CpuSet::fromList("1-7"));
}

TEST(CpuSet, HexMaskRejectsGarbage) {
  EXPECT_THROW(CpuSet::fromHexMask(""), ParseError);
  EXPECT_THROW(CpuSet::fromHexMask("xyz"), ParseError);
  EXPECT_THROW(CpuSet::fromHexMask("123456789"), ParseError);  // > 8 digits
  EXPECT_THROW(CpuSet::fromHexMask("ff,,ff"), ParseError);
}

/// Property sweep: parse(format(S)) == S for structured subsets.
class CpuSetRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CpuSetRoundTrip, FormatParseIdentity) {
  // Build a deterministic pseudo-random subset from the seed parameter.
  CpuSet s;
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x % 3 == 0) {
      s.set(x % 512);
    }
  }
  EXPECT_EQ(CpuSet::fromList(s.toList()), s);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuSetRoundTrip, ::testing::Range(0, 20));

/// The word scans against a bit-by-bit walk over test(), at the edges of
/// the 64-bit words and of the whole set.
void expectMatchesBitwalk(const CpuSet& s) {
  std::vector<std::size_t> bits;
  std::string list;
  for (std::size_t i = 0; i < CpuSet::kMaxCpus; ++i) {
    if (!s.test(i)) {
      continue;
    }
    bits.push_back(i);
    if (i > 0 && s.test(i - 1)) {
      continue;  // inside a run; its end is written below
    }
    std::size_t end = i;
    while (end + 1 < CpuSet::kMaxCpus && s.test(end + 1)) {
      ++end;
    }
    list += (list.empty() ? "" : ",") + std::to_string(i);
    if (end > i) {
      list += "-" + std::to_string(end);
    }
  }
  EXPECT_EQ(s.toList(), list);
  EXPECT_EQ(s.toVector(), bits);
  EXPECT_EQ(s.count(), bits.size());
  EXPECT_EQ(s.empty(), bits.empty());
  if (bits.empty()) {
    EXPECT_THROW(s.first(), StateError);
    EXPECT_THROW(s.last(), StateError);
  } else {
    EXPECT_EQ(s.first(), bits.front());
    EXPECT_EQ(s.last(), bits.back());
  }
  EXPECT_EQ(CpuSet::fromList(s.toList()), s);
}

TEST(CpuSet, WordScansMatchBitwalkAtBoundaries) {
  expectMatchesBitwalk(CpuSet{});
  expectMatchesBitwalk(CpuSet::firstN(CpuSet::kMaxCpus));
  const std::vector<std::size_t> edges = {0,   1,   62,   63,  64,
                                          65,  127, 128, 2046, 2047};
  for (const std::size_t cpu : edges) {
    SCOPED_TRACE(cpu);
    expectMatchesBitwalk(CpuSet::of({cpu}));
    // The full set less one bit: two runs meeting at that bit.
    CpuSet holed = CpuSet::firstN(CpuSet::kMaxCpus);
    holed.clear(cpu);
    expectMatchesBitwalk(holed);
  }
  // Runs that end at, start at, and cross 64-bit word boundaries.
  expectMatchesBitwalk(CpuSet::fromList("0-63"));
  expectMatchesBitwalk(CpuSet::fromList("64-127"));
  expectMatchesBitwalk(CpuSet::fromList("63-64"));
  expectMatchesBitwalk(CpuSet::fromList("60-200,2040-2047"));
  expectMatchesBitwalk(CpuSet::fromList("0,63,64,127,128,1983-2047"));
  expectMatchesBitwalk(CpuSet::fromList("1-2046"));
}

TEST(CpuSet, WordScansMatchBitwalkOnRandomSets) {
  constexpr std::array<double, 3> kDensities = {0.01, 0.5, 0.99};
  std::mt19937_64 rng(2048);
  for (std::size_t round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    CpuSet s;
    // Sparse, half-full and nearly full sets, plus random runs.
    const double density = kDensities[round % kDensities.size()];
    std::bernoulli_distribution pick(density);
    for (std::size_t i = 0; i < CpuSet::kMaxCpus; ++i) {
      if (pick(rng)) {
        s.set(i);
      }
    }
    for (int run = 0; run < 4; ++run) {
      const std::size_t lo = rng() % CpuSet::kMaxCpus;
      const std::size_t len = rng() % 200;
      for (std::size_t i = lo; i < std::min(lo + len, CpuSet::kMaxCpus); ++i) {
        if (round % 2 == 0) {
          s.set(i);
        } else {
          s.clear(i);
        }
      }
    }
    expectMatchesBitwalk(s);
  }
}

}  // namespace
}  // namespace zerosum
