// The process-global name interner (common/interning.hpp): ids dense
// from 1 and stable, lookup of ids never handed out, the empty name,
// find() never inserting, a full table refusing new names, and
// concurrent interning and reading.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/interning.hpp"

using namespace zerosum;

namespace {

/// A name no other test interns: the interner is shared by the process.
std::string fresh(const std::string& tag, int i) {
  return "interning.test." + tag + "." + std::to_string(i);
}

}  // namespace

TEST(Interning, IdsAreDenseFromOneAndStable) {
  const std::size_t before = names::internedCount();
  std::vector<names::Id> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(names::intern(fresh("dense", i)));
  }
  // New names take the next ids in order: no gap, and none below 1.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], before + 1 + i);
  }
  EXPECT_EQ(names::internedCount(), before + 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(names::intern(fresh("dense", i)), ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(names::lookup(ids[static_cast<std::size_t>(i)]), fresh("dense", i));
  }
  EXPECT_EQ(names::internedCount(), before + 100);
}

TEST(Interning, IdsNeverHandedOutReadEmpty) {
  EXPECT_EQ(names::lookup(names::kInvalidId), "");
  const auto past = static_cast<names::Id>(names::internedCount() + 1);
  EXPECT_EQ(names::lookup(past), "");
  EXPECT_EQ(names::lookup(past + 1000), "");
  EXPECT_EQ(names::lookup(0xFFFFFFFFU), "");
  EXPECT_EQ(names::lookupString(names::kInvalidId), "");
}

TEST(Interning, TheEmptyNameIsARealId) {
  // intern("") and kInvalidId both read "", yet are different ids: the
  // case SeriesKey's id tie-break exists for.
  const names::Id empty = names::intern("");
  EXPECT_NE(empty, names::kInvalidId);
  EXPECT_EQ(names::lookup(empty), "");
  EXPECT_EQ(names::intern(""), empty);
  EXPECT_EQ(names::find(""), empty);
}

TEST(Interning, FindNeverInserts) {
  const std::string name = fresh("find", 0);
  const std::size_t before = names::internedCount();
  EXPECT_EQ(names::find(name), names::kInvalidId);
  EXPECT_EQ(names::find(fresh("find", 1)), names::kInvalidId);
  EXPECT_EQ(names::internedCount(), before);
  const names::Id id = names::intern(name);
  EXPECT_EQ(names::internedCount(), before + 1);
  EXPECT_EQ(names::find(name), id);
  EXPECT_EQ(names::find(fresh("find", 1)), names::kInvalidId);
  EXPECT_EQ(names::internedCount(), before + 1);
}

TEST(Interning, AFullTableRefusesNewNamesOnly) {
  const names::Id kept = names::intern(fresh("full", 0));
  const std::size_t before = names::internedCount();
  names::setCapacity(before);  // full at the names interned so far
  const names::Id refused = names::intern(fresh("full", 1));
  const names::Id again = names::intern(fresh("full", 0));
  const std::size_t whileFull = names::internedCount();
  names::setCapacity(names::kMaxNames);
  EXPECT_EQ(refused, names::kInvalidId);
  EXPECT_EQ(again, kept);
  EXPECT_EQ(whileFull, before);
  EXPECT_EQ(names::find(fresh("full", 1)), names::kInvalidId);
  // With room again, the refused name takes the next id.
  const names::Id later = names::intern(fresh("full", 1));
  EXPECT_EQ(later, before + 1);
  EXPECT_EQ(names::lookup(later), fresh("full", 1));
}

TEST(Interning, ConcurrentInternsAgreeAndViewsStayValid) {
  // Four writers intern overlapping name sets, in different orders, while
  // two readers look up and find whatever has been published.  Each text
  // must get one id, and every view handed out must keep reading its
  // text.
  constexpr int kNames = 3000;
  constexpr int kWriters = 4;
  std::vector<std::vector<names::Id>> seen(kWriters,
                                           std::vector<names::Id>(kNames));
  std::atomic<bool> writing{true};
  std::atomic<int> readerErrors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w, &seen] {
      for (int k = 0; k < kNames; ++k) {
        // Writers walk the names from different starting points.
        const int i = (k + w * kNames / kWriters) % kNames;
        seen[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)] =
            names::intern(fresh("concurrent", i));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&writing, &readerErrors] {
      std::vector<std::pair<names::Id, std::string_view>> held;
      int i = 0;
      while (writing.load(std::memory_order_acquire)) {
        const std::string name = fresh("concurrent", i);
        const names::Id id = names::find(name);
        if (id != names::kInvalidId) {
          const std::string_view text = names::lookup(id);
          if (text != name) {
            readerErrors.fetch_add(1);
          }
          if (held.size() < 512) {
            held.emplace_back(id, text);
          }
        }
        i = (i + 7) % kNames;
      }
      for (const auto& [id, text] : held) {
        if (names::lookup(id) != text || names::lookup(id).data() != text.data()) {
          readerErrors.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<std::size_t>(w)].join();
  }
  writing.store(false, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(readerErrors.load(), 0);
  for (int i = 0; i < kNames; ++i) {
    const auto at = static_cast<std::size_t>(i);
    const names::Id id = seen[0][at];
    for (int w = 1; w < kWriters; ++w) {
      EXPECT_EQ(seen[static_cast<std::size_t>(w)][at], id) << i;
    }
    EXPECT_EQ(names::lookup(id), fresh("concurrent", i));
    EXPECT_EQ(names::find(fresh("concurrent", i)), id);
  }
}
