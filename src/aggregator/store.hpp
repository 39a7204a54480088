// RollupStore: the aggregation daemon's time-series state.
//
// Series are keyed by SeriesKey — (job, rank, metric) with both names
// interned ids, 12 bytes that sit inside the map node — in one map under
// one lock, sorted by name text (DESIGN.md §12).  Any thread may call
// any member; in practice the one writer is the daemon loop (or a
// federation step), and readers on other threads (QueryService::execute)
// take the same lock.  A source's series, and a job's, are one run of
// the map, so the calls that name one walk that run from lower_bound
// instead of scanning the store.  Queries name series by text, which
// they resolve once with names::find (seriesFilter()), never interning.
// Each series keeps fixed-window rollups — min/avg/max/count, the paper's
// Listing-2 statistic set — at two resolutions (a fine window and a
// coarse window of `coarseFactor` fine widths), with bounded retention
// per resolution: windows older than the newest minus the retention
// depth are evicted, and out-of-order arrivals inside the retention
// horizon merge into the correct window.  Sources that stop reporting
// are evicted wholesale after `staleSeconds` (deltadb-style history
// truncation: the store answers "now" and "recently", not "ever").
//
// Window layout: each series keeps one WindowBuffer per resolution, the
// retained (windowIndex, rollup) pairs sorted by index in fixed-size
// chunks of WindowBuffer::kChunkWindows windows.  The full chunks hang
// off one reference-counted array of chunk pointers (the spine); the
// chunk holding the newest window (the tail) sits beside it; a buffer's
// first tail holds kFirstChunkWindows and doubles as windows come, so a
// series with few windows stays small.  In-order ingest writes into the
// tail, and a full tail joins the spine; eviction
// advances a head offset and turns emptied chunks into spares for the
// next tail; a late window is placed by binary search.  A copy of a
// buffer takes one reference on the spine and one on the tail and copies
// only its newest window, so a snapshot costs the same per series however
// many windows it retains.  Afterwards the store keeps writing its newest
// window and appending to the tail in place (no copy reads those slots);
// a write to an older window a snapshot still holds copies that chunk
// first, and a spine a snapshot holds is replaced, sharing its chunks,
// only when a tail fills or a late window lands in a full chunk
// (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <compare>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/interning.hpp"

namespace zerosum::aggregator {

struct StoreOptions {
  double fineWindowSeconds = 1.0;
  /// Coarse window = fine window x this factor.
  int coarseFactor = 10;
  /// Retention depth, in windows, per resolution.
  int fineRetentionWindows = 600;
  int coarseRetentionWindows = 360;
  /// A source is evicted after this long without any frame.
  double staleSeconds = 30.0;
};

/// min/avg/max/count over one window (avg derived from sum/count).
struct Rollup {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void merge(double value) {
    if (count == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    sum += value;
    ++count;
  }

  /// Folds another partial rollup in (query folds, tsdb reads).  Exact
  /// for min/max/count; the sum is exact arithmetic too, but
  /// bit-identical to a sequential ingest only when both partials summed
  /// their records in the original ingest order.
  void combine(const Rollup& other) {
    if (other.count == 0) {
      return;
    }
    if (count == 0) {
      *this = other;
      return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
  }
};

/// A series' identity: job, rank and metric, the two names held as
/// process-local interned ids (common/interning.hpp), so a key is 12
/// trivially copyable bytes and comparing two equal keys reads no text.
/// Keys sort by (job text, rank, metric text), the order every listing
/// and the segment footer use, and then by id: lookup(kInvalidId) and
/// intern("") both read "", and without the tie-break `<=>` would call
/// such keys equal while `==` does not.
struct SeriesKey {
  names::Id job = names::kInvalidId;
  std::int32_t rank = 0;
  names::Id metric = names::kInvalidId;

  SeriesKey() = default;
  constexpr SeriesKey(names::Id jobId, std::int32_t rankOf, names::Id metricId)
      : job(jobId), rank(rankOf), metric(metricId) {}
  /// Interns both names.  Not explicit: `key = {job, rank, name}` from
  /// strings reads as it did when keys held text.
  SeriesKey(std::string_view jobText, std::int32_t rankOf,
            std::string_view metricText)
      : job(names::intern(jobText)),
        rank(rankOf),
        metric(names::intern(metricText)) {}

  [[nodiscard]] std::string_view jobName() const { return names::lookup(job); }
  [[nodiscard]] std::string_view metricName() const {
    return names::lookup(metric);
  }

  friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
  friend std::strong_ordering operator<=>(const SeriesKey& a,
                                          const SeriesKey& b) {
    if (a.job != b.job) {
      if (const auto c = a.jobName() <=> b.jobName(); c != 0) {
        return c;
      }
    }
    if (const auto c = a.rank <=> b.rank; c != 0) {
      return c;
    }
    if (a.metric != b.metric) {
      if (const auto c = a.metricName() <=> b.metricName(); c != 0) {
        return c;
      }
    }
    if (const auto c = a.job <=> b.job; c != 0) {
      return c;
    }
    return a.metric <=> b.metric;
  }
};
static_assert(sizeof(SeriesKey) == 12 &&
              std::is_trivially_copyable_v<SeriesKey>);

/// One window of one series, as returned by queries.
struct WindowRollup {
  double windowStartSeconds = 0.0;
  double windowSeconds = 0.0;
  Rollup rollup;
};

enum class Resolution : std::uint8_t { kFine, kCoarse };

// The helpers below, and WindowBuffer, are inline: zs_tsdb uses this
// header without linking zs_aggregator.

/// 2^63: the first double past INT64_MAX; -2^63 is INT64_MIN exactly.
inline constexpr double kWindowIndexLimit = 9223372036854775808.0;

/// floor(t / windowSeconds) — the index of the window holding time t —
/// saturated to the int64 range, so a query bound past it (1e300, ±inf)
/// selects everything on its side instead of overflowing the cast.  t
/// must not be NaN.
[[nodiscard]] inline std::int64_t clampedWindowIndex(double t,
                                                     double windowSeconds) {
  const double index = std::floor(t / windowSeconds);
  if (index >= kWindowIndexLimit) {
    return std::numeric_limits<std::int64_t>::max();
  }
  if (index < -kWindowIndexLimit) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(index);
}

/// floor(t / windowSeconds) for a record being ingested, or nullopt when
/// the quotient is NaN or not representable as int64 (a finite but
/// absurd time such as 1e300): the ingest paths drop such a record
/// instead of filing it under a saturated index.
[[nodiscard]] inline std::optional<std::int64_t> ingestWindowIndex(
    double t, double windowSeconds) {
  const double index = std::floor(t / windowSeconds);
  if (!(index >= -kWindowIndexLimit && index < kWindowIndexLimit)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(index);
}

/// A query's numeric "rank" as a SeriesKey rank, truncated toward zero.
/// Throws ParseError when it is not finite or falls outside int.
[[nodiscard]] inline int rankFromNumber(double rank) {
  // Truncation maps (INT_MIN - 1, INT_MAX + 1) into int; NaN fails both
  // comparisons.
  constexpr double kBelow =
      static_cast<double>(std::numeric_limits<int>::min()) - 1.0;
  constexpr double kAbove =
      static_cast<double>(std::numeric_limits<int>::max()) + 1.0;
  if (!(rank > kBelow && rank < kAbove)) {
    throw ParseError("\"rank\" must be a finite number within the int range");
  }
  return static_cast<int>(rank);
}

/// One window of one series as the federation ships it (drainDirty(),
/// kForward, ingestWindows()).  `rollup` is the window's cumulative
/// snapshot, so a receiver replaces it instead of accumulating.
struct WindowSnapshot {
  Resolution resolution = Resolution::kFine;
  std::int64_t windowIndex = 0;
  Rollup rollup;
};

/// What drainDirty() fills and kForward carries: one block per series,
/// holding its key once and then its windows in (resolution, index)
/// order.  A caller that refills the same buffer reuses its capacity, so
/// a steady-state drain allocates nothing.
class SeriesBlocks {
 public:
  struct Block {
    SeriesKey key;
    std::size_t first = 0;  ///< the block's windows: [first, first + count)
    std::size_t count = 0;
  };
  [[nodiscard]] std::span<const Block> blocks() const {
    return {blocks_.data(), size_};
  }
  [[nodiscard]] std::span<const WindowSnapshot> windows(
      const Block& block) const {
    return {windows_.data() + block.first, block.count};
  }
  [[nodiscard]] std::size_t windowCount() const { return windows_.size(); }

  void reserve(std::size_t blocks, std::size_t windows) {
    blocks_.reserve(blocks);
    windows_.reserve(windows);
  }
  /// Empties the buffer, keeping every block's capacity.
  void clear() {
    size_ = 0;
    windows_.clear();
  }
  /// Opens a block after the last one and returns its key to fill.
  SeriesKey& open() {
    if (size_ == blocks_.size()) {
      blocks_.emplace_back();
    }
    Block& block = blocks_[size_++];
    block.first = windows_.size();
    block.count = 0;
    return block.key;
  }
  /// Appends a window to the last opened block.
  void push(const WindowSnapshot& window) {
    windows_.push_back(window);
    ++blocks_[size_ - 1].count;
  }
  /// Drops the last block when it holds no window.
  void dropEmpty() {
    if (size_ > 0 && blocks_[size_ - 1].count == 0) {
      --size_;
    }
  }

 private:
  std::vector<Block> blocks_;  ///< [0, size_) are live; the rest are spare
  std::size_t size_ = 0;
  std::vector<WindowSnapshot> windows_;
};

/// The retained windows of one series at one resolution: (windowIndex,
/// rollup) pairs sorted by index, kept in fixed-size chunks.  The full
/// chunks sit behind one array of chunk pointers (the spine) and the
/// newest window's chunk (the tail) beside it; copies of the buffer share
/// both and keep their own copy of their newest window, which is the one
/// the store keeps changing (see the layout note at the top of this
/// file).  Iteration yields the live windows, oldest first.  Like a
/// std::vector, one buffer may be read (and copied) from many threads, or
/// written from one.
class WindowBuffer {
 public:
  using Entry = std::pair<std::int64_t, Rollup>;
  /// Windows per chunk (a power of two).
  static constexpr std::size_t kChunkWindows = 16;
  /// Windows a buffer's first chunk holds; it doubles up to a full
  /// chunk as the windows come, so a series with few windows stays small.
  static constexpr std::size_t kFirstChunkWindows = 4;

 private:
  /// A chunk's header.  Its windows follow it in the same allocation,
  /// each written before it is read (never zero-filled).
  struct alignas(Entry) Chunk {
    /// The spines and buffers holding this chunk.
    std::atomic<std::uint32_t> owners{1};
    std::uint32_t capacity = 0;  ///< kChunkWindows unless it is a tail

    Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
  };

  /// Chunk pointers: the full chunks, oldest first, then spare chunks.
  /// One allocation, the pointers following this header.
  struct alignas(Chunk*) Spine {
    /// The buffers holding this spine.
    std::atomic<std::uint32_t> owners{1};
    std::uint32_t count = 0;  ///< chunk pointers held
    std::uint32_t capacity = 0;

    Chunk** chunks() { return reinterpret_cast<Chunk**>(this + 1); }
  };

 public:
  /// Random access over the live windows; any write to the buffer
  /// invalidates it.
  class const_iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;

    reference operator*() const {
      if (pos_ == newestPos_) {
        return *newest_;
      }
      const std::size_t c = pos_ / kChunkWindows;
      return (c < sealed_ ? spine_->chunks()[c] : tail_)
          ->entries()[pos_ % kChunkWindows];
    }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const const_iterator old = *this;
      ++pos_;
      return old;
    }
    const_iterator& operator--() {
      --pos_;
      return *this;
    }
    const_iterator operator--(int) {
      const const_iterator old = *this;
      --pos_;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      pos_ = static_cast<std::size_t>(static_cast<difference_type>(pos_) + n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend auto operator<=>(const const_iterator& a, const const_iterator& b) {
      return a.pos_ <=> b.pos_;
    }

   private:
    friend class WindowBuffer;
    const_iterator(const WindowBuffer& buffer, std::size_t pos)
        : spine_(buffer.spine_),
          tail_(buffer.tail_),
          sealed_(buffer.sealed_),
          newest_(&buffer.newest_),
          newestPos_(buffer.detached_ ? buffer.head_ + buffer.size_ - 1
                                      : static_cast<std::size_t>(-1)),
          pos_(pos) {}

    Spine* spine_ = nullptr;
    Chunk* tail_ = nullptr;
    std::size_t sealed_ = 0;
    const Entry* newest_ = nullptr;
    std::size_t newestPos_ = static_cast<std::size_t>(-1);
    std::size_t pos_ = 0;  ///< counted from the first chunk's first slot
  };
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  WindowBuffer() = default;
  /// Shares the other buffer's windows: no allocation.
  WindowBuffer(const WindowBuffer& other)
      : WindowBuffer(other.slice(other.begin(), other.end())) {}
  WindowBuffer(WindowBuffer&& other) noexcept { swap(other); }
  /// Copy and move assignment: `other` was copied or moved in above.
  WindowBuffer& operator=(WindowBuffer other) noexcept {
    swap(other);
    return *this;
  }
  ~WindowBuffer() {
    release(spine_);
    release(tail_);
  }

  /// The windows [first, last) of this buffer, sharing its chunks; the
  /// slice keeps its own copy of its newest window.  No allocation.
  [[nodiscard]] WindowBuffer slice(const_iterator first,
                                   const_iterator last) const {
    WindowBuffer out;
    if (first == last) {
      return out;
    }
    const std::size_t newest = (last.pos_ - 1) / kChunkWindows;
    out.tail_ = chunk(newest);
    out.tail_->owners.fetch_add(1, std::memory_order_relaxed);
    if (first.pos_ / kChunkWindows == newest) {
      out.head_ = first.pos_ - newest * kChunkWindows;  // no spine needed
    } else {
      spine_->owners.fetch_add(1, std::memory_order_relaxed);
      out.spine_ = spine_;
      out.sealed_ = newest;
      out.head_ = first.pos_;
    }
    out.size_ = static_cast<std::size_t>(last - first);
    out.oldest_ = first->first;
    out.newest_ = *(last - 1);
    out.detached_ = true;
    out.shared_.store(true, std::memory_order_relaxed);
    shared_.store(true, std::memory_order_relaxed);
    return out;
  }

  /// Asks the CPU for what a copy of this buffer writes: the reference
  /// counts of the spine and the tail.
  void prefetch() const {
    __builtin_prefetch(spine_, 1);
    __builtin_prefetch(tail_, 1);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const_iterator begin() const { return {*this, head_}; }
  [[nodiscard]] const_iterator end() const { return {*this, head_ + size_}; }
  /// The newest window first.
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  /// The newest window; the buffer must not be empty.
  [[nodiscard]] const Entry& back() const {
    return detached_ ? newest_
                     : tail_->entries()[(head_ + size_ - 1) % kChunkWindows];
  }

  /// The first window whose index is >= `index`.
  [[nodiscard]] const_iterator lowerBound(std::int64_t index) const {
    return std::ranges::lower_bound(begin(), end(), index, {}, &Entry::first);
  }

  /// The windows, each `width` seconds wide, intersecting [t0, t1]: none
  /// when a bound is NaN or t1 < t0.
  [[nodiscard]] std::pair<const_iterator, const_iterator> between(
      double t0, double t1, double width) const {
    if (std::isnan(t0) || std::isnan(t1) || t1 < t0) {
      return {end(), end()};
    }
    const auto first = lowerBound(clampedWindowIndex(t0, width));
    const std::int64_t lastIndex = clampedWindowIndex(t1, width);
    auto last = first;
    while (last != end() && last->first <= lastIndex) {
      ++last;
    }
    return {first, last};
  }

  /// The oldest index a `retention`-deep horizon keeps once `index`
  /// lands (index >= 0 and retention >= 1, so this cannot overflow).
  [[nodiscard]] std::int64_t oldestKept(std::int64_t index,
                                        int retention) const {
    return (empty() ? index : std::max(index, back().first)) - retention + 1;
  }

  /// The window at `index`, inserted empty in index order when absent
  /// (appended when it is the newest); `second` is true if inserted.  A
  /// chunk a copy of the buffer still shares is copied before the write.
  std::pair<Rollup*, bool> findOrInsert(std::int64_t index) {
    noteCopies();
    if (detached_) {
      ownTail();  // a copy changes: its newest window rejoins its tail
    }
    if (size_ > 0 && index >= back().first) {
      // The newest window, or a new one in the same chunk: only the tail
      // is touched.
      const std::size_t end = head_ + size_;
      if (index == back().first) {
        return {&tailSlot(end - 1).second, false};
      }
      if (end % kChunkWindows != 0) {
        Entry& slot = openTailSlot(end);
        ++size_;
        slot = {index, Rollup{}};
        return {&slot.second, true};
      }
    }
    if (empty() || index > back().first) {
      Entry& slot = append();
      slot = {index, Rollup{}};
      if (size_ == 1) {
        oldest_ = index;
      }
      return {&slot.second, true};
    }
    // A late window.  Offsets from head_ survive a new spine, which moves
    // head_.
    const std::size_t offset = lowerBound(index).pos_ - head_;
    if ((head_ + offset) / kChunkWindows < sealed_) {
      ownSpine();
    }
    if (at(head_ + offset).first == index) {
      return {&writable(head_ + offset).second, false};
    }
    append();  // the slot the newest window shifts into
    ownTail();
    const std::size_t pos = head_ + offset;
    for (std::size_t c = pos / kChunkWindows; c < sealed_; ++c) {
      ownChunk(c);
    }
    for (std::size_t p = head_ + size_ - 1; p > pos; --p) {
      slot(p) = slot(p - 1);
    }
    slot(pos) = {index, Rollup{}};
    if (offset == 0) {
      oldest_ = index;
    }
    return {&slot(pos).second, true};
  }

  /// Evicts every window older than `oldestKept`; returns how many.  A
  /// chunk left without a live window becomes a spare for the next one
  /// to fill.
  std::size_t evictBefore(std::int64_t oldestKept) {
    if (size_ == 0 || oldest_ >= oldestKept) {
      return 0;
    }
    std::size_t evicted = 0;
    while (size_ > 0 && at(head_).first < oldestKept) {
      ++head_;
      --size_;
      ++evicted;
    }
    if (size_ == 0) {
      clear();
      return evicted;
    }
    oldest_ = at(head_).first;
    // Full chunks before head_ are dead.  They move to the spares now if
    // no copy shares the spine; otherwise the next new spine drops them.
    const std::size_t dead = head_ / kChunkWindows;
    if (dead > 0 && holdSpineAlone()) {
      Chunk** chunks = spine_->chunks();
      std::rotate(chunks, chunks + dead, chunks + spine_->count);
      shift(dead);
    }
    return evicted;
  }

  /// Drops every window.  The chunks no copy shares stay as spares, so
  /// refilling the buffer to its old size allocates nothing.
  void clear() {
    noteCopies();
    if (spine_ != nullptr && !holdSpineAlone()) {
      release(std::exchange(spine_, nullptr));
    }
    if (tail_ != nullptr && !ownTail_ &&
        tail_->owners.load(std::memory_order_acquire) != 1) {
      release(std::exchange(tail_, nullptr));
    }
    ownTail_ = ownFree_ = tail_ != nullptr;
    detached_ = false;
    sealed_ = 0;
    head_ = 0;
    size_ = 0;
    frozenEnd_ = 0;
  }

 private:
  void swap(WindowBuffer& other) noexcept {
    std::swap(tail_, other.tail_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    std::swap(oldest_, other.oldest_);
    std::swap(ownTail_, other.ownTail_);
    std::swap(ownFree_, other.ownFree_);
    std::swap(detached_, other.detached_);
    std::swap(ownSpine_, other.ownSpine_);
    other.shared_.store(
        shared_.exchange(other.shared_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed),
        std::memory_order_relaxed);
    std::swap(spine_, other.spine_);
    std::swap(sealed_, other.sealed_);
    std::swap(frozenEnd_, other.frozenEnd_);
    std::swap(newest_, other.newest_);
  }

  static Chunk* makeChunk(std::size_t capacity) {
    auto* chunk =
        new (::operator new(sizeof(Chunk) + capacity * sizeof(Entry))) Chunk;
    chunk->capacity = static_cast<std::uint32_t>(capacity);
    return chunk;
  }
  static void release(Chunk* chunk) {
    if (chunk != nullptr &&
        chunk->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      chunk->~Chunk();
      ::operator delete(chunk);
    }
  }
  static void release(Spine* spine) {
    if (spine == nullptr ||
        spine->owners.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    for (std::uint32_t c = 0; c < spine->count; ++c) {
      release(spine->chunks()[c]);
    }
    destroy(spine);
  }
  static Spine* makeSpine(std::size_t capacity) {
    void* raw = ::operator new(sizeof(Spine) + capacity * sizeof(Chunk*));
    auto* spine = new (raw) Spine;
    spine->capacity = static_cast<std::uint32_t>(capacity);
    return spine;
  }
  static void destroy(Spine* spine) {
    spine->~Spine();
    ::operator delete(spine);
  }
  /// A copy of slots [from, to) of `chunk`, to write in its place, with
  /// room for `capacity` windows.
  static Chunk* copyOf(Chunk* chunk, std::size_t from, std::size_t to,
                       std::size_t capacity) {
    Chunk* copy = makeChunk(capacity);
    std::copy(chunk->entries() + from, chunk->entries() + to,
              copy->entries() + from);
    return copy;
  }

  [[nodiscard]] Chunk* chunk(std::size_t c) const {
    return c < sealed_ ? spine_->chunks()[c] : tail_;
  }
  [[nodiscard]] const Entry& at(std::size_t pos) const {
    if (detached_ && pos == head_ + size_ - 1) {
      return newest_;
    }
    return chunk(pos / kChunkWindows)->entries()[pos % kChunkWindows];
  }
  /// The slot at `pos`, in a chunk the caller made this buffer's own.
  Entry& slot(std::size_t pos) {
    return chunk(pos / kChunkWindows)->entries()[pos % kChunkWindows];
  }

  /// Forgets what this buffer held alone once a copy has been made: the
  /// copy may share the spine and the tail, and reads their windows up to
  /// (not including) its newest one, before frozenEnd_ - 1.
  void noteCopies() {
    if (shared_.load(std::memory_order_relaxed)) {
      shared_.store(false, std::memory_order_relaxed);
      ownSpine_ = false;
      ownTail_ = false;
      frozenEnd_ = head_ + size_;
    }
  }

  /// Moves every position down by `chunks` whole chunks, which left the
  /// front of the spine.
  void shift(std::size_t chunks) {
    const std::size_t by = chunks * kChunkWindows;
    sealed_ -= chunks;
    head_ -= by;
    frozenEnd_ -= std::min(frozenEnd_, by);
  }

  /// True when no copy holds the spine (an acquire load, pairing with
  /// the acq_rel release of a copy that let go).
  bool holdSpineAlone() {
    noteCopies();
    if (!ownSpine_ && spine_->owners.load(std::memory_order_acquire) == 1) {
      ownSpine_ = true;
    }
    return ownSpine_;
  }

  /// Makes the spine this buffer's alone: a spine a copy still holds is
  /// replaced by a new one holding the live full chunks, which both
  /// spines then share.
  void ownSpine() {
    if (spine_ == nullptr) {
      spine_ = makeSpine(2);
      ownSpine_ = true;
      return;
    }
    if (holdSpineAlone()) {
      return;
    }
    const std::size_t from = std::min(head_ / kChunkWindows, sealed_);
    Spine* spine = makeSpine(std::max<std::size_t>(sealed_ - from + 2, 2));
    for (std::size_t c = from; c < sealed_; ++c) {
      Chunk* full = spine_->chunks()[c];
      full->owners.fetch_add(1, std::memory_order_relaxed);
      spine->chunks()[spine->count++] = full;
    }
    shift(from);
    release(std::exchange(spine_, spine));
    ownSpine_ = true;
  }

  /// Copies the tail first if a copy of the buffer holds it too; a
  /// copy's own newest window rejoins it.  Only the slots this buffer
  /// reads are copied: the buffer that filled the chunk may be writing
  /// the others.
  void ownTail() {
    noteCopies();
    if (ownTail_) {
      return;
    }
    const std::size_t base = sealed_ * kChunkWindows;
    const std::size_t end = head_ + size_;
    if (tail_->owners.load(std::memory_order_acquire) != 1) {
      const std::size_t from = head_ > base ? head_ - base : 0;
      const std::size_t to = end - base - (detached_ ? 1 : 0);
      release(std::exchange(
          tail_, copyOf(tail_, from, std::max(from, to), tail_->capacity)));
    }
    if (detached_) {
      tail_->entries()[(end - 1) % kChunkWindows] = newest_;
      detached_ = false;
    }
    ownTail_ = ownFree_ = true;
  }

  /// The tail's slot at `pos`, made writable.  The buffer that filled the
  /// tail writes its slots from frozenEnd_ - 1 on in place: every copy
  /// reads those from its own newest window, or not at all.
  Entry& tailSlot(std::size_t pos) {
    if (!ownTail_ && !(ownFree_ && pos + 1 >= frozenEnd_)) {
      ownTail();
    }
    return tail_->entries()[pos % kChunkWindows];
  }

  /// Copies full chunk `c` of the buffer's own spine first if another
  /// spine holds it too.
  void ownChunk(std::size_t c) {
    Chunk*& full = spine_->chunks()[c];
    if (full->owners.load(std::memory_order_acquire) != 1) {
      const std::size_t base = c * kChunkWindows;
      const std::size_t from = head_ > base ? head_ - base : 0;
      release(std::exchange(
          full, copyOf(full, from, kChunkWindows, kChunkWindows)));
    }
  }

  /// The slot at `pos` made writable; a full chunk's spine must be this
  /// buffer's own already.
  /// The tail's slot at `pos`, past the newest window, made writable; a
  /// tail without room for it is replaced by one twice as large.
  Entry& openTailSlot(std::size_t pos) {
    const std::size_t slot = pos % kChunkWindows;
    if (slot >= tail_->capacity) {
      const std::size_t base = sealed_ * kChunkWindows;
      const std::size_t from = head_ > base ? head_ - base : 0;
      release(std::exchange(
          tail_, copyOf(tail_, from, slot,
                        std::min(2 * std::size_t{tail_->capacity},
                                 kChunkWindows))));
      ownTail_ = ownFree_ = true;
    }
    return tailSlot(pos);
  }

  Entry& writable(std::size_t pos) {
    if (pos / kChunkWindows < sealed_) {
      ownChunk(pos / kChunkWindows);
      return slot(pos);
    }
    return tailSlot(pos);
  }

  /// Opens the slot after the newest window and returns it.  A full tail
  /// joins the spine first, and a spare chunk (else a new one) becomes
  /// the tail.
  Entry& append() {
    if (size_ == 0) {
      if (tail_ == nullptr) {
        tail_ = makeChunk(kFirstChunkWindows);
        ownTail_ = ownFree_ = true;
      } else {
        ownTail();
      }
      head_ = sealed_ * kChunkWindows;
    } else if ((head_ + size_) % kChunkWindows == 0) {
      ownSpine();
      Chunk* next = nullptr;
      if (spine_->count > sealed_) {
        next = spine_->chunks()[sealed_];  // a spare
        if (next->owners.load(std::memory_order_acquire) != 1) {
          release(next);
          next = makeChunk(kChunkWindows);
        }
      } else {
        if (spine_->count == spine_->capacity) {
          Spine* larger = makeSpine(2 * std::size_t{spine_->capacity});
          std::copy_n(spine_->chunks(), spine_->count, larger->chunks());
          larger->count = spine_->count;
          destroy(std::exchange(spine_, larger));
        }
        ++spine_->count;
        next = makeChunk(kChunkWindows);
      }
      spine_->chunks()[sealed_++] = std::exchange(tail_, next);
      ownTail_ = ownFree_ = true;
    } else {
      openTailSlot(head_ + size_);
    }
    ++size_;
    return slot(head_ + size_ - 1);
  }

  // What each write reads first, then the rest.
  Chunk* tail_ = nullptr;    ///< the chunk holding the newest window
  std::size_t head_ = 0;     ///< the oldest live window's position
  std::size_t size_ = 0;     ///< live windows
  std::int64_t oldest_ = 0;  ///< the oldest live window's index
  bool ownTail_ = false;     ///< no copy or other spine holds tail_
  /// This buffer filled tail_, so it alone may write the slots past what
  /// the copies sharing it read.
  bool ownFree_ = false;
  bool detached_ = false;  ///< the newest window is newest_
  bool ownSpine_ = false;  ///< no copy holds spine_
  /// Set when a copy is made: the copy may share spine_ and tail_.
  /// Copies of a store's buffers are made under the store lock its
  /// writes take.
  mutable std::atomic<bool> shared_{false};
  Spine* spine_ = nullptr;
  std::size_t sealed_ = 0;  ///< full chunks in spine_, before the spares
  /// Past the newest window of any copy made since writes began.
  std::size_t frozenEnd_ = 0;
  /// A copy's newest window, its own rather than its tail's slot.
  Entry newest_;
};

/// Point-in-time copy of one series' retained windows (both planes).
struct SeriesSnapshot {
  SeriesKey key;
  WindowBuffer fine;
  WindowBuffer coarse;
};

/// A series' newest fine and coarse windows.
struct NewestWindows {
  std::optional<WindowRollup> fine;
  std::optional<WindowRollup> coarse;
};

/// The series filter of every query: job, rank and metric, any when
/// unset.  seriesFilter() builds one from a query's text.
struct SeriesFilter {
  std::optional<names::Id> job;
  std::optional<std::int32_t> rank;
  std::optional<names::Id> metric;
};

/// `job`, `rank` and `metric` (any when unset or empty) resolved to ids
/// once, through names::find(): nullopt when a name was never interned,
/// since no series can carry it.  Never interns, so query text cannot
/// grow the process-wide name table.
[[nodiscard]] inline std::optional<SeriesFilter> seriesFilter(
    const std::optional<std::string>& job, std::optional<int> rank,
    const std::string& metric) {
  SeriesFilter filter{std::nullopt, rank, std::nullopt};
  if (job && (filter.job = names::find(*job)) == names::kInvalidId) {
    return std::nullopt;
  }
  if (!metric.empty() &&
      (filter.metric = names::find(metric)) == names::kInvalidId) {
    return std::nullopt;
  }
  return filter;
}

/// True when `key` passes `filter`.
[[nodiscard]] inline bool keyMatches(const SeriesKey& key,
                                     const SeriesFilter& filter) {
  return (!filter.job || key.job == *filter.job) &&
         (!filter.rank || key.rank == *filter.rank) &&
         (!filter.metric || key.metric == *filter.metric);
}

/// What a query reads (aggregator/query.hpp): a StoreSnapshot's frozen
/// windows or a tsdb::Engine's whole history.  Each query op is written
/// once against this, so every entry point answers it alike.  A series
/// the filters of forEachKey() or forEachNewest() exclude is compared,
/// never copied or read.
class ReadView {
 public:
  using KeyVisitor = std::function<void(const SeriesKey&)>;
  using NewestVisitor =
      std::function<void(const SeriesKey&, const NewestWindows&)>;

  /// The data generation the view reads at.
  [[nodiscard]] virtual std::uint64_t generation() const = 0;

  /// Visits, in key order, the key of every series of `job`, `rank` and
  /// `metric` (any when unset or empty); no window is read.
  virtual void forEachKey(const std::optional<std::string>& job,
                          std::optional<int> rank, const std::string& metric,
                          const KeyVisitor& visit) const = 0;

  /// forEachKey()'s keys, copied.
  [[nodiscard]] std::vector<SeriesKey> seriesKeys(
      const std::optional<std::string>& job, std::optional<int> rank,
      const std::string& metric) const {
    std::vector<SeriesKey> keys;
    forEachKey(job, rank, metric,
               [&keys](const SeriesKey& key) { keys.push_back(key); });
    return keys;
  }

  /// Visits, in key order, every series of `job`, `rank` and `metric`
  /// with its newest windows at both resolutions.
  virtual void forEachNewest(const std::optional<std::string>& job,
                             std::optional<int> rank,
                             const std::string& metric,
                             const NewestVisitor& visit) const = 0;

  /// Windows of `key` intersecting [t0, t1], oldest first.
  [[nodiscard]] virtual std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution) const = 0;
};

/// Immutable copy of the store (RollupStore::snapshot(), taken under
/// the store lock so no concurrent ingest can tear it; DESIGN.md §12),
/// or of the part of it one wire query reads (snapshotNewest(),
/// snapshotRange()).  The query service hands one whole copy (behind a
/// shared_ptr) to every reader: a dashboard query runs against a frozen
/// generation no matter how hard ingest is advancing the live store
/// underneath.
class StoreSnapshot final : public ReadView {
 public:
  /// The store's data generation at the instant the copy was taken.
  [[nodiscard]] std::uint64_t generation() const override {
    return generation_;
  }

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  void forEachKey(const std::optional<std::string>& job,
                  std::optional<int> rank, const std::string& metric,
                  const KeyVisitor& visit) const override;

  void forEachNewest(const std::optional<std::string>& job,
                     std::optional<int> rank, const std::string& metric,
                     const NewestVisitor& visit) const override;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const override;

  /// All captured series, sorted by (job, rank, metric).
  [[nodiscard]] const std::vector<SeriesSnapshot>& series() const {
    return series_;
  }

  [[nodiscard]] std::size_t seriesCount() const { return series_.size(); }
  [[nodiscard]] double fineWindowSeconds() const { return fineWindowSeconds_; }

 private:
  friend class RollupStore;

  [[nodiscard]] const SeriesSnapshot* find(const SeriesKey& key) const;
  [[nodiscard]] double windowSeconds(Resolution resolution) const {
    return resolution == Resolution::kFine ? fineWindowSeconds_
                                           : coarseWindowSeconds_;
  }
  /// forEachKey() and forEachNewest(): calls `visit` with each series of
  /// job, rank and metric, in key order.
  template <typename Visit>
  void forEachMatch(const std::optional<std::string>& job,
                    std::optional<int> rank, const std::string& metric,
                    Visit&& visit) const {
    if (const auto filter = seriesFilter(job, rank, metric)) {
      for (const SeriesSnapshot& series : series_) {
        if (keyMatches(series.key, *filter)) {
          visit(series);
        }
      }
    }
  }
  /// The newest of `windows`, `width` seconds wide.
  [[nodiscard]] static std::optional<WindowRollup> newest(
      const WindowBuffer& windows, double width);

  std::uint64_t generation_ = 0;
  double fineWindowSeconds_ = 1.0;
  double coarseWindowSeconds_ = 10.0;
  std::vector<SeriesSnapshot> series_;  ///< sorted by key
};

class RollupStore {
 private:
  struct Series;
  /// A series map node: the dirty list and SeriesRefs point at these.
  using SeriesNode = std::pair<const SeriesKey, Series>;

 public:
  /// A resolved series handle for repeat ingestion: the series node is
  /// cached until an eviction bumps the store generation, and then
  /// re-resolved lazily.  Callers that ingest the same series every
  /// period (the daemon) keep one ref per series and skip the per-record
  /// map walk, which compares name text.  Treat as opaque.
  struct SeriesRef {
    std::uint64_t generation = 0;
    SeriesNode* series = nullptr;
  };

  explicit RollupStore(StoreOptions options = {});

  /// Merges one observation into both resolutions.
  void ingest(const SeriesKey& key, double timeSeconds, double value);

  /// Same, through a cached handle: resolves `ref` on first use (or
  /// after an eviction invalidated it) and merges without walking the
  /// map afterwards.
  void ingest(const SeriesKey& key, SeriesRef& ref, double timeSeconds,
              double value);

  /// Removes every series belonging to (job, rank).  Returns the number
  /// of series dropped.
  std::size_t evictSource(std::string_view job, int rank);

  // --- read-side snapshot surface (DESIGN.md §12) --------------------------

  /// Monotone counter bumped by every mutation (ingest, ingestWindows,
  /// evictSource).  Two equal readings bracket an interval in which no
  /// data changed — the query cache's invalidation signal.
  [[nodiscard]] std::uint64_t dataGeneration() const {
    return dataGeneration_.load(std::memory_order_acquire);
  }

  /// Takes a point-in-time copy of every retained window under the store
  /// lock, in key order.  The copy shares each series' window chunks
  /// instead of copying windows, so ingest stalls for time that grows
  /// with the series count, not the retention depth (the query service
  /// also rate-limits refreshes and shares one snapshot across readers).
  /// The snapshot's generation() is read under the same lock, so it
  /// exactly identifies the copied state.
  [[nodiscard]] StoreSnapshot snapshot() const;

  /// A copy of only each resolution's newest window of the series of
  /// `job`, `rank` and `metric` (any when unset or empty): what a wire
  /// `snapshot` reads.  Taken under the store lock; when a job is given,
  /// only that job's (or that source's) run of keys is walked.
  [[nodiscard]] StoreSnapshot snapshotNewest(
      const std::optional<std::string>& job, std::optional<int> rank,
      const std::string& metric) const;

  /// A copy of one series' windows at `resolution` that intersect
  /// [t0, t1], taken under the store lock: what a wire `range` reads.
  [[nodiscard]] StoreSnapshot snapshotRange(const SeriesKey& key, double t0,
                                            double t1,
                                            Resolution resolution) const;

  // --- federation surface (DESIGN.md §11) ----------------------------------

  /// Applies forwarded window snapshots of one series in order, under
  /// one lock and one series lookup, and returns how many applied.
  /// Each replaces the stored rollup only when its count is higher (a
  /// cumulative snapshot is monotone in count: more records seen means
  /// newer).  The rest are merge conflicts, counted by the daemon: not
  /// newer (a retransmit, a duplicate routed through a second parent,
  /// two origins claiming one series), beyond the retention horizon (as
  /// for ingest()), or hostile (zero count, non-finite value, or a
  /// negative index, which no honest producer emits).
  std::size_t ingestWindows(const SeriesKey& key,
                            std::span<const WindowSnapshot> windows);

  /// One forwarded window: ingestWindows() over a single snapshot.
  bool ingestWindow(const SeriesKey& key, Resolution resolution,
                    std::int64_t windowIndex, const Rollup& rollup) {
    const WindowSnapshot window{resolution, windowIndex, rollup};
    return ingestWindows(key, {&window, 1}) == 1;
  }

  /// Turns on dirty-window tracking (off by default: the bookkeeping is
  /// only paid by daemons that host a Forwarder).  Every retained window
  /// touched by ingest()/ingestWindows() afterwards is marked for
  /// drainDirty(); eviction drops the marks of the windows it removes.
  void enableDirtyTracking();

  /// Replaces `out` with up to `maxWindows` dirty windows (a snapshot of
  /// each one's cumulative rollup) and clears their marks.  Windows
  /// evicted since they were marked are skipped; a series the budget
  /// splits stays first in the queue.  Returns the number drained.  More
  /// dirt may remain; callers loop.
  std::size_t drainDirty(SeriesBlocks& out, std::size_t maxWindows);

  /// Marks every retained window of every series dirty — the full-resync
  /// path after a forwarder reconnects or its upstream set changes.
  void markAllDirty();

  /// Dirty windows currently queued.
  [[nodiscard]] std::size_t dirtyCount() const;

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first: snapshotRange()'s.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;

  /// All series keys, sorted (job, rank, metric).
  [[nodiscard]] std::vector<SeriesKey> keys() const;
  /// Keys restricted to one (job, rank).
  [[nodiscard]] std::vector<SeriesKey> keysOf(std::string_view job,
                                              int rank) const;

  [[nodiscard]] std::size_t seriesCount() const;
  [[nodiscard]] std::uint64_t samplesIngested() const;
  [[nodiscard]] std::uint64_t windowsEvicted() const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }

 private:
  /// One resolution of one series.
  struct Plane {
    /// Retained windows, bounded by the retention depth.
    WindowBuffer windows;
    /// Sorted, unique indices of retained windows touched since they were
    /// last drained (dirty tracking only); keeps capacity across drains.
    std::vector<std::int64_t> dirty;
  };

  struct Series {
    Plane planes[2];      ///< indexed by Resolution
    bool listed = false;  ///< on dirtySeries_

    Plane& operator[](Resolution r) { return planes[static_cast<int>(r)]; }
    const Plane& operator[](Resolution r) const {
      return planes[static_cast<int>(r)];
    }
  };

  using SeriesMap = std::map<SeriesKey, Series>;

  /// An empty snapshot with this store's window widths.
  [[nodiscard]] StoreSnapshot emptySnapshot() const;

  /// The first series of `job`, and of `rank` when given: keys sort by
  /// job, then rank, then metric, so that job's (or source's) series run
  /// from here.  Caller holds mutex_.
  [[nodiscard]] SeriesMap::const_iterator firstOf(
      names::Id job, std::optional<int> rank) const;

  [[nodiscard]] double windowSeconds(Resolution resolution) const;
  [[nodiscard]] int retention(Resolution resolution) const;

  /// The fine window index of an ingestable record, or nullopt for one
  /// ingest() ignores (non-finite, negative time, index not int64).
  [[nodiscard]] std::optional<std::int64_t> fineIndexOf(double timeSeconds,
                                                        double value) const;

  void mergeLocked(SeriesNode& node, std::int64_t fineIndex, double value);

  void markDirtyLocked(SeriesNode& node, Resolution resolution,
                       std::int64_t index);

  /// Evicts the plane's windows older than `oldestKept`, and their marks.
  void evictLocked(Plane& plane, std::int64_t oldestKept);

  StoreOptions options_;
  mutable std::mutex mutex_;  ///< guards everything below but the atomics
  SeriesMap series_;
  /// Series marked dirty since they were last drained, in the order of
  /// their first mark; drains visit only these.  Nodes of series_:
  /// evictSource() unlists a series before erasing it.
  std::vector<SeriesNode*> dirtySeries_;
  std::uint64_t ingested_ = 0;
  std::uint64_t evicted_ = 0;
  std::size_t dirty_ = 0;  ///< dirty-window marks queued
  /// Bumped by evictSource; outstanding SeriesRefs from older
  /// generations re-resolve instead of touching freed nodes.
  std::atomic<std::uint64_t> generation_{1};
  /// Bumped by every data mutation; see dataGeneration().
  std::atomic<std::uint64_t> dataGeneration_{1};
  std::atomic<bool> trackDirty_{false};
};

}  // namespace zerosum::aggregator
