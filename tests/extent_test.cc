// Extent algebra: unit tests plus randomized properties checked against a
// brute-force byte-set model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/extent.h"
#include "util/memtrack.h"
#include "util/rng.h"

namespace mcio::util {
namespace {

TEST(Extent, Basics) {
  const Extent e{10, 5};
  EXPECT_EQ(e.end(), 15u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(e.contains(10));
  EXPECT_TRUE(e.contains(14));
  EXPECT_FALSE(e.contains(15));
  EXPECT_TRUE(e.contains(Extent{11, 3}));
  EXPECT_FALSE(e.contains(Extent{11, 5}));
  EXPECT_TRUE(e.contains(Extent{20, 0}));  // empty is contained anywhere
  EXPECT_TRUE(Extent({0, 0}).empty());
}

TEST(Extent, Overlaps) {
  EXPECT_TRUE((Extent{0, 10}.overlaps(Extent{9, 1})));
  EXPECT_FALSE((Extent{0, 10}.overlaps(Extent{10, 1})));
  EXPECT_TRUE((Extent{5, 5}.overlaps(Extent{0, 6})));
  EXPECT_FALSE((Extent{5, 5}.overlaps(Extent{0, 5})));
}

TEST(Extent, Intersect) {
  EXPECT_EQ(intersect(Extent{0, 10}, Extent{5, 10}), (Extent{5, 5}));
  EXPECT_EQ(intersect(Extent{5, 10}, Extent{0, 10}), (Extent{5, 5}));
  EXPECT_FALSE(intersect(Extent{0, 5}, Extent{5, 5}).has_value());
  EXPECT_FALSE(intersect(Extent{0, 0}, Extent{0, 5}).has_value());
  EXPECT_EQ(intersect(Extent{3, 4}, Extent{0, 100}), (Extent{3, 4}));
}

TEST(ExtentList, NormalizeMergesAdjacentAndOverlapping) {
  const auto list = ExtentList::normalize(
      {{10, 5}, {0, 5}, {5, 5}, {30, 2}, {29, 2}, {50, 0}});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.runs()[0], (Extent{0, 15}));
  EXPECT_EQ(list.runs()[1], (Extent{29, 3}));
  EXPECT_EQ(list.total_bytes(), 18u);
  EXPECT_EQ(list.bounds(), (Extent{0, 32}));
}

TEST(ExtentList, NormalizingANormalizedListAllocatesAtMostOnce) {
  // The exchange decodes every wire list through normalize: a sorted
  // list must be adopted, not re-sorted into a second vector. The one
  // allocation is the by-value copy of the argument.
  std::vector<Extent> runs;
  for (std::uint64_t i = 0; i < 100'000; ++i) runs.push_back({i * 16, 8});
  memtrack::reset();
  const ExtentList list = ExtentList::normalize(runs);
  EXPECT_LE(memtrack::allocations(), 1u);
  EXPECT_EQ(list.runs(), runs);
}

TEST(ExtentList, AddKeepsUnionCorrect) {
  // Regression for the order-of-mutation bug: extending a run to the
  // right must keep the extended tail.
  ExtentList l;
  l.add(Extent{0, 10});
  l.add(Extent{10, 10});
  ASSERT_EQ(l.size(), 1u);
  EXPECT_EQ(l.runs()[0], (Extent{0, 20}));
  l.add(Extent{30, 5});
  l.add(Extent{19, 12});  // bridges the gap
  ASSERT_EQ(l.size(), 1u);
  EXPECT_EQ(l.runs()[0], (Extent{0, 35}));
}

TEST(ExtentList, Clipped) {
  const auto list =
      ExtentList::normalize({{0, 10}, {20, 10}, {40, 10}});
  const auto clip = list.clipped(Extent{5, 30});
  ASSERT_EQ(clip.size(), 2u);
  EXPECT_EQ(clip.runs()[0], (Extent{5, 5}));
  EXPECT_EQ(clip.runs()[1], (Extent{20, 10}));
  EXPECT_TRUE(list.clipped(Extent{10, 10}).empty());
  EXPECT_TRUE(list.clipped(Extent{100, 5}).empty());
}

TEST(ExtentList, Covers) {
  const auto list = ExtentList::normalize({{0, 10}, {20, 10}});
  EXPECT_TRUE(list.covers(Extent{0, 10}));
  EXPECT_TRUE(list.covers(Extent{22, 5}));
  EXPECT_FALSE(list.covers(Extent{5, 10}));
  EXPECT_FALSE(list.covers(Extent{9, 2}));
  EXPECT_TRUE(list.covers(Extent{500, 0}));
}

TEST(Pieces, InWindowWithBufferOffsets) {
  const std::vector<Extent> ext = {{0, 10}, {20, 10}, {40, 10}};
  PieceCursor cursor(ext);
  std::vector<Piece> pieces;
  cursor.advance(Extent{5, 40}, &pieces);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], (Piece{5, 5, 5}));
  EXPECT_EQ(pieces[1], (Piece{20, 10, 10}));
  EXPECT_EQ(pieces[2], (Piece{40, 20, 5}));
  // The next window starts where that one ended.
  cursor.advance(Extent{45, 100}, &pieces);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (Piece{45, 25, 5}));
}

TEST(Pieces, PackedOffset) {
  // Windows starting in a gap or past the end: the cursor's buffer
  // offsets count every byte before them.
  const std::vector<Extent> ext = {{0, 10}, {20, 10}};
  PieceCursor cursor(ext);
  std::vector<Piece> pieces;
  cursor.advance(Extent{5, 5}, &pieces);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (Piece{5, 5, 5}));
  cursor.advance(Extent{15, 10}, &pieces);  // starts inside the gap
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (Piece{20, 10, 5}));
  cursor.advance(Extent{25, 10}, &pieces);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (Piece{25, 15, 5}));
  cursor.advance(Extent{100, 10}, &pieces);
  EXPECT_TRUE(pieces.empty());
}

// ---- randomized property tests against a brute-force set-of-bytes model.

class ExtentListProperty : public ::testing::TestWithParam<std::uint64_t> {
};

std::set<std::uint64_t> to_set(const ExtentList& l) {
  std::set<std::uint64_t> s;
  for (const Extent& e : l.runs()) {
    for (std::uint64_t i = e.offset; i < e.end(); ++i) s.insert(i);
  }
  return s;
}

TEST_P(ExtentListProperty, UnionMatchesBruteForce) {
  Rng rng(GetParam());
  ExtentList list;
  std::set<std::uint64_t> model;
  for (int i = 0; i < 60; ++i) {
    const Extent e{rng.uniform_u64(200), rng.uniform_u64(20)};
    list.add(e);
    for (std::uint64_t b = e.offset; b < e.end(); ++b) model.insert(b);
    // Invariants: sorted, disjoint, non-adjacent.
    for (std::size_t k = 1; k < list.runs().size(); ++k) {
      ASSERT_LT(list.runs()[k - 1].end(), list.runs()[k].offset);
    }
    ASSERT_EQ(to_set(list), model);
    ASSERT_EQ(list.total_bytes(), model.size());
  }
}

bool by_offset_then_len(const Extent& a, const Extent& b) {
  return a.offset != b.offset ? a.offset < b.offset : a.len < b.len;
}

// The textbook normalization: drop empties, sort by (offset, len), then
// coalesce into a fresh list.
std::vector<Extent> sort_then_coalesce(std::vector<Extent> in) {
  std::erase_if(in, [](const Extent& e) { return e.empty(); });
  std::sort(in.begin(), in.end(), by_offset_then_len);
  std::vector<Extent> out;
  for (const Extent& e : in) {
    if (!out.empty() && e.offset <= out.back().end()) {
      out.back().len = std::max(out.back().end(), e.end()) - out.back().offset;
    } else {
      out.push_back(e);
    }
  }
  return out;
}

TEST_P(ExtentListProperty, NormalizeMatchesSortThenCoalesce) {
  Rng rng(GetParam() ^ 0x50e7);
  for (int round = 0; round < 40; ++round) {
    std::vector<Extent> raw;
    for (int i = 0; i < 50; ++i) {
      raw.push_back(Extent{rng.uniform_u64(400), rng.uniform_u64(12)});
    }
    std::vector<Extent> sorted = raw;  // overlaps, duplicates, empties
    std::sort(sorted.begin(), sorted.end(), by_offset_then_len);
    sorted.push_back(sorted.back());
    std::vector<Extent> adjacent;  // sorted, touching and gapped runs
    for (std::uint64_t pos = 0; adjacent.size() < 50;) {
      pos += rng.uniform_u64(2) == 0 ? 0 : 1 + rng.uniform_u64(5);
      adjacent.push_back(Extent{pos, 1 + rng.uniform_u64(8)});
      pos = adjacent.back().end();
    }
    const std::vector<Extent> shapes[] = {
        sort_then_coalesce(raw),  // already normalized
        adjacent,
        sorted,
        raw,  // unsorted, with empty extents
        {{7, 0}, {3, 0}},
        {},
    };
    for (const std::vector<Extent>& in : shapes) {
      ASSERT_EQ(ExtentList::normalize(in).runs(), sort_then_coalesce(in))
          << "round " << round << ", " << in.size() << " extents";
    }
  }
}

TEST_P(ExtentListProperty, MergeMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int round = 0; round < 20; ++round) {
    // Interleaved, touching and disjoint-after lists, sometimes empty.
    ExtentList a;
    ExtentList b;
    const std::uint64_t b_base = rng.uniform_u64(2) == 0 ? 0 : 300;
    for (int i = 0; i < 8; ++i) {
      a.add(Extent{rng.uniform_u64(300), rng.uniform_u64(12)});
      b.add(Extent{b_base + rng.uniform_u64(300), rng.uniform_u64(12)});
    }
    ExtentList by_add = a;
    for (const Extent& e : b.runs()) by_add.add(e);
    std::set<std::uint64_t> model = to_set(a);
    for (const std::uint64_t v : to_set(b)) model.insert(v);
    a.merge(b);
    ASSERT_EQ(to_set(a), model);
    ASSERT_EQ(a, by_add);  // the one normalized form
    a.merge(a);
    ASSERT_EQ(a, by_add);
  }
}

TEST_P(ExtentListProperty, ClipMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<Extent> raw;
  for (int i = 0; i < 30; ++i) {
    raw.push_back(Extent{rng.uniform_u64(300), rng.uniform_u64(15)});
  }
  const auto list = ExtentList::normalize(raw);
  const auto model = to_set(list);
  for (int i = 0; i < 20; ++i) {
    const Extent w{rng.uniform_u64(300), rng.uniform_u64(80)};
    const auto clip = list.clipped(w);
    std::set<std::uint64_t> expected;
    for (const std::uint64_t b : model) {
      if (w.contains(b)) expected.insert(b);
    }
    ASSERT_EQ(to_set(clip), expected) << "window " << w;
  }
}

TEST_P(ExtentListProperty, PiecesPartitionTheWindow) {
  Rng rng(GetParam() ^ 0x777);
  std::vector<Extent> raw;
  for (int i = 0; i < 20; ++i) {
    raw.push_back(Extent{rng.uniform_u64(400), 1 + rng.uniform_u64(10)});
  }
  const auto list = ExtentList::normalize(raw);
  // Brute-force reference: each byte's packed buffer offset is the count
  // of request bytes before it.
  std::map<std::uint64_t, std::uint64_t> packed;
  for (const std::uint64_t b : to_set(list)) {
    packed.emplace(b, packed.size());
  }
  PieceCursor cursor(list.runs());
  std::vector<Piece> pieces;
  // Monotone windows, as the exchange engine issues them.
  std::uint64_t pos = 0;
  while (pos < 420) {
    const std::uint64_t len = 1 + rng.uniform_u64(60);
    const Extent w{pos, len};
    cursor.advance(w, &pieces);
    std::map<std::uint64_t, std::uint64_t> got;
    for (const Piece& p : pieces) {
      for (std::uint64_t i = 0; i < p.len; ++i) {
        ASSERT_TRUE(got.emplace(p.file_offset + i, p.buf_offset + i).second)
            << "byte " << p.file_offset + i << " in two pieces";
      }
    }
    std::map<std::uint64_t, std::uint64_t> expected;
    for (const auto& [b, off] : packed) {
      if (w.contains(b)) expected.emplace(b, off);
    }
    ASSERT_EQ(got, expected) << "window " << w;
    pos += len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentListProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace mcio::util
