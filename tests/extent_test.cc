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
    // Normalized lists with one defect that the adopt-as-is fast path
    // must reject: a touching pair, an empty run in mid-list, a duplicated
    // run, the last two runs swapped.
    std::vector<Extent> gapped;  // gaps of at least 2
    for (std::uint64_t pos = 0; gapped.size() < 20;) {
      pos += 2 + rng.uniform_u64(5);
      gapped.push_back(Extent{pos, 1 + rng.uniform_u64(8)});
      pos = gapped.back().end();
    }
    const std::size_t at = 1 + rng.uniform_u64(gapped.size() - 2);
    std::vector<Extent> touching = gapped;
    const std::uint64_t pull = touching[at].offset - touching[at - 1].end();
    for (std::size_t k = at; k < touching.size(); ++k) {
      touching[k].offset -= pull;
    }
    std::vector<Extent> mid_empty = gapped;  // inside a gap, touching none
    mid_empty.insert(mid_empty.begin() + static_cast<std::ptrdiff_t>(at),
                     Extent{mid_empty[at - 1].end() + 1, 0});
    std::vector<Extent> duplicated = gapped;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(at),
                      duplicated[at]);
    std::vector<Extent> swapped = gapped;
    std::swap(swapped[swapped.size() - 2], swapped.back());
    const std::pair<const char*, std::vector<Extent>> shapes[] = {
        {"normalized", sort_then_coalesce(raw)},
        {"adjacent", adjacent},
        {"sorted", sorted},
        {"raw", raw},  // unsorted, with empty extents
        {"empties", {{7, 0}, {3, 0}}},
        {"none", {}},
        {"gapped", gapped},
        {"touching", touching},
        {"mid-empty", mid_empty},
        {"duplicated", duplicated},
        {"swapped", swapped},
    };
    for (const auto& [name, in] : shapes) {
      ASSERT_EQ(ExtentList::normalize(in).runs(), sort_then_coalesce(in))
          << name << " input, round " << round;
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
  // A long list merged with a list that touches only its tail, and with
  // one that bridges its last two runs: the runs before the first that
  // moves must be coalesced with it, not left standing next to it.
  ExtentList longer;
  for (std::uint64_t i = 0; i < 64; ++i) {
    longer.add(Extent{i * 20 + rng.uniform_u64(5), 1 + rng.uniform_u64(10)});
  }
  const std::vector<Extent>& runs = longer.runs();
  const Extent last = runs.back();
  const Extent before_last = runs[runs.size() - 2];
  const std::pair<const char*, ExtentList> partners[] = {
      {"tail-touching", ExtentList::normalize({{last.end(), 3}})},
      {"bridging", ExtentList::normalize({{before_last.end(),
                                            last.offset - before_last.end()}})},
      {"overlapping-bridge",
       ExtentList::normalize({{before_last.end() - 1, 2},
                              {last.end() - 1, 4}})},
  };
  for (const auto& [name, partner] : partners) {
    ExtentList merged = longer;
    ExtentList by_add = longer;
    for (const Extent& e : partner.runs()) by_add.add(e);
    merged.merge(partner);
    ASSERT_EQ(merged, by_add) << name << " partner " << partner;
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

TEST_P(ExtentListProperty, CursorMatchesClipped) {
  Rng rng(GetParam() ^ 0xc0c0);
  for (int round = 0; round < 10; ++round) {
    std::vector<Extent> raw;
    for (int i = 0; i < 40; ++i) {
      raw.push_back(Extent{rng.uniform_u64(600), rng.uniform_u64(20)});
    }
    const auto list = ExtentList::normalize(raw);
    if (list.empty()) continue;
    // Monotone windows (nondecreasing offsets): around every run, the
    // named cases; between runs, now and then a random window that may
    // span many runs; then windows past the last run.
    std::vector<Extent> windows = {{0, 0}};
    std::uint64_t pos = 0;  // no later window may start before this
    for (const Extent& r : list.runs()) {
      if (pos < r.offset && rng.uniform_u64(2) == 0) {
        pos += rng.uniform_u64(r.offset - pos);
        windows.push_back(Extent{pos, rng.uniform_u64(200)});
      }
      if (r.offset > pos) windows.push_back(Extent{r.offset - 1, 2});
      if (r.len >= 3) windows.push_back(Extent{r.offset + 1, r.len - 2});
      windows.push_back(Extent{r.offset + r.len / 2, 0});  // empty
      windows.push_back(Extent{r.end() - 1, 2});  // straddles the end
      windows.push_back(windows.back());  // repeated
      pos = r.end() - 1;
    }
    const std::uint64_t end = list.bounds().end();
    windows.push_back(Extent{end, 10});
    windows.push_back(Extent{end + 100, 0});
    windows.push_back(Extent{end + 100, 10});
    ExtentCursor cursor(list);
    ExtentList clip;  // one reused list
    for (const Extent& w : windows) {
      cursor.clipped_into(w, &clip);
      ASSERT_EQ(clip, list.clipped(w)) << "window " << w << " of " << list;
    }
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
