// Property tests for derived datatypes: random vector / indexed /
// struct-like compositions are checked against a naive byte-map reference
// (a std::set of data-byte offsets built straight from the MPI typemap
// rules, with no run merging), and round-tripped losslessly through file
// views — the simulator's equivalent of MPI_Pack / MPI_Unpack is a
// write_all through the view followed by a read_all.
//
// The seed defaults to 42 and honours MCIO_TEST_SEED (see testing.h), so
// a failing draw is always replayable.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/mccio_driver.h"
#include "io/two_phase_driver.h"
#include "mpi/datatype.h"
#include "testing.h"
#include "util/rng.h"

namespace mcio::mpi {
namespace {

using util::Extent;

// ---------------------------------------------------------------------------
// Naive reference model: a type is the set of its data-byte offsets
// (relative to 0, like Datatype's runs) plus (lb, extent). Each rule below
// restates the MPI typemap definition directly; no extent merging, no
// normalization — disagreement with Datatype means one of the two is wrong.

struct Naive {
  std::set<std::uint64_t> bytes;
  std::uint64_t lb = 0;
  std::uint64_t extent = 0;

  std::uint64_t span() const {
    return bytes.empty() ? 0 : *bytes.rbegin() + 1 - *bytes.begin();
  }
};

Naive naive_bytes(std::uint64_t n) {
  Naive t;
  for (std::uint64_t i = 0; i < n; ++i) t.bytes.insert(i);
  t.extent = n;
  return t;
}

Naive naive_contiguous(std::uint64_t count, const Naive& base) {
  Naive t;
  for (std::uint64_t i = 0; i < count; ++i) {
    for (const std::uint64_t b : base.bytes) {
      t.bytes.insert(i * base.extent + b);
    }
  }
  t.lb = base.lb;
  t.extent = count * base.extent;
  return t;
}

Naive naive_vector(std::uint64_t count, std::uint64_t blocklen,
                   std::uint64_t stride, const Naive& base) {
  Naive t;
  for (std::uint64_t i = 0; i < count; ++i) {
    for (std::uint64_t j = 0; j < blocklen; ++j) {
      for (const std::uint64_t b : base.bytes) {
        t.bytes.insert((i * stride + j) * base.extent + b);
      }
    }
  }
  t.lb = base.lb;
  t.extent =
      count == 0 ? 0 : ((count - 1) * stride + blocklen) * base.extent;
  return t;
}

Naive naive_indexed(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks,
    const Naive& base) {
  Naive t;
  for (const auto& [disp, blocklen] : blocks) {
    for (std::uint64_t j = 0; j < blocklen; ++j) {
      for (const std::uint64_t b : base.bytes) {
        t.bytes.insert((disp + j) * base.extent + b);
      }
    }
    t.extent = std::max(t.extent, (disp + blocklen) * base.extent);
  }
  return t;
}

Naive naive_resized(const Naive& base, std::uint64_t lb,
                    std::uint64_t extent) {
  Naive t = base;
  t.lb = lb;
  t.extent = extent;
  return t;
}

std::set<std::uint64_t> naive_flatten(const Naive& t, std::uint64_t disp,
                                      std::uint64_t count) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    for (const std::uint64_t b : t.bytes) {
      out.insert(disp + t.lb + i * t.extent + b);
    }
  }
  return out;
}

std::set<std::uint64_t> as_byte_set(const std::vector<Extent>& runs) {
  std::set<std::uint64_t> out;
  for (const Extent& e : runs) {
    for (std::uint64_t b = 0; b < e.len; ++b) out.insert(e.offset + b);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Random type generation. Both representations are built from the same
// draws. Shapes keep span(runs) <= extent so tiling never self-overlaps
// (Datatype rejects overlapping file views by design), and indexed blocks
// use ascending gapped displacements for the same reason.

struct Pair {
  Datatype type;
  Naive naive;
};

Pair gen_type(util::Rng& rng, int depth) {
  if (depth == 0) {
    const auto n = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
    return Pair{Datatype::bytes(n), naive_bytes(n)};
  }
  const Pair base = gen_type(rng, depth - 1);
  switch (rng.uniform_u64(4)) {
    case 0: {
      const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 5));
      return Pair{Datatype::contiguous(count, base.type),
                  naive_contiguous(count, base.naive)};
    }
    case 1: {
      const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
      const auto blocklen =
          static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      const std::uint64_t stride =
          blocklen + static_cast<std::uint64_t>(rng.uniform_int(0, 4));
      return Pair{Datatype::vector(count, blocklen, stride, base.type),
                  naive_vector(count, blocklen, stride, base.naive)};
    }
    case 2: {
      // Struct-like heterogeneous layout: blocks of varying length at
      // explicit displacements (the closest analogue of
      // MPI_Type_create_struct this simulator models).
      std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
      std::uint64_t cursor = 0;
      const int nblocks = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < nblocks; ++i) {
        const std::uint64_t disp =
            cursor + static_cast<std::uint64_t>(rng.uniform_int(0, 3));
        const auto len = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
        blocks.push_back({disp, len});
        cursor = disp + len;
      }
      return Pair{Datatype::indexed(blocks, base.type),
                  naive_indexed(blocks, base.naive)};
    }
    default: {
      // Resized: pad the extent (never below the span, so tiling stays
      // overlap-free) and nudge the lower bound.
      const std::uint64_t span = base.naive.span();
      const std::uint64_t extent =
          std::max(base.naive.extent, span) +
          static_cast<std::uint64_t>(rng.uniform_int(0, 16));
      const auto lb = static_cast<std::uint64_t>(rng.uniform_int(0, 8));
      return Pair{Datatype::resized(base.type, lb, extent),
                  naive_resized(base.naive, lb, extent)};
    }
  }
}

// ---------------------------------------------------------------------------

TEST(DatatypeProperty, AgreesWithNaiveReference) {
  util::Rng rng(mcio::testing::test_seed());
  for (int iter = 0; iter < 200; ++iter) {
    const int depth = static_cast<int>(rng.uniform_int(1, 3));
    const Pair p = gen_type(rng, depth);
    ASSERT_GT(p.type.size(), 0u);

    EXPECT_EQ(p.type.size(), p.naive.bytes.size()) << "iter " << iter;
    EXPECT_EQ(p.type.extent(), p.naive.extent) << "iter " << iter;
    EXPECT_EQ(p.type.lb(), p.naive.lb) << "iter " << iter;

    const auto disp = static_cast<std::uint64_t>(rng.uniform_int(0, 4096));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    const auto runs = p.type.flatten(disp, count);

    // Byte-for-byte agreement with the naive tiling.
    EXPECT_EQ(as_byte_set(runs), naive_flatten(p.naive, disp, count))
        << "iter " << iter;

    // Normalization: sorted, disjoint, with adjacent runs merged.
    for (std::size_t k = 0; k + 1 < runs.size(); ++k) {
      EXPECT_GT(runs[k + 1].offset, runs[k].end()) << "iter " << iter;
    }
  }
}

TEST(DatatypeProperty, FlattenBytesIsTypemapPrefix) {
  util::Rng rng(mcio::testing::test_seed() + 1);
  for (int iter = 0; iter < 100; ++iter) {
    const Pair p = gen_type(rng, static_cast<int>(rng.uniform_int(1, 3)));
    const auto disp = static_cast<std::uint64_t>(rng.uniform_int(0, 512));
    const std::uint64_t total = p.type.size() * 3;
    const std::uint64_t take =
        1 + rng.uniform_u64(total);  // in [1, 3 instances]

    // Reference: first `take` bytes in typemap order. Within an instance
    // the naive byte set iterates in ascending offset order, which *is*
    // typemap order for these types (runs are sorted).
    const auto full = naive_flatten(p.naive, disp, 3);
    std::set<std::uint64_t> expect;
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < 3 && n < take; ++i) {
      for (const std::uint64_t b : p.naive.bytes) {
        if (n == take) break;
        expect.insert(disp + p.naive.lb + i * p.naive.extent + b);
        ++n;
      }
    }
    ASSERT_EQ(expect.size(), take);
    EXPECT_EQ(as_byte_set(p.type.flatten_bytes(disp, take)), expect)
        << "iter " << iter;
    EXPECT_TRUE(std::includes(full.begin(), full.end(), expect.begin(),
                              expect.end()));
  }
}

// Pack -> unpack losslessness through the simulator: each rank sets a
// file view built from a random datatype at a rank-private displacement,
// writes a seeded buffer collectively, then reads it back through the
// same view. The read buffer must equal the written one byte for byte —
// under both the two-phase and the MCCIO collective drivers.
void view_round_trip(io::CollectiveDriver& driver, std::uint64_t seed) {
  util::Rng shape_rng(seed);
  const int nranks = 4;
  // One shared shape per collective (ranks must agree on the view shape
  // for the collective pattern to make sense; displacements differ).
  const Pair p = gen_type(shape_rng, 2);
  const std::uint64_t instances =
      1 + shape_rng.uniform_u64(4);  // in [1, 4]
  const std::uint64_t data_bytes = p.type.size() * instances;
  const std::uint64_t rank_span =
      (p.naive.lb + p.naive.extent * instances + 4096) / 4096 * 4096;

  core::SimStack cluster(mcio::testing::mini_stack());
  cluster.machine().run(nranks, [&](mpi::Rank& rank) {
    io::MPIFile file(rank, rank.world(), cluster.services(), "/dtview",
                     /*create=*/true, io::Hints{}, &driver);
    file.set_view(static_cast<std::uint64_t>(rank.rank()) * rank_span,
                  p.type);

    std::vector<std::byte> wbuf(data_bytes);
    util::Rng data_rng(seed ^ static_cast<std::uint64_t>(rank.rank()));
    for (std::byte& b : wbuf) {
      b = static_cast<std::byte>(data_rng.next_u64() & 0xff);
    }
    file.write_all(util::ConstPayload::of(wbuf));
    rank.world().barrier();

    // Collective I/O advances the per-rank view cursor; reset it (as
    // MPI_File_set_view resets the individual file pointer) so the read
    // traverses the same tiles.
    file.set_view(static_cast<std::uint64_t>(rank.rank()) * rank_span,
                  p.type);
    std::vector<std::byte> rbuf(data_bytes);
    file.read_all(util::Payload::of(rbuf));
    rank.world().barrier();
    EXPECT_EQ(wbuf, rbuf) << "rank " << rank.rank() << " seed " << seed;
  });
}

TEST(DatatypeProperty, ViewRoundTripTwoPhase) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    io::TwoPhaseDriver driver;
    view_round_trip(driver, mcio::testing::test_seed() + i);
  }
}

TEST(DatatypeProperty, ViewRoundTripMccio) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    core::MccioDriver driver;
    view_round_trip(driver, mcio::testing::test_seed() + i);
  }
}

}  // namespace
}  // namespace mcio::mpi
