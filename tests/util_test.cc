// Utilities: RNG determinism and distributions, streaming stats, byte
// formatting/parsing, tables, CLI.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/bytes.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/payload.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mcio::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stdev(), 3.0, 0.1);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {1.0, 4.0, 9.0, 16.0, 25.0};
  double sum = 0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_NEAR(s.mean(), 11.0, 1e-12);
  double m2 = 0;
  for (const double x : xs) m2 += (x - 11.0) * (x - 11.0);
  EXPECT_NEAR(s.variance(), m2 / 4.0, 1e-9);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 25.0);
  EXPECT_NEAR(s.cv(), s.stdev() / s.mean(), 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(Bytes, FormatRoundNumbers) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3 MiB");
  EXPECT_EQ(format_bytes(kGiB), "1 GiB");
  EXPECT_EQ(format_bytes(kMiB + kMiB / 2), "1.50 MiB");
}

TEST(Bytes, Parse) {
  EXPECT_EQ(parse_bytes("64"), 64u);
  EXPECT_EQ(parse_bytes("64K"), 64 * kKiB);
  EXPECT_EQ(parse_bytes("64KiB"), 64 * kKiB);
  EXPECT_EQ(parse_bytes("32M"), 32 * kMiB);
  EXPECT_EQ(parse_bytes("32mb"), 32 * kMiB);
  EXPECT_EQ(parse_bytes("1.5G"), kGiB + kGiB / 2);
  EXPECT_EQ(parse_bytes("2T"), 2 * kTiB);
  EXPECT_THROW(parse_bytes("12Q"), Error);
  EXPECT_THROW(parse_bytes(""), Error);
}

TEST(Table, AlignedOutput) {
  Table t({"a", "long-header"});
  t.add("xx", 1);
  t.add("y", 23456);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("23456"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("xx,1"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7",
                        "pos1", "--size=16M",      "--flag"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_bytes("size", 0), 16 * kMiB);
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_NO_THROW(cli.check_unused());
}

TEST(Cli, UnusedFlagDetected) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.check_unused(), Error);
}

TEST(Check, MacrosThrow) {
  EXPECT_THROW(MCIO_CHECK(false), Error);
  EXPECT_THROW(MCIO_CHECK_EQ(1, 2), Error);
  EXPECT_THROW(MCIO_CHECK_LT(2, 1), Error);
  EXPECT_NO_THROW(MCIO_CHECK_GE(2, 2));
  try {
    MCIO_CHECK_MSG(false, "context " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"),
              std::string::npos);
  }
}

TEST(Payload, SliceAndVirtual) {
  std::vector<std::byte> buf(16, std::byte{7});
  auto p = Payload::of(buf);
  EXPECT_FALSE(p.is_virtual());
  auto s = p.slice(4, 8);
  EXPECT_EQ(s.size, 8u);
  EXPECT_EQ(s.data, buf.data() + 4);
  auto v = Payload::virtual_bytes(100);
  EXPECT_TRUE(v.is_virtual());
  EXPECT_TRUE(v.slice(10, 50).is_virtual());
  EXPECT_THROW(p.slice(10, 10), Error);
}

TEST(Payload, CopyAndOwned) {
  std::vector<std::byte> src(8);
  for (int i = 0; i < 8; ++i) src[static_cast<std::size_t>(i)] =
      static_cast<std::byte>(i);
  std::vector<std::byte> dst(8, std::byte{0});
  copy_payload(Payload::of(dst), ConstPayload::of(src));
  EXPECT_EQ(dst, src);
  OwnedPayload owned{ConstPayload::of(src)};
  EXPECT_EQ(owned.size(), 8u);
  EXPECT_FALSE(owned.is_virtual());
  OwnedPayload vowned{ConstPayload::virtual_bytes(32)};
  EXPECT_TRUE(vowned.is_virtual());
  EXPECT_EQ(vowned.size(), 32u);
  // Virtual into real buffers is a no-op copy (checked at higher layers).
  copy_payload(Payload::virtual_bytes(8), ConstPayload::of(src));
}

}  // namespace
}  // namespace mcio::util
