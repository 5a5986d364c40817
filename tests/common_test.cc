/**
 * @file
 * Unit tests for the common substrate: RNG determinism, Zipf sampling,
 * saturating counters, histograms, stats registry, integer math, table
 * printing and CLI parsing.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/histogram.hh"
#include "common/intmath.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"

namespace garibaldi
{
namespace
{

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineNumber(0x1234), 0x48u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
    EXPECT_EQ(pageOffset(0x12345), 0x345u);
    EXPECT_EQ(lineInPage(0x12345), 0x345u >> 6);
}

TEST(Types, LineInPageIsSixBits)
{
    for (Addr a = 0; a < 4 * kPageBytes; a += 64)
        EXPECT_LT(lineInPage(a), 64u);
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(divCeil(10, 3), 4u);
}

TEST(IntMath, Mix64Spreads)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Deterministic)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedInRange)
{
    Pcg32 rng(1, 1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Pcg32 rng(3, 3);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ChanceExtremes)
{
    Pcg32 rng(5, 5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Pcg32 rng(7, 7);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    Pcg32 rng(11, 11);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 5000, 600);
}

TEST(Zipf, SkewPrefersLowRanks)
{
    Pcg32 rng(13, 13);
    ZipfSampler z(1000, 1.0);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t r = z.sample(rng);
        ASSERT_LT(r, 1000u);
        if (r < 10)
            ++low;
        if (r >= 500)
            ++high;
    }
    EXPECT_GT(low, high);
    EXPECT_GT(low, 10000u); // rank<10 gets a large share at alpha=1
}

TEST(Zipf, SingletonPopulation)
{
    Pcg32 rng(17, 17);
    ZipfSampler z(1, 1.2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Feistel, IsPermutation)
{
    std::set<std::uint64_t> seen;
    const std::uint64_t n = 1000;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t y = feistelPermute(i, n, 0xabcd);
        ASSERT_LT(y, n);
        seen.insert(y);
    }
    EXPECT_EQ(seen.size(), n);
}

TEST(Feistel, KeyChangesPermutation)
{
    int same = 0;
    for (std::uint64_t i = 0; i < 256; ++i)
        same += feistelPermute(i, 256, 1) == feistelPermute(i, 256, 2);
    EXPECT_LT(same, 32);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(3, 0);
    for (int i = 0; i < 20; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(3, 7);
    for (int i = 0; i < 20; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, IsSetAtMidpoint)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.isSet()); // 0
    c.increment();
    EXPECT_FALSE(c.isSet()); // 1
    c.increment();
    EXPECT_TRUE(c.isSet()); // 2
}

TEST(SatCounter, ClampedConstruction)
{
    SatCounter c(2, 100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, EightBitsIsTheWidest)
{
    SatCounter c(8, 300);
    EXPECT_EQ(c.value(), 255u);
    c.increment(10);
    EXPECT_EQ(c.value(), 255u);
    EXPECT_DEATH({ SatCounter wide(9); }, "SatCounter width out of range");
}

TEST(Histogram, MeanAndPercentiles)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_NEAR(h.mean(), 49.5, 0.01);
    EXPECT_NEAR(h.percentile(0.5), 50, 1);
    EXPECT_EQ(h.maxValue(), 99u);
    EXPECT_EQ(h.count(), 100u);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(10, 4);
    h.add(1000);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_EQ(h.maxValue(), 1000u);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(1, 10), b(1, 10);
    a.add(1);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(1, 10);
    h.add(4, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_NEAR(h.mean(), 4.0, 1e-9);
}

TEST(Stats, AddGetOverwrite)
{
    StatSet s;
    s.add("a", 1);
    s.add("b", 2);
    s.add("a", 3);
    EXPECT_EQ(s.get("a"), 3);
    EXPECT_EQ(s.get("b"), 2);
    EXPECT_EQ(s.entries().size(), 2u);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("c"));
}

TEST(Stats, PrefixedMerge)
{
    StatSet inner;
    inner.add("x", 5);
    StatSet outer;
    outer.addAll("pre.", inner);
    EXPECT_EQ(outer.get("pre.x"), 5);
}

TEST(Stats, WindowRuleIsSetWhereTheEntryIsAdded)
{
    StatSet s;
    s.add("hits", 3);
    s.add("misses", 1);
    s.addGauge("threshold", 32);
    s.addRate("coverage", "hits", {"hits", "misses"});
    EXPECT_DOUBLE_EQ(s.get("coverage"), 0.75);
    EXPECT_EQ(s.windowRule("hits"), WindowRule::Subtract);
    EXPECT_EQ(s.windowRule("threshold"), WindowRule::KeepLast);
    EXPECT_EQ(s.windowRule("coverage"), WindowRule::Recompute);
    // A zero denominator reads 0, like safeRate.
    StatSet empty;
    empty.add("n", 0);
    empty.addRate("r", "n", {"n"});
    EXPECT_DOUBLE_EQ(empty.get("r"), 0.0);

    // addAll keeps each rule and prefixes a rate's raw names.
    StatSet outer;
    outer.addAll("helper.", s);
    ASSERT_EQ(outer.entries().size(), 4u);
    EXPECT_EQ(outer.entries()[3].first, "helper.coverage");
    EXPECT_EQ(outer.windowRule("helper.threshold"), WindowRule::KeepLast);
    const StatSet::Rule &rule = outer.rules()[3];
    EXPECT_EQ(rule.window, WindowRule::Recompute);
    EXPECT_EQ(rule.rate.num, "helper.hits");
    EXPECT_EQ(rule.rate.den,
              (std::vector<std::string>{"helper.hits", "helper.misses"}));
}

TEST(StatsDeathTest, RateWithAbsentRawCounterPanics)
{
    StatSet s;
    s.add("hits", 3);
    EXPECT_DEATH(s.addRate("hit_rate", "hits", {"accesses"}),
                 "rate 'hit_rate' reads absent counter 'accesses'");
    EXPECT_DEATH(s.addRate("miss_rate", "misses", {"hits"}),
                 "absent counter 'misses'");
}

TEST(TablePrinter, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string text = t.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(TablePrinter, Formatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.123, 1), "+12.3%");
    EXPECT_EQ(TablePrinter::pct(-0.05, 1), "-5.0%");
}

TEST(Cli, ParsesAllForms)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    p.addDouble("f", 1.5, "factor");
    p.addString("s", "x", "name");
    p.addFlag("v", "verbose");
    const char *argv[] = {"prog", "--n", "10", "--f=2.5", "--v",
                          "--s", "hello"};
    p.parse(7, argv);
    EXPECT_EQ(p.getInt("n"), 10);
    EXPECT_DOUBLE_EQ(p.getDouble("f"), 2.5);
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_TRUE(p.getFlag("v"));
}

TEST(Cli, DefaultsSurvive)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_EQ(p.getInt("n"), 5);
}

TEST(Cli, HexIntegersParse)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    const char *argv[] = {"prog", "--n", "0x10"};
    p.parse(3, argv);
    EXPECT_EQ(p.getInt("n"), 16);
}

/** Parse "--<name> <value>" against an int "n" and a double "f". */
void
parseOne(const char *name, const char *value)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    p.addDouble("f", 1.5, "factor");
    std::string flag = std::string("--") + name;
    const char *argv[] = {"prog", flag.c_str(), value};
    p.parse(3, argv);
}

TEST(Cli, RejectsMalformedNumbers)
{
    // Trailing garbage used to parse as its numeric prefix ("5e4" -> 5)
    // and non-numbers as 0; now each is an error, exit 1.
    EXPECT_EXIT(parseOne("n", "5e4"), testing::ExitedWithCode(1),
                "error: --n value '5e4' is not an integer");
    EXPECT_EXIT(parseOne("n", "abc"), testing::ExitedWithCode(1),
                "is not an integer");
    EXPECT_EXIT(parseOne("n", ""), testing::ExitedWithCode(1),
                "is not an integer");
    EXPECT_EXIT(parseOne("n", "99999999999999999999"),
                testing::ExitedWithCode(1), "is out of range");
    EXPECT_EXIT(parseOne("f", "1.5x"), testing::ExitedWithCode(1),
                "error: --f value '1.5x' is not a number");
    EXPECT_EXIT(parseOne("f", "1e999"), testing::ExitedWithCode(1),
                "is out of range");
}

/** getUnsigned("n") after parsing "--n <value>". */
std::uint64_t
unsignedOf(const char *value)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    const char *argv[] = {"prog", "--n", value};
    p.parse(3, argv);
    return p.getUnsigned("n");
}

TEST(Cli, UnsignedRejectsNegativeCounts)
{
    // A negative count used to wrap to a huge unsigned value (an
    // allocation failure or a run that never ends); now it is an
    // error, exit 1, while zero and positive values pass through.
    EXPECT_EQ(unsignedOf("0"), 0u);
    EXPECT_EQ(unsignedOf("12"), 12u);
    EXPECT_EQ(unsignedOf("0x10"), 16u);
    EXPECT_EXIT(unsignedOf("-1"), testing::ExitedWithCode(1),
                "error: --n must be >= 0 \\(got -1\\)");
    EXPECT_EXIT(unsignedOf("-0x10"), testing::ExitedWithCode(1),
                "error: --n must be >= 0 \\(got -16\\)");
}

TEST(Cli, BoundsRejectValuesTheTargetTypeCannotHold)
{
    // A value outside the caller's type used to be cut down to it
    // (4294967297 cores ran as 1 core); now it is an error, exit 1.
    auto parsed = [](const char *value) {
        ArgParser p("test");
        p.addInt("n", 5, "count");
        const char *argv[] = {"prog", "--n", value};
        p.parse(3, argv);
        return p;
    };
    constexpr auto kU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr auto kIntMin = std::numeric_limits<int>::min();
    constexpr auto kIntMax = std::numeric_limits<int>::max();
    EXPECT_EQ(parsed("4294967295").getUnsigned("n", kU32), kU32);
    EXPECT_EXIT(parsed("4294967297").getUnsigned("n", kU32),
                testing::ExitedWithCode(1),
                "error: --n must be <= 4294967295 \\(got 4294967297\\)");
    EXPECT_EXIT(parsed("-1").getUnsigned("n", kU32),
                testing::ExitedWithCode(1),
                "error: --n must be >= 0 \\(got -1\\)");
    EXPECT_EQ(parsed("-2147483648").getInt("n", kIntMin, kIntMax),
              kIntMin);
    EXPECT_EQ(parsed("2147483647").getInt("n", kIntMin, kIntMax),
              kIntMax);
    EXPECT_EXIT(parsed("4294967312").getInt("n", kIntMin, kIntMax),
                testing::ExitedWithCode(1),
                "error: --n must be <= 2147483647 \\(got 4294967312\\)");
    EXPECT_EXIT(parsed("-2147483649").getInt("n", kIntMin, kIntMax),
                testing::ExitedWithCode(1),
                "error: --n must be >= -2147483648 \\(got -2147483649\\)");
    // No bound given: the full int64 range, as before.
    EXPECT_EQ(parsed("-9000000000").getInt("n"), -9000000000LL);
}

} // namespace
} // namespace garibaldi
