/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <string>
#include <vector>

#include "util/arg_parser.hh"
#include "util/numbers.hh"

namespace zatel
{
namespace
{

ArgParser
makeParser()
{
    ArgParser parser("tool", "test tool");
    parser.addOption("scene", "PARK", "scene name");
    parser.addOption("res", "128", "resolution");
    parser.addFlag("verbose", "chatty output");
    parser.addRequired("mode", "operating mode");
    return parser;
}

bool
parseArgs(ArgParser &parser, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return parser.parse(static_cast<int>(args.size()), args.data());
}

TEST(ArgParser, DefaultsApply)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(parseArgs(parser, {"--mode", "go"}));
    EXPECT_EQ(parser.get("scene"), "PARK");
    EXPECT_EQ(parser.getUint("res", 1, 4096), 128u);
    EXPECT_FALSE(parser.getFlag("verbose"));
    EXPECT_FALSE(parser.has("scene"));
}

TEST(ArgParser, SpaceAndEqualsSyntax)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(
        parseArgs(parser, {"--mode=run", "--scene", "BUNNY", "--res=64"}));
    EXPECT_EQ(parser.get("mode"), "run");
    EXPECT_EQ(parser.get("scene"), "BUNNY");
    EXPECT_EQ(parser.getUint("res", 1, 4096), 64u);
    EXPECT_TRUE(parser.has("scene"));
}

TEST(ArgParser, FlagsAndPositionals)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(parseArgs(parser,
                          {"predict", "--verbose", "--mode", "x", "extra"}));
    EXPECT_TRUE(parser.getFlag("verbose"));
    ASSERT_EQ(parser.positional().size(), 2u);
    EXPECT_EQ(parser.positional()[0], "predict");
    EXPECT_EQ(parser.positional()[1], "extra");
}

TEST(ArgParser, MissingRequiredFails)
{
    ArgParser parser = makeParser();
    EXPECT_FALSE(parseArgs(parser, {"--scene", "PARK"}));
    EXPECT_NE(parser.errorMessage().find("mode"), std::string::npos);
}

TEST(ArgParser, UnknownOptionFails)
{
    ArgParser parser = makeParser();
    EXPECT_FALSE(parseArgs(parser, {"--mode", "x", "--bogus", "1"}));
    EXPECT_NE(parser.errorMessage().find("bogus"), std::string::npos);
}

TEST(ArgParser, MissingValueFails)
{
    ArgParser parser = makeParser();
    EXPECT_FALSE(parseArgs(parser, {"--mode"}));
    EXPECT_NE(parser.errorMessage().find("needs a value"),
              std::string::npos);
}

TEST(ArgParser, FlagWithValueFails)
{
    ArgParser parser = makeParser();
    EXPECT_FALSE(parseArgs(parser, {"--mode", "x", "--verbose=2"}));
}

/** A parser holding "--value @p text". */
ArgParser
parserWithValue(const char *text)
{
    ArgParser parser("t");
    parser.addOption("value", "0", "a number");
    std::vector<const char *> args{"t", "--value", text};
    EXPECT_TRUE(parser.parse(static_cast<int>(args.size()), args.data()));
    return parser;
}

uint64_t
uintOf(const char *text, uint64_t lo = 0, uint64_t hi = UINT64_MAX)
{
    return parserWithValue(text).getUint("value", lo, hi);
}

double
doubleOf(const char *text, double lo = -DBL_MAX, double hi = DBL_MAX)
{
    return parserWithValue(text).getDouble("value", lo, hi);
}

/** The message getUint() throws for @p text. */
std::string
uintError(const char *text, uint64_t lo, uint64_t hi)
{
    try {
        uintOf(text, lo, hi);
    } catch (const NumberError &err) {
        return err.what();
    }
    return "accepted";
}

TEST(ArgParser, NumericConversions)
{
    EXPECT_EQ(uintOf("42"), 42u);
    EXPECT_EQ(doubleOf("0.25"), 0.25);
    EXPECT_EQ(doubleOf("-2.5e-3"), -2.5e-3);
    // Base 10 in every reader: a leading zero is not octal.
    EXPECT_EQ(uintOf("010"), 10u);
    EXPECT_EQ(doubleOf("010"), 10.0);
}

TEST(ArgParser, MalformedNumberIsFatal)
{
    // A malformed value throws; the tool's main prints it as its
    // `error:` line. Nothing exits from inside the parser.
    for (const char *text : {"abc", "", "12abc", "1.5", "0x3", "0b1", "1e3"})
        EXPECT_THROW(uintOf(text), NumberError) << text;
    for (const char *text : {"abc", "", "1.5s", "0x3", "0x1p4"})
        EXPECT_THROW(doubleOf(text), NumberError) << text;
    // A sign is refused, never wrapped into the unsigned range.
    for (const char *text : {"-1", " -0", "-18446744073709551615"})
        EXPECT_THROW(uintOf(text), NumberError) << text;
    EXPECT_EQ(uintError("-1", 0, 100), "--value='-1' is negative");
    // Only finite reals.
    for (const char *text : {"nan", "inf", "-inf", "infinity", "NAN"})
        EXPECT_THROW(doubleOf(text), NumberError) << text;
}

TEST(ArgParser, OverflowingIntegerIsFatal)
{
    EXPECT_EQ(uintOf("18446744073709551615"), UINT64_MAX);
    EXPECT_THROW(uintOf("18446744073709551616"), NumberError);
    EXPECT_THROW(uintOf("99999999999999999999999"), NumberError);
    // A finite real beyond its bound is rejected before any cast: a
    // 1e300 s timeout would overflow the clock arithmetic.
    EXPECT_EQ(doubleOf("1e300"), 1e300);
    EXPECT_THROW(doubleOf("1e300", 0.0, 86400.0), NumberError);
    EXPECT_THROW(doubleOf("1e999"), NumberError);
}

TEST(ArgParser, GetIntInRangeAcceptsBoundsAndRejectsOutside)
{
    EXPECT_EQ(uintOf("0", 0, 100), 0u);
    EXPECT_EQ(uintOf("100", 0, 100), 100u);
    EXPECT_THROW(uintOf("101", 0, 100), NumberError);
    EXPECT_EQ(uintError("101", 0, 100),
              "--value='101' is out of range [0, 100]");
    EXPECT_EQ(doubleOf("0", 0.0, 1.0), 0.0);
    EXPECT_EQ(doubleOf("1", 0.0, 1.0), 1.0);
    EXPECT_THROW(doubleOf("1.5", 0.0, 1.0), NumberError);
    EXPECT_THROW(doubleOf("-0.1", 0.0, 1.0), NumberError);
}

TEST(ArgParser, GetPositiveIntRejectsZeroAndNegative)
{
    EXPECT_EQ(uintOf("4", 1, UINT32_MAX), 4u);
    EXPECT_THROW(uintOf("0", 1, UINT32_MAX), NumberError);
    EXPECT_THROW(uintOf("-3", 1, UINT32_MAX), NumberError);
}

TEST(ArgParser, GetPortNumberBoundsAndEphemeralZero)
{
    EXPECT_EQ(uintOf("65535", 1, 65535), 65535u);
    // 0 is only a valid (ephemeral) port when the range allows it.
    EXPECT_EQ(uintOf("0", 0, 65535), 0u);
    EXPECT_THROW(uintOf("0", 1, 65535), NumberError);
    EXPECT_THROW(uintOf("65536", 0, 65535), NumberError);
    EXPECT_THROW(uintOf("99999", 0, 65535), NumberError);
}

TEST(ArgParser, UsageMentionsEverything)
{
    ArgParser parser = makeParser();
    std::string usage = parser.usage();
    EXPECT_NE(usage.find("--scene"), std::string::npos);
    EXPECT_NE(usage.find("--verbose"), std::string::npos);
    EXPECT_NE(usage.find("required"), std::string::npos);
    EXPECT_NE(usage.find("default: PARK"), std::string::npos);
}

TEST(ArgParser, RepeatedOptionsCollectInOrder)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(parseArgs(parser, {"--mode", "x", "--scene", "PARK",
                                   "--scene=BUNNY", "--scene", "SPNZA"}));
    // get() keeps its last-one-wins contract...
    EXPECT_EQ(parser.get("scene"), "SPNZA");
    // ...while getList() exposes every occurrence in order.
    EXPECT_EQ(parser.getList("scene"),
              (std::vector<std::string>{"PARK", "BUNNY", "SPNZA"}));
}

TEST(ArgParser, GetListFallsBackToDefault)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(parseArgs(parser, {"--mode", "x"}));
    // Unsupplied option with a non-empty default -> {default}.
    EXPECT_EQ(parser.getList("scene"),
              (std::vector<std::string>{"PARK"}));

    ArgParser empty_default("t");
    empty_default.addOption("csv", "", "output file");
    std::vector<const char *> args{"t"};
    ASSERT_TRUE(empty_default.parse(static_cast<int>(args.size()),
                                    args.data()));
    // Unsupplied option with an empty default -> {}.
    EXPECT_TRUE(empty_default.getList("csv").empty());
}

TEST(ArgParser, ReparseResetsState)
{
    ArgParser parser = makeParser();
    ASSERT_TRUE(parseArgs(parser, {"--mode", "a", "--verbose"}));
    ASSERT_TRUE(parseArgs(parser, {"--mode", "b"}));
    EXPECT_EQ(parser.get("mode"), "b");
    EXPECT_FALSE(parser.getFlag("verbose"));
    EXPECT_TRUE(parser.positional().empty());
}

} // namespace
} // namespace zatel
