/**
 * @file
 * The JSON codec (src/obs/json.*): the reader's strict rules (document
 * order, unique member names, RFC 8259 numbers with their literal text,
 * bounded nesting) and the escaper/parser round trip over every byte.
 */

#include "obs/json.hh"

#include <string>

#include <gtest/gtest.h>

namespace
{

using namespace zatel;

TEST(JsonCodec, ObjectMembersKeepDocumentOrder)
{
    const obs::JsonValue doc =
        obs::parseJson(R"({"res":32,"height":16,"a":true,"z":null})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.objectValue.size(), 4u);
    EXPECT_EQ(doc.objectValue[0].first, "res");
    EXPECT_EQ(doc.objectValue[1].first, "height");
    EXPECT_EQ(doc.objectValue[2].first, "a");
    EXPECT_EQ(doc.objectValue[3].first, "z");
    EXPECT_EQ(doc.at("height").numberValue, 16.0);
    EXPECT_TRUE(doc.at("z").isNull());
    EXPECT_FALSE(doc.has("missing"));
    EXPECT_THROW(doc.at("missing"), obs::JsonError);
}

TEST(JsonCodec, DuplicateMemberNamesAreRejected)
{
    EXPECT_THROW(obs::parseJson(R"({"res":16,"res":32})"), obs::JsonError);
    EXPECT_THROW(obs::parseJson(R"([{"a":{"b":1,"b":1}}])"),
                 obs::JsonError);
    // The same name in sibling objects is fine.
    EXPECT_NO_THROW(obs::parseJson(R"([{"a":1},{"a":2}])"));
}

TEST(JsonCodec, NumbersKeepTheirLiteralText)
{
    // 2^53 + 1 has no double; the literal reaches its reader intact.
    const obs::JsonValue doc = obs::parseJson(
        R"({"seed":9007199254740993,"f":-0.25e+2,"z":0,"n":-0})");
    EXPECT_EQ(doc.at("seed").numberText, "9007199254740993");
    EXPECT_EQ(doc.at("seed").numberValue, 9007199254740992.0);
    EXPECT_EQ(doc.at("f").numberText, "-0.25e+2");
    EXPECT_EQ(doc.at("f").numberValue, -25.0);
    EXPECT_EQ(doc.at("z").numberText, "0");
    EXPECT_EQ(doc.at("n").numberText, "-0");
}

TEST(JsonCodec, OnlyRfc8259NumbersAreAccepted)
{
    const char *bad[] = {
        "010",      "-01",  "00",    "0x10", "NaN",   "nan", "-nan",
        "Infinity", "+1",   ".5",    "1.",   "1e",    "--1", "yes",
        "coarse",   "tru",  "nul",
    };
    for (const char *number : bad) {
        EXPECT_THROW(obs::parseJson(number), obs::JsonError) << number;
        EXPECT_THROW(obs::parseJson(std::string(R"({"v":)") + number + "}"),
                     obs::JsonError)
            << number;
    }
    for (const char *number : {"0", "-0", "10", "0.5", "1e3", "1E-3",
                               "-2.5e+1"}) {
        EXPECT_NO_THROW(obs::parseJson(number)) << number;
    }
}

TEST(JsonCodec, NestingDeeperThanTheLimitIsAnError)
{
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(obs::parseJson(nested(obs::kMaxJsonDepth)));
    EXPECT_THROW(obs::parseJson(nested(obs::kMaxJsonDepth + 1)),
                 obs::JsonError);
    // Far past the limit: an error, not a stack overflow.
    EXPECT_THROW(obs::parseJson(std::string(50000, '[')), obs::JsonError);
    EXPECT_THROW(obs::parseJson(std::string(300000, '[')), obs::JsonError);
    std::string objects;
    for (size_t i = 0; i < 100000; ++i)
        objects += "{\"a\":";
    EXPECT_THROW(obs::parseJson(objects), obs::JsonError);
}

TEST(JsonCodec, EscaperRoundTripsEveryByte)
{
    std::string all;
    for (int byte = 0; byte < 256; ++byte) {
        const std::string one(1, static_cast<char>(byte));
        all += one;
        const obs::JsonValue back =
            obs::parseJson("\"" + obs::jsonEscaped(one) + "\"");
        EXPECT_EQ(back.stringValue, one) << "byte " << byte;
    }
    const obs::JsonValue back =
        obs::parseJson("\"" + obs::jsonEscaped(all) + "\"");
    EXPECT_EQ(back.stringValue, all);
}

TEST(JsonCodec, EscaperWritesTheShortFormsAndLowercaseHex)
{
    EXPECT_EQ(obs::jsonEscaped("a\"b\\c\nd\te\rf"),
              "a\\\"b\\\\c\\nd\\te\\rf");
    EXPECT_EQ(obs::jsonEscaped(std::string("\x01\x1f\x7f", 3)),
              "\\u0001\\u001f\x7f");
    EXPECT_EQ(obs::jsonEscaped("plain/ascii"), "plain/ascii");
}

TEST(JsonCodec, FormatDouble17RoundTripsBitExact)
{
    for (double value : {0.1, 1.0 / 3.0, -2.5e-300, 1e300, 0.0}) {
        const std::string text = obs::formatDouble17(value);
        EXPECT_EQ(obs::parseJson(text).numberValue, value) << text;
    }
    EXPECT_EQ(obs::formatDouble17(0.1), "0.10000000000000001");
}

} // namespace
