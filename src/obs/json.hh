/**
 * @file
 * The repo's JSON codec. parseJson() is the one reader: campaign JSONL
 * lines, /predict bodies, result-file rows on resume and merge, and the
 * observability export checks all go through it. jsonEscaped() and
 * formatDouble17() are the writers every JSON producer shares (result
 * rows, campaign lines, serve replies, trace and metrics exports).
 *
 * The reader is strict where a lenient guess would change a job:
 * object members keep document order, duplicate names are rejected,
 * numbers follow RFC 8259 (no barewords, hex, leading zeros or NaN)
 * and keep their literal text, and nesting is capped at kMaxJsonDepth.
 * Whole documents in memory; no streaming.
 */

#ifndef ZATEL_OBS_JSON_HH
#define ZATEL_OBS_JSON_HH

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace zatel::obs
{

/** Raised by parseJson() on malformed input (message has offset). */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    /** A number's literal text: integers wider than a double's
     *  mantissa reach applyJobField() exactly. */
    std::string numberText;
    std::string stringValue;
    std::vector<JsonValue> arrayValue;
    /** Members in document order; names are unique. */
    std::vector<std::pair<std::string, JsonValue>> objectValue;

    bool
    isNull() const
    {
        return type == Type::Null;
    }
    bool
    isBool() const
    {
        return type == Type::Bool;
    }
    bool
    isNumber() const
    {
        return type == Type::Number;
    }
    bool
    isString() const
    {
        return type == Type::String;
    }
    bool
    isArray() const
    {
        return type == Type::Array;
    }
    bool
    isObject() const
    {
        return type == Type::Object;
    }

    /** True when this is an object with member @p key. */
    bool has(const std::string &key) const;

    /** Member lookup; throws JsonError when absent or not an object. */
    const JsonValue &at(const std::string &key) const;
};

/** Deepest array/object nesting parseJson() accepts. */
constexpr size_t kMaxJsonDepth = 64;

/** Parse a complete JSON document; throws JsonError on any syntax
 *  error, duplicate member name, nesting deeper than kMaxJsonDepth or
 *  trailing garbage. */
JsonValue parseJson(const std::string &text);

/** Escape @p text for a JSON string literal (quotes not included):
 *  \" \\ \n \t \r, other bytes below 0x20 as \u00XX, the rest as is.
 *  parseJson() reads every byte string back unchanged. */
std::string jsonEscaped(const std::string &text);

/** %.17g: enough digits that parsing reproduces the exact double. */
std::string formatDouble17(double value);

} // namespace zatel::obs

#endif // ZATEL_OBS_JSON_HH
