#include "obs/json.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace zatel::obs
{

namespace
{

const JsonValue *
findMember(const JsonValue &object, const std::string &key)
{
    if (object.type != JsonValue::Type::Object)
        return nullptr;
    auto it = std::find_if(
        object.objectValue.begin(), object.objectValue.end(),
        [&key](const auto &member) { return member.first == key; });
    return it == object.objectValue.end() ? nullptr : &it->second;
}

} // namespace

bool
JsonValue::has(const std::string &key) const
{
    return findMember(*this, key) != nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (type != Type::Object)
        throw JsonError("at('" + key + "'): value is not an object");
    const JsonValue *member = findMember(*this, key);
    if (member == nullptr)
        throw JsonError("missing object member '" + key + "'");
    return *member;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text)
    {
    }

    JsonValue
    parse()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing garbage after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("JSON parse error at offset " +
                        std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expectLiteral(const char *literal)
    {
        for (const char *p = literal; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal, expected '") + literal +
                     "'");
            ++pos_;
        }
    }

    JsonValue
    parseValue()
    {
        JsonValue value;
        switch (peek()) {
        case '{':
        case '[':
            // One recursion level per container: cap it so a body of
            // nested brackets is a JsonError, not a stack overflow.
            if (++depth_ > kMaxJsonDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth) + " levels");
            value = text_[pos_] == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
        case '"':
            value.type = JsonValue::Type::String;
            value.stringValue = parseString();
            return value;
        case 't':
            expectLiteral("true");
            value.type = JsonValue::Type::Bool;
            value.boolValue = true;
            return value;
        case 'f':
            expectLiteral("false");
            value.type = JsonValue::Type::Bool;
            value.boolValue = false;
            return value;
        case 'n':
            expectLiteral("null");
            value.type = JsonValue::Type::Null;
            return value;
        default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue value;
        value.type = JsonValue::Type::Object;
        expect('{');
        if (consumeIf('}'))
            return value;
        std::set<std::string> names;
        while (true) {
            std::string key = parseString();
            if (!names.insert(key).second)
                fail("duplicate member name '" + key + "'");
            expect(':');
            value.objectValue.emplace_back(std::move(key), parseValue());
            if (consumeIf(','))
                continue;
            expect('}');
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue value;
        value.type = JsonValue::Type::Array;
        expect('[');
        if (consumeIf(']'))
            return value;
        while (true) {
            value.arrayValue.push_back(parseValue());
            if (consumeIf(','))
                continue;
            expect(']');
            return value;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The exports only ever \u-escape control characters;
                // encode the BMP code point as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("unknown escape sequence");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipSpace();
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [this]() {
            size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        const size_t int_start = pos_;
        const size_t int_digits = digits();
        if (int_digits == 0)
            fail("expected a number");
        if (int_digits > 1 && text_[int_start] == '0')
            fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("digits required after decimal point");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("digits required in exponent");
        }
        JsonValue value;
        value.type = JsonValue::Type::Number;
        value.numberText = text_.substr(start, pos_ - start);
        value.numberValue = std::strtod(value.numberText.c_str(), nullptr);
        return value;
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t depth_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    Parser parser(text);
    return parser.parse();
}

std::string
jsonEscaped(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble17(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace zatel::obs
