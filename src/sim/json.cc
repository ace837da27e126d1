#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "log.hh"

namespace cxlfork::sim::json {

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
Value::numberOr(std::string_view key, double dflt) const
{
    const Value *v = find(key);
    return v && v->kind == Kind::Number ? v->number : dflt;
}

std::string
Value::stringOr(std::string_view key, std::string dflt) const
{
    const Value *v = find(key);
    return v && v->kind == Kind::String ? v->str : dflt;
}

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("JSON parse error at offset %zu: %s", pos_, what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Value
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return objectValue();
          case '[':
            return arrayValue();
          case '"':
            return stringValue();
          case 't':
          case 'f':
            return boolValue();
          case 'n':
            return nullValue();
          default:
            return numberValue();
        }
    }

    /**
     * Open one container level. The parser recurses once per level, so
     * an unbounded nesting depth would overflow the stack before the
     * input ran out; past kMaxDepth the document is rejected instead.
     */
    void
    enter()
    {
        if (++depth_ > kMaxDepth)
            fail("nesting deeper than 256 levels");
    }

    Value
    objectValue()
    {
        expect('{');
        enter();
        Value v;
        v.kind = Value::Kind::Object;
        skipWs();
        if (consume('}')) {
            --depth_;
            return v;
        }
        while (true) {
            skipWs();
            Value key = stringValue();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key.str), value());
            skipWs();
            if (consume('}')) {
                --depth_;
                return v;
            }
            expect(',');
        }
    }

    Value
    arrayValue()
    {
        expect('[');
        enter();
        Value v;
        v.kind = Value::Kind::Array;
        skipWs();
        if (consume(']')) {
            --depth_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skipWs();
            if (consume(']')) {
                --depth_;
                return v;
            }
            expect(',');
        }
    }

    Value
    stringValue()
    {
        expect('"');
        Value v;
        v.kind = Value::Kind::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': v.str.push_back('"'); break;
              case '\\': v.str.push_back('\\'); break;
              case '/': v.str.push_back('/'); break;
              case 'b': v.str.push_back('\b'); break;
              case 'f': v.str.push_back('\f'); break;
              case 'n': v.str.push_back('\n'); break;
              case 'r': v.str.push_back('\r'); break;
              case 't': v.str.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The exporters only escape control characters, which
                // fit one byte; reject anything wider.
                if (code > 0x7f)
                    fail("non-ASCII \\u escape unsupported");
                v.str.push_back(char(code));
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Value
    boolValue()
    {
        Value v;
        v.kind = Value::Kind::Bool;
        if (text_.substr(pos_, 4) == "true") {
            pos_ += 4;
            v.boolean = true;
        } else if (text_.substr(pos_, 5) == "false") {
            pos_ += 5;
            v.boolean = false;
        } else {
            fail("bad literal");
        }
        return v;
    }

    Value
    nullValue()
    {
        if (text_.substr(pos_, 4) != "null")
            fail("bad literal");
        pos_ += 4;
        return Value{};
    }

    Value
    numberValue()
    {
        const size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(uint8_t(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        Value v;
        v.kind = Value::Kind::Number;
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        v.number = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            fail("malformed number");
        return v;
    }

    static constexpr uint32_t kMaxDepth = 256;

    std::string_view text_;
    size_t pos_ = 0;
    uint32_t depth_ = 0; ///< Open objects and arrays around pos_.
};

} // namespace

Value
parse(std::string_view text)
{
    return Parser(text).document();
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (uint8_t(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        fatal("cannot serialize non-finite number to JSON");
    // Integral values stay integral for readability and stable diffs.
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        return format("%.0f", v);
    return format("%.17g", v);
}

} // namespace cxlfork::sim::json
