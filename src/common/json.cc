#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mopt {

namespace {

/** Nesting beyond this is rejected: the parser recurses per level,
 *  and since the RPC server feeds it untrusted network input, a
 *  '[[[[...' line must draw a parse error, not overflow the handler
 *  thread's stack. Every legitimate document (journal records, RPC
 *  frames) nests fewer than 8 deep. */
constexpr int kMaxDepth = 64;

bool
isNumberChar(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
}

/** UTF-8 encoding of code point @p cp (at most U+10FFFF). */
void
appendUtf8(std::string &out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : s_(text) {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        return pos_ == s_.size(); // Trailing garbage is corruption.
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(std::string_view lit)
    {
        if (s_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (pos_ >= s_.size() || depth > kMaxDepth)
            return false;
        switch (s_[pos_]) {
        case '{': return parseObject(out, depth);
        case '[': return parseArray(out, depth);
        case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.str);
        case 't':
            out.type = JsonValue::Type::Bool;
            out.b = true;
            return literal("true");
        case 'f':
            out.type = JsonValue::Type::Bool;
            out.b = false;
            return literal("false");
        case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    /** Four hex digits of a \u escape. */
    bool
    parseHex4(unsigned &v)
    {
        if (s_.size() - pos_ < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i) {
            const char hc = s_[pos_++];
            v <<= 4;
            if (hc >= '0' && hc <= '9')
                v |= static_cast<unsigned>(hc - '0');
            else if (hc >= 'a' && hc <= 'f')
                v |= static_cast<unsigned>(hc - 'a' + 10);
            else if (hc >= 'A' && hc <= 'F')
                v |= static_cast<unsigned>(hc - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    /** The code point after "\u", as UTF-8: a high surrogate must be
     *  followed by an escaped low one, and a lone half is refused. */
    bool
    parseUnicodeEscape(std::string &out)
    {
        unsigned cp = 0;
        if (!parseHex4(cp) || (cp >= 0xdc00 && cp <= 0xdfff))
            return false;
        if (cp >= 0xd800 && cp <= 0xdbff) {
            unsigned lo = 0;
            if (!literal("\\u") || !parseHex4(lo) || lo < 0xdc00 ||
                lo > 0xdfff)
                return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (s_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        for (;;) {
            // Copy the run up to the next quote or escape in one go.
            const std::size_t run = pos_;
            while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\')
                ++pos_;
            out.append(s_.data() + run, pos_ - run);
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_++] == '"')
                return true;
            if (pos_ >= s_.size())
                return false;
            char c;
            switch (s_[pos_++]) {
            case '"': c = '"'; break;
            case '\\': c = '\\'; break;
            case '/': c = '/'; break;
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            case 'r': c = '\r'; break;
            case 'b': c = '\b'; break;
            case 'f': c = '\f'; break;
            case 'u':
                if (!parseUnicodeEscape(out))
                    return false;
                continue;
            default: return false;
            }
            out += c;
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() && isNumberChar(s_[pos_]))
            ++pos_;
        if (pos_ == start)
            return false;
        const char *first = s_.data() + start;
        const char *const last = s_.data() + pos_;
        // strtod takes a leading '+', from_chars does not.
        if (*first == '+' && ++first != last && *first == '-')
            return false;
        double v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || ptr != last || !std::isfinite(v))
            return false;
        // At the bottom of the range the two disagree: strtod flags
        // what rounds to a subnormal, or up to the smallest normal.
        if (v != 0 && std::fabs(v) <= std::numeric_limits<double>::min() &&
            !strtodInRange(first, last))
            return false;
        out.num = v;
        out.type = JsonValue::Type::Number;
        return true;
    }

    /** Whether strtod reads [first, last) without ERANGE. */
    static bool
    strtodInRange(const char *first, const char *last)
    {
        const std::string text(first, last);
        errno = 0;
        std::strtod(text.c_str(), nullptr);
        return errno != ERANGE;
    }

    /** Past the ',' or the closing @p close after a member; false
     *  on anything else. Sets @p done at the close. */
    bool
    nextMember(char close, bool &done)
    {
        skipWs();
        if (pos_ >= s_.size() || (s_[pos_] != ',' && s_[pos_] != close))
            return false;
        done = s_[pos_++] == close;
        return true;
    }

    /** Move the members parsed since @p mark off @p stack into @p dst
     *  (sized once, where push_back would regrow it per member). */
    template <typename T>
    static void
    popInto(std::vector<T> &stack, std::size_t mark, std::vector<T> &dst)
    {
        dst.assign(std::make_move_iterator(stack.begin() +
                                           static_cast<std::ptrdiff_t>(mark)),
                   std::make_move_iterator(stack.end()));
        stack.resize(mark);
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        const std::size_t mark = elems_.size();
        for (bool done = false; !done;) {
            // Parsed aside: a nested container grows elems_.
            JsonValue v;
            skipWs();
            if (!parseValue(v, depth + 1))
                return false;
            elems_.push_back(std::move(v));
            if (!nextMember(']', done))
                return false;
        }
        popInto(elems_, mark, out.arr);
        return true;
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        const std::size_t mark = members_.size();
        for (bool done = false; !done;) {
            skipWs();
            std::string key;
            if (pos_ >= s_.size() || !parseString(key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            JsonValue v;
            if (!parseValue(v, depth + 1))
                return false;
            members_.emplace_back(std::move(key), std::move(v));
            if (!nextMember('}', done))
                return false;
        }
        popInto(members_, mark, out.obj);
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    /** Members of the containers still open, innermost last. */
    std::vector<JsonValue> elems_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

bool
jsonParse(std::string_view text, JsonValue &out)
{
    return JsonParser(text).parse(out);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    jsonAppendEscaped(out, s);
    return out;
}

void
jsonAppendEscaped(std::string &out, std::string_view s)
{
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char *esc;
        switch (c) {
        case '"': esc = "\\\""; break;
        case '\\': esc = "\\\\"; break;
        case '\n': esc = "\\n"; break;
        case '\t': esc = "\\t"; break;
        case '\r': esc = "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
            esc = nullptr;
        }
        // Copy the unescaped run before c in one go.
        out.append(s.data() + run, i - run);
        run = i + 1;
        if (esc) {
            out += esc;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        }
    }
    out.append(s.data() + run, s.size() - run);
}

std::string
jsonHex16(std::uint64_t v)
{
    std::string out;
    jsonAppendHex16(out, v);
    return out;
}

void
jsonAppendHex16(std::string &out, std::uint64_t v)
{
    static const char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = kDigits[v & 0xf];
    out.append(buf, sizeof(buf));
}

void
jsonAppendDouble(std::string &out, double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    out.append(buf, static_cast<std::size_t>(n));
}

bool
jsonParseHex16(std::string_view s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

bool
jsonGetInt(const JsonValue &obj, std::string_view key, std::int64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->type != JsonValue::Type::Number)
        return false;
    if (v->num != std::floor(v->num) || std::abs(v->num) > 1e15)
        return false;
    out = static_cast<std::int64_t>(v->num);
    return true;
}

bool
jsonGetString(const JsonValue &obj, std::string_view key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->type != JsonValue::Type::String)
        return false;
    out = v->str;
    return true;
}

} // namespace mopt
