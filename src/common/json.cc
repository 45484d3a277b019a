#include "common/json.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace mopt {

namespace {

/** Nesting beyond this is rejected: the reader recurses per level,
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

/** std::isspace in the C locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
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

/** Four hex digits of a \u escape at @p p. */
bool
hex4(const char *&p, const char *end, unsigned &v)
{
    if (end - p < 4)
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
        const char hc = *p++;
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

/**
 * A string's body from @p p (past its opening quote) to past its
 * closing quote, appending the unescaped value to @p out when it is
 * non-null and setting @p escaped at the first escape. False on a bad
 * escape or a missing closing quote. A \u high surrogate must be
 * followed by an escaped low one, and a lone half is refused.
 */
bool
scanString(const char *&p, const char *end, std::string *out,
           bool &escaped)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    constexpr std::uint64_t kQuotes = kOnes * '"';
    constexpr std::uint64_t kBackslashes = kOnes * '\\';
    for (;;) {
        // The run up to the next quote or escape goes in one piece,
        // skipped eight bytes at a time while no byte of the eight is
        // either (the zero-byte test on the word xor each).
        const char *const run = p;
        for (std::uint64_t w; end - p >= 8; p += 8) {
            std::memcpy(&w, p, 8);
            const std::uint64_t q = w ^ kQuotes, b = w ^ kBackslashes;
            if (((q - kOnes) & ~q & kHighs) | ((b - kOnes) & ~b & kHighs))
                break;
        }
        while (p != end && *p != '"' && *p != '\\')
            ++p;
        if (out)
            out->append(run, p);
        if (p == end)
            return false;
        if (*p++ == '"')
            return true;
        escaped = true;
        if (p == end)
            return false;
        char c;
        switch (*p++) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
            unsigned cp = 0;
            if (!hex4(p, end, cp) || (cp >= 0xdc00 && cp <= 0xdfff))
                return false;
            if (cp >= 0xd800 && cp <= 0xdbff) {
                unsigned lo = 0;
                if (end - p < 2 || p[0] != '\\' || p[1] != 'u')
                    return false;
                p += 2;
                if (!hex4(p, end, lo) || lo < 0xdc00 || lo > 0xdfff)
                    return false;
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            }
            if (out)
                appendUtf8(*out, cp);
            continue;
        }
        default: return false;
        }
        if (out)
            *out += c;
    }
}

/** Whether strtod reads [first, last) without ERANGE. */
bool
strtodInRange(const char *first, const char *last)
{
    const std::string text(first, last);
    errno = 0;
    std::strtod(text.c_str(), nullptr);
    return errno != ERANGE;
}

/** The number spelled by all of [first, last), by strtod's grammar
 *  and range (see json.hh). */
bool
readNumber(const char *first, const char *last, double &v)
{
    // strtod takes a leading '+', from_chars does not.
    if (*first == '+' && ++first != last && *first == '-')
        return false;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last || !std::isfinite(v))
        return false;
    // At the bottom of the range the two disagree: strtod flags what
    // rounds to a subnormal, or up to the smallest normal.
    return v == 0 || std::fabs(v) > std::numeric_limits<double>::min() ||
           strtodInRange(first, last);
}

/** Exact whole number with |v| <= 1e15 (the conversion truncates,
 *  so it reads v back exactly only when v is whole). */
bool
wholeNumber(double v, std::int64_t &out)
{
    if (!(std::abs(v) <= 1e15))
        return false;
    const auto whole = static_cast<std::int64_t>(v);
    if (static_cast<double>(whole) != v)
        return false;
    out = whole;
    return true;
}

/** JsonName's tag of @p name. */
std::uint64_t
nameTag(std::string_view name)
{
    std::uint64_t tag = name.size() < 255 ? name.size() : 255;
    for (std::size_t i = 0; i < name.size() && i < 7; ++i)
        tag |= std::uint64_t{static_cast<unsigned char>(name[i])}
               << (8 * i + 8);
    return tag;
}

/** The validating pass of JsonReader::read. */
class Scanner
{
  public:
    Scanner(std::string_view text, std::vector<JsonToken> &out,
            std::vector<JsonName> &names)
        : s_(text), out_(out), names_(names)
    {}

    bool
    scan()
    {
        skipWs();
        if (!value(0))
            return false;
        skipWs();
        return pos_ == s_.size(); // Trailing garbage is corruption.
    }

  private:
    using Type = JsonToken::Type;

    void
    skipWs()
    {
        while (pos_ < s_.size() && isSpace(s_[pos_]))
            ++pos_;
    }

    /** A token of @p type over [pos_, @p end); moves past it. */
    void
    push(Type type, std::size_t end, double num = 0)
    {
        JsonToken t;
        t.type = type;
        t.pos = static_cast<std::uint32_t>(pos_);
        t.end = static_cast<std::uint32_t>(end);
        t.num = num;
        out_.push_back(t);
        pos_ = end;
    }

    bool
    literal(std::string_view lit, Type type)
    {
        if (s_.substr(pos_, lit.size()) != lit)
            return false;
        push(type, pos_ + lit.size());
        return true;
    }

    bool
    value(int depth)
    {
        if (pos_ >= s_.size() || depth > kMaxDepth)
            return false;
        switch (s_[pos_]) {
        case '{': return container(Type::Object, '}', depth);
        case '[': return container(Type::Array, ']', depth);
        case '"': return string();
        case 't': return literal("true", Type::True);
        case 'f': return literal("false", Type::False);
        case 'n': return literal("null", Type::Null);
        default: return number();
        }
    }

    bool
    string()
    {
        const char *p = s_.data() + pos_ + 1;
        bool escaped = false;
        if (!scanString(p, s_.data() + s_.size(), nullptr, escaped))
            return false;
        push(Type::String, static_cast<std::size_t>(p - s_.data()));
        out_.back().escaped = escaped;
        return true;
    }

    bool
    number()
    {
        // A short integer is read as it is scanned, exactly; anything
        // else goes to readNumber.
        std::size_t end = pos_ + (s_[pos_] == '-');
        const std::size_t digits = end;
        std::int64_t whole = 0;
        while (end < s_.size() && s_[end] >= '0' && s_[end] <= '9' &&
               end - digits < 16)
            whole = whole * 10 + (s_[end++] - '0');
        if (end != digits && end - digits < 16 &&
            (end == s_.size() || !isNumberChar(s_[end]))) {
            const auto v = static_cast<double>(whole);
            push(Type::Number, end, digits == pos_ ? v : -v);
            return true;
        }
        while (end < s_.size() && isNumberChar(s_[end]))
            ++end;
        double v = 0;
        if (end == pos_ ||
            !readNumber(s_.data() + pos_, s_.data() + end, v))
            return false;
        push(Type::Number, end, v);
        return true;
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

    bool
    container(Type type, char close, int depth)
    {
        const std::size_t at = out_.size();
        push(type, pos_ + 1);
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == close) {
            ++pos_;
        } else {
            for (bool done = false; !done;) {
                skipWs();
                if (type == Type::Object) {
                    if (pos_ >= s_.size() || s_[pos_] != '"' || !string())
                        return false;
                    skipWs();
                    if (pos_ >= s_.size() || s_[pos_] != ':')
                        return false;
                    ++pos_;
                    skipWs();
                }
                if (!value(depth + 1) || !nextMember(close, done))
                    return false;
            }
        }
        JsonToken &t = out_[at];
        t.end = static_cast<std::uint32_t>(pos_);
        t.inner = static_cast<std::uint32_t>(out_.size() - at - 1);
        if (type == Type::Object) {
            t.names.first = static_cast<std::uint32_t>(names_.size());
            for (std::size_t k = at + 1; k < out_.size();
                 k += 2 + out_[k + 1].inner) {
                const JsonToken &key = out_[k];
                names_.push_back(
                    {key.escaped ? JsonName::kEscaped
                                 : nameTag(s_.substr(
                                       key.pos + 1, key.end - key.pos - 2)),
                     static_cast<std::uint32_t>(k - at)});
            }
            t.names.count = static_cast<std::uint32_t>(names_.size() -
                                                       t.names.first);
        }
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::vector<JsonToken> &out_;
    std::vector<JsonName> &names_;
};

/** The value of string token @p t of @p text, unescaped into
 *  @p out. */
void
unescape(const JsonToken &t, const char *text, std::string &out)
{
    out.clear();
    // Size a long value (a plan's text) once; escapes only shrink it.
    // A short one may still fit in the string's own buffer.
    if (t.end - t.pos > 64)
        out.reserve(t.end - t.pos - 2);
    const char *p = text + t.pos + 1;
    bool escaped = false;
    scanString(p, text + t.end, &out, escaped);
}

/** The tree of the value at token @p t of @p doc into @p out;
 *  returns the token after that value. */
const JsonToken *
buildTree(const JsonReader &doc, const JsonToken *t, JsonValue &out)
{
    const JsonToken *const last = t + 1 + t->inner;
    switch (t->type) {
    case JsonToken::Type::Null: out.type = JsonValue::Type::Null; break;
    case JsonToken::Type::False:
    case JsonToken::Type::True:
        out.type = JsonValue::Type::Bool;
        out.b = t->type == JsonToken::Type::True;
        break;
    case JsonToken::Type::Number:
        out.type = JsonValue::Type::Number;
        out.num = t->num;
        break;
    case JsonToken::Type::String:
        out.type = JsonValue::Type::String;
        JsonView(&doc, t).getString(out.str);
        break;
    case JsonToken::Type::Array:
        out.type = JsonValue::Type::Array;
        for (const JsonToken *e = t + 1; e != last;)
            e = buildTree(doc, e, out.arr.emplace_back());
        break;
    case JsonToken::Type::Object:
        out.type = JsonValue::Type::Object;
        for (const JsonToken *k = t + 1; k != last;) {
            auto &member = out.obj.emplace_back();
            JsonView(&doc, k).getString(member.first);
            k = buildTree(doc, k + 1, member.second);
        }
        break;
    }
    return last;
}

} // namespace

bool
JsonReader::read(std::string_view text)
{
    text_ = text;
    tokens_.clear();
    names_.clear();
    ok_ = false;
    // Token offsets are 32-bit; no line of ours comes near that.
    if (text.size() >= std::numeric_limits<std::uint32_t>::max())
        return false;
    // A journal record holds about one token per four bytes and one
    // member per twenty; a plan's text, far fewer.
    tokens_.reserve(text.size() / 4 + 8);
    names_.reserve(text.size() / 16 + 4);
    ok_ = Scanner(text, tokens_, names_).scan();
    return ok_;
}

bool
JsonView::getInt(std::int64_t &out) const
{
    return isNumber() && wholeNumber(tok_->num, out);
}

bool
JsonView::getString(std::string &out) const
{
    if (!isString())
        return false;
    if (tok_->escaped)
        unescape(*tok_, doc_->text_.data(), out);
    else
        out.assign(doc_->text_.data() + tok_->pos + 1,
                   tok_->end - tok_->pos - 2);
    return true;
}

std::string_view
JsonView::strView(std::string &scratch) const
{
    if (!isString())
        return {};
    if (!tok_->escaped)
        return doc_->text_.substr(tok_->pos + 1, tok_->end - tok_->pos - 2);
    unescape(*tok_, doc_->text_.data(), scratch);
    return scratch;
}

JsonView
JsonView::find(std::string_view key) const
{
    if (!isObject())
        return {};
    const std::uint64_t tag = nameTag(key);
    const JsonName *n = doc_->names_.data() + tok_->names.first;
    for (const JsonName *const last = n + tok_->names.count; n != last;
         ++n) {
        if (n->tag != tag && n->tag != JsonName::kEscaped)
            continue;
        // Equal tags settle names of up to seven bytes.
        const JsonView name(doc_, tok_ + n->key);
        std::string scratch;
        if ((n->tag == tag && key.size() <= 7) ||
            name.strView(scratch) == key)
            return {doc_, tok_ + n->key + 1};
    }
    return {};
}

std::size_t
JsonView::size() const
{
    std::size_t n = 0;
    for (Iterator it = begin(), e = end(); it != e; ++it)
        ++n;
    return n;
}

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
    JsonReader reader;
    if (!reader.read(text))
        return false;
    JsonValue v;
    buildTree(reader, reader.tokens_.data(), v);
    out = std::move(v);
    return true;
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

} // namespace mopt
