/**
 * @file
 * The JSON dialect of the journals and the RPC wire protocol (which
 * deliberately speaks the journal's dialect): a validating reader and
 * emission helpers. This is not a general-purpose JSON library:
 * numbers are finite doubles, \u escapes decode to UTF-8 (surrogates
 * must pair), nesting stops at 64 levels, and a line with trailing
 * garbage is refused whole — a torn journal line must never
 * half-parse.
 *
 * The number grammar is strtod's over the characters [-+.0-9eE]:
 *
 *     number = [ "-" | "+" ] ( digits [ "." [ digits ] ] | "." digits )
 *              [ ( "e" | "E" ) [ "-" | "+" ] digits ]
 *
 * so "+1", "1.", ".5" and "01" parse, while "1e", "--1" and "+-1" do
 * not. A value out of double range is refused: one that overflows,
 * or a nonzero one that underflows to zero or to an inexact subnormal
 * (strtod's ERANGE).
 *
 * JsonReader validates a line in one pass into a flat array of
 * tokens over the line's bytes, plus a table of each object's member
 * names; decoders look members up through JsonView and copy out only
 * what they keep. A string is unescaped when a decoder asks for it,
 * and each number is converted once, in the pass. JsonValue, a tree
 * built from the same tokens, is used by no library path; it is kept
 * for the tests' reference decoders (tests/support/tree_decoders.hh).
 */

#ifndef MOPT_COMMON_JSON_HH
#define MOPT_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mopt {

struct JsonValue;
class JsonReader;

/** One value of a line read by JsonReader. */
struct JsonToken
{
    enum class Type : std::uint8_t {
        Null, False, True, Number, String, Array, Object
    };
    Type type = Type::Null;
    bool escaped = false; //!< String: it holds an escape.
    std::uint32_t pos = 0; //!< The value's first byte in the line.
    std::uint32_t end = 0; //!< Past its last byte.
    /** Array/Object: the tokens inside, an object's keys included;
     *  the next sibling is this + 1 + inner. */
    std::uint32_t inner = 0;
    union {
        double num = 0; //!< Number: its value.
        /** Object: its members' run of the reader's name table. */
        struct
        {
            std::uint32_t first, count;
        } names;
    };
};

/** A member name as JsonView::find compares it. */
struct JsonName
{
    /** The name's length and first seven bytes in one word (names of
     *  up to seven bytes are equal when their tags are); kEscaped when
     *  it holds an escape and must be unescaped to compare. */
    std::uint64_t tag = 0;
    std::uint32_t key = 0; //!< Its key token, counted from the object.
    static constexpr std::uint64_t kEscaped = ~std::uint64_t{0};
};

/** A value in a JsonReader's line; null when a lookup found nothing
 *  (every accessor of a null view reads as absent). */
class JsonView
{
  public:
    JsonView() = default;
    JsonView(const JsonReader *doc, const JsonToken *tok)
        : doc_(doc), tok_(tok)
    {}

    explicit operator bool() const { return tok_ != nullptr; }
    bool isObject() const { return is(JsonToken::Type::Object); }
    bool isArray() const { return is(JsonToken::Type::Array); }
    bool isString() const { return is(JsonToken::Type::String); }
    bool isNumber() const { return is(JsonToken::Type::Number); }
    bool isBool() const
    {
        return is(JsonToken::Type::True) || is(JsonToken::Type::False);
    }
    bool isTrue() const { return is(JsonToken::Type::True); }

    /** Number: its value (0 otherwise). */
    double num() const { return isNumber() ? tok_->num : 0.0; }

    /** Number that is an exact whole number with |value| <= 1e15 (the
     *  range doubles represent exactly). */
    bool getInt(std::int64_t &out) const;

    /** String: its value, unescaped into @p out. */
    bool getString(std::string &out) const;

    /** String: its value — the bytes between its quotes when it
     *  holds no escape, else unescaped into @p scratch ("" for a
     *  non-string). */
    std::string_view strView(std::string &scratch) const;

    /** Object: its first member named @p key. */
    JsonView find(std::string_view key) const;

    /** Array: its element count. */
    std::size_t size() const;

    /** Array: its elements, in order. */
    class Iterator
    {
      public:
        Iterator(const JsonReader *doc, const JsonToken *tok)
            : doc_(doc), tok_(tok)
        {}
        JsonView operator*() const { return {doc_, tok_}; }
        Iterator &operator++()
        {
            tok_ += 1 + tok_->inner;
            return *this;
        }
        bool operator!=(const Iterator &o) const { return tok_ != o.tok_; }

      private:
        const JsonReader *doc_;
        const JsonToken *tok_;
    };
    Iterator begin() const { return {doc_, isArray() ? tok_ + 1 : tok_}; }
    Iterator end() const
    {
        return {doc_, isArray() ? tok_ + 1 + tok_->inner : tok_};
    }

  private:
    bool is(JsonToken::Type t) const { return tok_ && tok_->type == t; }

    const JsonReader *doc_ = nullptr;
    const JsonToken *tok_ = nullptr;
};

/** One validated line, read into tokens (reusable across lines). */
class JsonReader
{
  public:
    JsonReader() = default;
    JsonReader(const JsonReader &) = delete; // Views point into it.
    JsonReader &operator=(const JsonReader &) = delete;

    /**
     * Read @p text: one value, with whitespace around it. False on any
     * syntax error, non-finite number, nesting past 64 levels, or
     * trailing non-whitespace. The tokens point into @p text, which
     * must outlive the views.
     */
    bool read(std::string_view text);

    /** The line's value (null unless the last read succeeded). */
    JsonView root() const
    {
        return ok_ ? JsonView(this, tokens_.data()) : JsonView();
    }

  private:
    friend class JsonView;
    friend bool jsonParse(std::string_view text, JsonValue &out);

    std::string_view text_;
    std::vector<JsonToken> tokens_;
    /** Each object's member names, one run per object, so a lookup
     *  compares words in a row instead of walking the tokens. */
    std::vector<JsonName> names_;
    bool ok_ = false;
};

/** One parsed JSON value (object members keep their input order). */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** First member named @p key, or nullptr (objects only). */
    const JsonValue *find(std::string_view key) const;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }
};

/** Read @p text as JsonReader does and build its tree into @p out;
 *  false (leaving @p out untouched) where the reader refuses. */
bool jsonParse(std::string_view text, JsonValue &out);

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Append jsonEscape(@p s) to @p out. */
void jsonAppendEscaped(std::string &out, std::string_view s);

/** 16-digit lowercase hex encoding of @p v (fingerprint fields). */
std::string jsonHex16(std::uint64_t v);

/** Append jsonHex16(@p v) to @p out. */
void jsonAppendHex16(std::string &out, std::uint64_t v);

/** Append @p v as printf "%.17g", which reads back bit-exactly. */
void jsonAppendDouble(std::string &out, double v);

/** Decode jsonHex16 output; false unless exactly 16 hex digits. */
bool jsonParseHex16(std::string_view s, std::uint64_t &out);

} // namespace mopt

#endif // MOPT_COMMON_JSON_HH
