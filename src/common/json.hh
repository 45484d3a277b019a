/**
 * @file
 * Minimal JSON value, recursive-descent parser, and emission helpers,
 * shared by the solution-cache journal and the RPC wire protocol
 * (which deliberately speaks the journal's dialect). This is not a
 * general-purpose JSON library: numbers are finite doubles, \u escapes
 * decode to UTF-8 (surrogates must pair), and the parser rejects
 * trailing garbage — exactly the properties the journal format was
 * specified with, now the single source of truth for every line of
 * JSON the library reads.
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
 */

#ifndef MOPT_COMMON_JSON_HH
#define MOPT_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mopt {

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

/**
 * Parse @p text into @p out. Returns false on any syntax error,
 * non-finite number, or trailing non-whitespace (a torn journal line
 * must never half-parse).
 */
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

/**
 * Integer member of @p obj that is an exact whole number with
 * |value| <= 1e15 (the range doubles represent exactly).
 */
bool jsonGetInt(const JsonValue &obj, std::string_view key,
                std::int64_t &out);

/** String member of @p obj. */
bool jsonGetString(const JsonValue &obj, std::string_view key,
                   std::string &out);

} // namespace mopt

#endif // MOPT_COMMON_JSON_HH
