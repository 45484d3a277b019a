/**
 * @file
 * Small string helpers shared by the table printer, code emitter, and
 * CLI parsing.
 */

#ifndef MOPT_COMMON_STRING_UTIL_HH
#define MOPT_COMMON_STRING_UTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace mopt {

/** Split @p s on @p sep, keeping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Join @p parts with @p sep between elements. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Fixed-precision formatting of a double (printf "%.*f"). */
std::string formatDouble(double v, int precision);

/** Append the decimal digits of @p v to @p out (std::to_chars). */
void appendInt(std::string &out, long long v);

/** Append @p prefix, then the decimal digits of @p v. */
void appendInt(std::string &out, std::string_view prefix, long long v);

/**
 * Human-readable engineering formatting: 1536 -> "1.5K", 2.5e9 -> "2.5G".
 */
std::string formatEng(double v);

/** Lower-case an ASCII string. */
std::string toLower(std::string s);

} // namespace mopt

#endif // MOPT_COMMON_STRING_UTIL_HH
