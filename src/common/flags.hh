/**
 * @file
 * Minimal flag/environment parsing for benchmark harnesses and
 * examples: "--name=value" arguments plus MOPT_* environment fallback.
 */

#ifndef MOPT_COMMON_FLAGS_HH
#define MOPT_COMMON_FLAGS_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

namespace mopt {

/**
 * Parsed command line of the form: prog --a=1 --b foo --flag.
 * Both "--name=value" and space-separated "--name value" are
 * accepted; a bare "--flag" (at the end, or followed by another
 * "--" argument) is treated as "--flag=1". Environment variables of
 * the form MOPT_<UPPERCASE_NAME> act as defaults (CLI wins).
 */
class Flags
{
  public:
    /** Parse argv; positional arguments and a flag given twice are
     *  rejected (a duplicate is almost always a shell-history editing
     *  accident, and silently keeping either value hides it). */
    Flags(int argc, char **argv);

    /** Construct empty (environment-only) flags. */
    Flags() = default;

    /** String value with default. */
    std::string getString(const std::string &name,
                          const std::string &def) const;

    /** Integer value with default. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /** Boolean value with default: 1/true/yes/on and 0/false/no/off
     *  (case-insensitive) are accepted; anything else is a fatal
     *  user error (it is usually a stray positional token). */
    bool getBool(const std::string &name, bool def) const;

    /** Whether the flag was given on the CLI or via the environment. */
    bool has(const std::string &name) const;

    /**
     * Reject any CLI-provided flag outside @p known: a typo like
     * --effrot=fast must fail loudly instead of silently running with
     * the default. Only command-line flags are checked — MOPT_*
     * environment defaults are shared across tools with different
     * vocabularies. Call once, after parsing, with the full flag list
     * of the command (sub)mode.
     */
    void rejectUnknown(std::initializer_list<const char *> known) const;

  private:
    /** Raw lookup: CLI first, then MOPT_<NAME> env var. */
    bool lookup(const std::string &name, std::string &out) const;

    std::map<std::string, std::string> values_;
};

/**
 * True when MOPT_BENCH_FULL=1: benches use paper-scale repetition counts
 * and problem sizes instead of the fast defaults.
 */
bool benchFullScale();

} // namespace mopt

#endif // MOPT_COMMON_FLAGS_HH
