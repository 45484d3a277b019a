/**
 * @file
 * Logging and error-reporting utilities for the MOpt library.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, invalid arguments) and throws FatalError; panic() is for
 * internal invariant violations and aborts.
 */

#ifndef MOPT_COMMON_LOGGING_HH
#define MOPT_COMMON_LOGGING_HH

#include <cstdarg>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mopt {

/** Severity levels for runtime log messages. */
enum class LogLevel {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/**
 * Emit a log line to stderr if @p level passes the threshold, read
 * once from the MOPT_LOG environment variable
 * (debug|info|warn|error|silent; defaults to warn).
 */
void logMessage(LogLevel level, const std::string &msg);

/** Exception type thrown by fatal() so callers/tests can intercept it. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what) : std::runtime_error(what) {}
};

/**
 * Report an unrecoverable *user* error (bad configuration, invalid
 * argument) by throwing FatalError. Library code never calls exit(),
 * and fatal() writes nothing: a caller that refuses the input quietly
 * (a decoder, the server) stays quiet, and the CLI prints the message
 * once at top level.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation (a bug in MOpt itself).
 * Aborts the process after printing @p msg.
 */
[[noreturn]] void panic(const std::string &msg);

namespace detail {

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Stream-style convenience wrappers. */
template <typename... Args>
void
logDebug(Args &&...args)
{
    logMessage(LogLevel::Debug, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
logInfo(Args &&...args)
{
    logMessage(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
logWarn(Args &&...args)
{
    logMessage(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}

/*
 * Checks are free when they pass: the message is a view, so a literal
 * costs nothing until the check fails. A message composed from values
 * (names, extents) must be built on the failure path only:
 *
 *     if (!ok)
 *         fatal("layer " + name + ": ...");
 *
 * never checkUser(ok, "layer " + name + ...), which builds the string
 * on every call.
 */

/**
 * Check a user-facing precondition; throws FatalError with @p msg when
 * @p cond is false.
 */
inline void
checkUser(bool cond, std::string_view msg)
{
    if (!cond)
        fatal(std::string(msg));
}

/** Check an internal invariant; aborts with @p msg when @p cond is false. */
inline void
checkInvariant(bool cond, std::string_view msg)
{
    if (!cond)
        panic(std::string(msg));
}

} // namespace mopt

#endif // MOPT_COMMON_LOGGING_HH
