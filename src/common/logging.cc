#include "common/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace mopt {

namespace {

std::mutex log_mutex;

LogLevel
parseEnvLevel()
{
    const char *env = std::getenv("MOPT_LOG");
    if (!env)
        return LogLevel::Warn;
    std::string s(env);
    if (s == "debug")
        return LogLevel::Debug;
    if (s == "info")
        return LogLevel::Info;
    if (s == "warn")
        return LogLevel::Warn;
    if (s == "error")
        return LogLevel::Error;
    if (s == "silent")
        return LogLevel::Silent;
    return LogLevel::Warn;
}

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return "DEBUG";
      case LogLevel::Info:
        return "INFO";
      case LogLevel::Warn:
        return "WARN";
      case LogLevel::Error:
        return "ERROR";
      default:
        return "?";
    }
}

} // namespace

void
logMessage(LogLevel level, const std::string &msg)
{
    static const LogLevel threshold = parseEnvLevel();
    if (static_cast<int>(level) < static_cast<int>(threshold))
        return;
    std::lock_guard<std::mutex> lock(log_mutex);
    std::cerr << "[mopt:" << levelName(level) << "] " << msg << "\n";
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::cerr << "[mopt:PANIC] " << msg << std::endl;
    std::abort();
}

} // namespace mopt
