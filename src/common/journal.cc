#include "common/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

#include "common/logging.hh"

namespace mopt {

namespace {

/** fsync @p path (or, with O_DIRECTORY, a directory): a rename is
 *  only durable once the directory entry is on disk, the file's bytes
 *  only once the file is. Warn-and-continue on failure. */
void
syncPath(const char *owner, const std::string &path, int open_flags)
{
    const int fd = ::open(path.c_str(), open_flags);
    if (fd < 0) {
        logWarn(owner, ": cannot open ", path, " for fsync");
        return;
    }
    if (::fsync(fd) != 0)
        logWarn(owner, ": fsync ", path, " failed");
    ::close(fd);
}

/** Parent directory of @p path ("." when it has none). */
std::string
parentDir(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

} // namespace

JournalLoad
journalLoad(const std::string &path, const char *owner,
            const std::function<bool(const std::string &)> &parse,
            std::ofstream &journal)
{
    JournalLoad counts;
    {
        std::ifstream in(path);
        std::string line;
        while (in && std::getline(in, line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            ++(parse(line) ? counts.loaded : counts.skipped);
        }
    }
    if (counts.skipped > 0)
        logWarn(owner, ": skipped ", counts.skipped,
                " corrupt journal line(s) in ", path);
    journal.open(path, std::ios::out | std::ios::app);
    if (!journal.is_open())
        fatal(std::string(owner) + ": cannot open journal " + path);
    return counts;
}

bool
journalAppend(std::ofstream &journal, const std::string &line)
{
    if (!journal.is_open())
        return false;
    journal << line << "\n";
    journal.flush();
    return true;
}

bool
journalRewrite(const std::string &path, const char *owner,
               const std::function<void(std::ostream &)> &write,
               std::ofstream &journal)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::out | std::ios::trunc);
        if (!out.is_open()) {
            logWarn(owner, ": cannot write ", tmp,
                    "; journal left uncompacted");
            return false;
        }
        write(out);
    }
    if (journal.is_open())
        journal.close();
    // Crash-safety order: the tmp file's bytes must be on disk
    // *before* the rename makes it the journal, and the rename itself
    // is only durable once the directory entry is synced. A kill -9
    // (or power cut) at any point leaves either the complete old
    // journal or the complete new one — never a short or empty file
    // under the journal's name.
    syncPath(owner, tmp, O_RDONLY);
    const bool renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!renamed) {
        logWarn(owner, ": rename to ", path,
                " failed; journal left uncompacted");
        std::remove(tmp.c_str());
    } else {
        syncPath(owner, parentDir(path), O_RDONLY | O_DIRECTORY);
    }
    journal.open(path, std::ios::out | std::ios::app);
    return renamed;
}

} // namespace mopt
