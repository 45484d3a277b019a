/**
 * @file
 * The crash-safe JSON-lines journal file shared by the two persistent
 * stores (the solution cache and the calibration store). One record
 * per line: a load feeds every non-blank line to the owner's parser
 * and skips corrupt ones loudly, an append writes one flushed line
 * per acknowledged record, and a rewrite replaces the whole file by
 * tmp + fsync + rename + directory fsync, so a kill at any point
 * leaves either the complete old or the complete new journal.
 *
 * The functions keep no state and take no lock: each owner holds its
 * own mutex, its append stream and its policy (what to write, when to
 * rewrite). @p owner names the store in warnings.
 */

#ifndef MOPT_COMMON_JOURNAL_HH
#define MOPT_COMMON_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>

namespace mopt {

/** Line counts of one journalLoad. */
struct JournalLoad
{
    std::int64_t loaded = 0;  //!< Lines the parser accepted.
    std::int64_t skipped = 0; //!< Corrupt lines dropped (loudly).
};

/**
 * Feed each non-blank line of @p path (a missing file reads as empty)
 * to @p parse, which returns false on a corrupt line; warn once when
 * any line was skipped; then open @p journal for appending (fatal when
 * it cannot be opened).
 */
JournalLoad journalLoad(const std::string &path, const char *owner,
                        const std::function<bool(const std::string &)> &parse,
                        std::ofstream &journal);

/**
 * Append @p line and a newline to @p journal and flush it to the OS
 * (no fsync: the line survives a crash of the process, not of the
 * machine). False, writing nothing, when the journal is closed.
 */
bool journalAppend(std::ofstream &journal, const std::string &line);

/**
 * Rewrite @p path with the lines @p write puts on the stream it is
 * given (each ending in a newline), in the crash-safe order, then
 * reopen @p journal for appending. When the tmp file cannot be
 * created, nothing is written and @p journal stays as it was. True
 * when the new file replaced the old one.
 */
bool journalRewrite(const std::string &path, const char *owner,
                    const std::function<void(std::ostream &)> &write,
                    std::ofstream &journal);

} // namespace mopt

#endif // MOPT_COMMON_JOURNAL_HH
