/**
 * @file
 * The live thread count of this process, for tests that assert a
 * component starts no threads (or exactly the ones it should).
 */

#ifndef MOPT_TESTS_SUPPORT_THREAD_COUNT_HH
#define MOPT_TESTS_SUPPORT_THREAD_COUNT_HH

namespace mopt {

/** This process's thread count (/proc/self/status Threads:), or -1
 *  when it cannot be read. */
int threadCount();

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_THREAD_COUNT_HH
