/**
 * @file
 * A waiting accept for test fixtures. The library's listener only
 * offers the non-blocking TcpListener::tryAccept its epoll loop
 * needs; fixtures that want to wait for one connection poll the
 * listener's descriptor here first.
 */

#ifndef MOPT_TESTS_SUPPORT_TCP_ACCEPT_HH
#define MOPT_TESTS_SUPPORT_TCP_ACCEPT_HH

#include "common/deadline.hh"
#include "rpc/tcp.hh"

namespace mopt {

/**
 * Wait until @p dl for a connection on @p listener and accept it.
 * Returns an invalid socket when the deadline expires first
 * (@p timed_out set, when non-null) or the listener fails
 * (@p timed_out clear).
 */
TcpSocket acceptBefore(TcpListener &listener,
                       Deadline dl = Deadline::never(),
                       bool *timed_out = nullptr);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_TCP_ACCEPT_HH
