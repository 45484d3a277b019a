#include "support/tcp_accept.hh"

#include <cerrno>

#include <poll.h>

namespace mopt {

TcpSocket
acceptBefore(TcpListener &listener, Deadline dl, bool *timed_out)
{
    if (timed_out)
        *timed_out = false;
    for (;;) {
        pollfd pfd{};
        pfd.fd = listener.fd();
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, dl.pollTimeout());
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc < 0)
            return TcpSocket();
        if (rc == 0) {
            if (timed_out)
                *timed_out = true;
            return TcpSocket();
        }
        bool would_block = false;
        TcpSocket sock = listener.tryAccept(&would_block);
        if (sock.valid() || !would_block)
            return sock;
        // The peer went away between poll and accept: wait again.
    }
}

} // namespace mopt
