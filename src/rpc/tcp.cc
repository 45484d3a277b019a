#include "rpc/tcp.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace mopt {

namespace {

std::string
errnoString()
{
    return std::strerror(errno);
}

void
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
}

/** getaddrinfo for a numeric-or-named host; nullptr on failure. */
addrinfo *
resolve(const std::string &host, int port, bool passive,
        std::string *err)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    addrinfo *res = nullptr;
    const std::string port_str = std::to_string(port);
    const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                 port_str.c_str(), &hints, &res);
    if (rc != 0) {
        setError(err, "resolve " + host + ": " + gai_strerror(rc));
        return nullptr;
    }
    return res;
}

bool
fdSetNonBlocking(int fd, bool on)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return flags == want || ::fcntl(fd, F_SETFL, want) == 0;
}

/**
 * Wait for @p events on @p fd until @p dl. Returns >0 when ready, 0 on
 * deadline expiry, <0 on poll error. EINTR just re-polls: the deadline
 * is absolute, so a signal storm cannot extend the wait.
 */
int
pollFd(int fd, short events, const Deadline &dl)
{
    for (;;) {
        pollfd pfd;
        pfd.fd = fd;
        pfd.events = events;
        pfd.revents = 0;
        const int rc = ::poll(&pfd, 1, dl.pollTimeout());
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (rc == 0)
            return 0;
        return 1;
    }
}

/**
 * Finish a non-blocking connect on @p fd before @p dl: wait for
 * writability, then read SO_ERROR for the real outcome. True on a
 * fully established connection.
 */
bool
awaitConnect(int fd, const Deadline &dl, std::string *last_err)
{
    const int rc = pollFd(fd, POLLOUT, dl);
    if (rc < 0) {
        *last_err = "connect poll: " + errnoString();
        return false;
    }
    if (rc == 0) {
        *last_err = "connect: timed out";
        return false;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        *last_err = "getsockopt: " + errnoString();
        return false;
    }
    if (so_error != 0) {
        *last_err =
            std::string("connect: ") + std::strerror(so_error);
        return false;
    }
    return true;
}

std::string
addrToString(const sockaddr_storage &sa)
{
    char host[INET6_ADDRSTRLEN] = {0};
    int port = 0;
    if (sa.ss_family == AF_INET) {
        const auto *in = reinterpret_cast<const sockaddr_in *>(&sa);
        ::inet_ntop(AF_INET, &in->sin_addr, host, sizeof(host));
        port = ntohs(in->sin_port);
    } else if (sa.ss_family == AF_INET6) {
        const auto *in6 = reinterpret_cast<const sockaddr_in6 *>(&sa);
        ::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof(host));
        port = ntohs(in6->sin6_port);
    } else {
        return "?";
    }
    return std::string(host) + ":" + std::to_string(port);
}

} // namespace

TcpSocket &
TcpSocket::operator=(TcpSocket &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

TcpSocket
TcpSocket::connectTo(const std::string &host, int port, std::string *err,
                     Deadline dl)
{
    addrinfo *res = resolve(host, port, /*passive=*/false, err);
    if (!res)
        return TcpSocket();
    int fd = -1;
    std::string last_err = "no addresses";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_err = "socket: " + errnoString();
            continue;
        }
        // Non-blocking connect + poll so the handshake honors the
        // deadline (a blackholed SYN otherwise blocks for the
        // kernel's multi-minute default). The socket itself stays
        // blocking afterward; I/O deadlines come from poll() in
        // sendAll/recvSome, not O_NONBLOCK.
        if (!fdSetNonBlocking(fd, true)) {
            last_err = "fcntl: " + errnoString();
            ::close(fd);
            fd = -1;
            continue;
        }
        const int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        bool ok = rc == 0;
        if (!ok && errno == EINPROGRESS)
            ok = awaitConnect(fd, dl, &last_err);
        else if (!ok)
            last_err = "connect: " + errnoString();
        if (ok && !fdSetNonBlocking(fd, false)) {
            last_err = "fcntl: " + errnoString();
            ok = false;
        }
        if (ok)
            break;
        ::close(fd);
        fd = -1;
        if (dl.expired())
            break; // Don't burn the caller's budget on more addresses.
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        setError(err, host + ":" + std::to_string(port) + ": " + last_err);
        return TcpSocket();
    }
    // The protocol is request/response on small lines; latency beats
    // batching.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpSocket(fd);
}

bool
TcpSocket::sendAll(const std::string &data, Deadline dl)
{
    if (fd_ < 0)
        return false;
    std::size_t off = 0;
    while (off < data.size()) {
        if (!dl.infinite()) {
            const int rc = pollFd(fd_, POLLOUT, dl);
            if (rc <= 0)
                return false; // Timeout or poll error: give up.
        }
        const ssize_t n = ::send(fd_, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

long
TcpSocket::recvSome(char *buf, std::size_t len, Deadline dl)
{
    if (fd_ < 0)
        return -1;
    if (!dl.infinite()) {
        const int rc = pollFd(fd_, POLLIN, dl);
        if (rc < 0)
            return -1;
        if (rc == 0)
            return kTimedOut;
    }
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return static_cast<long>(n);
    }
}

std::string
TcpSocket::peerAddress() const
{
    if (fd_ < 0)
        return "?";
    sockaddr_storage sa{};
    socklen_t sa_len = sizeof(sa);
    if (::getpeername(fd_, reinterpret_cast<sockaddr *>(&sa), &sa_len) !=
        0)
        return "?";
    return addrToString(sa);
}

bool
TcpSocket::setNonBlocking(bool on)
{
    return fd_ >= 0 && fdSetNonBlocking(fd_, on);
}

void
TcpSocket::shutdownRead()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

void
TcpSocket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
TcpListener::listenOn(const std::string &host, int port, std::string *err)
{
    close();
    addrinfo *res = resolve(host, port, /*passive=*/true, err);
    if (!res)
        return false;
    std::string last_err = "no addresses";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family,
                                ai->ai_socktype | SOCK_NONBLOCK,
                                ai->ai_protocol);
        if (fd < 0) {
            last_err = "socket: " + errnoString();
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, 64) != 0) {
            last_err = "bind/listen: " + errnoString();
            ::close(fd);
            continue;
        }
        fd_ = fd;
        break;
    }
    ::freeaddrinfo(res);
    if (fd_ < 0) {
        setError(err, host + ":" + std::to_string(port) + ": " + last_err);
        return false;
    }

    // Learn the kernel-assigned port (meaningful when port was 0).
    sockaddr_storage sa{};
    socklen_t sa_len = sizeof(sa);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&sa), &sa_len) ==
        0) {
        if (sa.ss_family == AF_INET)
            port_ = ntohs(reinterpret_cast<sockaddr_in *>(&sa)->sin_port);
        else if (sa.ss_family == AF_INET6)
            port_ =
                ntohs(reinterpret_cast<sockaddr_in6 *>(&sa)->sin6_port);
    }
    return true;
}

TcpSocket
TcpListener::tryAccept(bool *would_block)
{
    *would_block = false;
    for (;;) {
        if (fd_ < 0)
            return TcpSocket();
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                *would_block = true;
            return TcpSocket();
        }
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return TcpSocket(conn);
    }
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    port_ = -1;
}

LineReader::Status
LineReader::pollLine(std::string &out)
{
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
        out.assign(buf_, 0, nl);
        if (!out.empty() && out.back() == '\r')
            out.pop_back();
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return Status::Ok;
    }
    scanned_ = buf_.size();
    if (buf_.size() > max_line_)
        return Status::TooLong;
    return Status::Timeout; // No complete line buffered yet.
}

LineReader::Status
LineReader::readLine(std::string &out, Deadline dl)
{
    for (;;) {
        const Status st = pollLine(out);
        if (st != Status::Timeout)
            return st;

        char chunk[4096];
        const long n = sock_.recvSome(chunk, sizeof(chunk), dl);
        if (n == 0)
            return Status::Eof;
        if (n == TcpSocket::kTimedOut)
            return Status::Timeout;
        if (n < 0)
            return Status::Error;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace mopt
