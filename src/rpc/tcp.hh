/**
 * @file
 * Thin socket wrappers for the RPC layer: an RAII connected socket
 * (TcpSocket), a non-blocking listener for a readiness loop
 * (TcpListener), and a buffered newline framer (LineReader).
 *
 * Deliberately minimal — IPv4/IPv6 via getaddrinfo, blocking I/O, no
 * TLS — because the protocol above it is a trusted-fleet line
 * protocol, not an internet-facing endpoint. All sends use
 * MSG_NOSIGNAL so a peer that vanished mid-response surfaces as an
 * error return instead of SIGPIPE.
 *
 * Every potentially-blocking operation (connect, send, recv, and
 * therefore readLine) takes a Deadline (common/deadline.hh): a
 * monotonic-clock point in time that poll() bounds the wait against.
 * Deadline::never() reproduces the historical fully-blocking
 * behavior, so a peer that stalls, blackholes, or half-opens can
 * never hang a caller that set one — the call returns a
 * distinguishable timeout instead. The failure model built on top
 * (client retries/hedging, server admission control, src/rpc/client.hh
 * and server.hh) assumes exactly this property.
 */

#ifndef MOPT_RPC_TCP_HH
#define MOPT_RPC_TCP_HH

#include <cstddef>
#include <string>

#include "common/deadline.hh"

namespace mopt {

/** RAII wrapper of one connected (or accepted) stream socket. */
class TcpSocket
{
  public:
    /** recvSome return value when the deadline expired first. */
    static constexpr long kTimedOut = -2;

    TcpSocket() = default;

    /** Take ownership of @p fd (-1 = invalid). */
    explicit TcpSocket(int fd) : fd_(fd) {}

    ~TcpSocket() { close(); }

    TcpSocket(TcpSocket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    TcpSocket &operator=(TcpSocket &&o) noexcept;
    TcpSocket(const TcpSocket &) = delete;
    TcpSocket &operator=(const TcpSocket &) = delete;

    /**
     * Connect to @p host : @p port, giving up at @p dl (a half-open
     * listener or a blackholed SYN then surfaces as an error instead
     * of hanging for the kernel's minutes-long default). Returns an
     * invalid socket and fills @p err (when non-null) on failure.
     */
    static TcpSocket connectTo(const std::string &host, int port,
                               std::string *err = nullptr,
                               Deadline dl = Deadline::never());

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Send all of @p data before @p dl; false on any error or on
     *  deadline expiry (a stalled peer with a full receive window
     *  cannot wedge the caller). */
    bool sendAll(const std::string &data,
                 Deadline dl = Deadline::never());

    /**
     * Receive up to @p len bytes. Returns the byte count, 0 on orderly
     * peer shutdown, -1 on error, kTimedOut (-2) when @p dl expired
     * with no data. Retries EINTR internally.
     */
    long recvSome(char *buf, std::size_t len,
                  Deadline dl = Deadline::never());

    /** Peer address ("ip:port", or "?" when unavailable) — the
     *  identity the server's per-client admission control keys on. */
    std::string peerAddress() const;

    /** Toggle O_NONBLOCK. The readiness-driven server core runs every
     *  connection non-blocking; the client side stays blocking and
     *  bounds waits with poll() instead. */
    bool setNonBlocking(bool on);

    /** Half-close the read side only: the peer's sends see EOF while
     *  our pending response can still be written (graceful drain). */
    void shutdownRead();

    void close();

  private:
    int fd_ = -1;
};

/** Non-blocking listening socket, accepted from by one thread at a
 *  time. */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener() { close(); }
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind and listen on @p host : @p port (port 0 = ephemeral; the
     * chosen port is readable via port()). False + @p err on failure.
     */
    bool listenOn(const std::string &host, int port,
                  std::string *err = nullptr);

    /** The bound port (after listenOn), or -1. */
    int port() const { return port_; }

    bool listening() const { return fd_ >= 0; }

    /** The listening descriptor (for epoll registration), or -1. */
    int fd() const { return fd_; }

    /**
     * Non-blocking accept for readiness-driven callers (the listening
     * descriptor is non-blocking): returns the connection, or an
     * invalid socket with @p would_block set when no connection is
     * pending (EAGAIN). An invalid socket with @p would_block false
     * is a real accept error.
     */
    TcpSocket tryAccept(bool *would_block);

    /** Stop listening and release the bound port. Idempotent; only
     *  the thread that accepts may call it. */
    void close();

  private:
    int fd_ = -1;
    int port_ = -1;
};

/**
 * Buffered newline framing over a TcpSocket: accumulates bytes across
 * arbitrarily fragmented recvs and yields one line (without the
 * terminator) per readLine call. A line longer than @p max_line is a
 * protocol violation: readLine returns TooLong and the stream must be
 * dropped (resynchronizing on a hostile peer is not worth the code).
 *
 * readLine takes a Deadline; Timeout means the deadline expired with
 * the line still incomplete — the partial bytes stay buffered, so a
 * caller polling in slices (the hedging client) can keep calling with
 * later deadlines and lose nothing.
 */
class LineReader
{
  public:
    enum class Status { Ok, Eof, TooLong, Error, Timeout };

    LineReader(TcpSocket &sock, std::size_t max_line)
        : sock_(sock), max_line_(max_line)
    {}

    Status readLine(std::string &out, Deadline dl = Deadline::never());

    /** Append bytes received elsewhere (the readiness loop recvs
     *  non-blocking and feeds the framer; readLine recvs itself). */
    void feed(const char *data, std::size_t n) { buf_.append(data, n); }

    /**
     * Extract the next complete line from the buffer without touching
     * the socket. Ok = a line was produced; Timeout = no complete
     * line buffered yet (feed more bytes and retry — nothing is
     * lost); TooLong = the '\n'-free prefix exceeds max_line and the
     * stream must be dropped.
     */
    Status pollLine(std::string &out);

    /** Drop buffered bytes (after a reconnect: stale bytes from the
     *  previous connection must not frame into the new stream). */
    void reset()
    {
        buf_.clear();
        scanned_ = 0;
    }

  private:
    TcpSocket &sock_;
    std::size_t max_line_;
    std::string buf_;
    std::size_t scanned_ = 0; //!< buf_ prefix known to be '\n'-free.
};

} // namespace mopt

#endif // MOPT_RPC_TCP_HH
