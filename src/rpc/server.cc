#include "rpc/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fleet/backoff.hh"
#include "fleet/ring.hh"
#include "frontend/registry.hh"
#include "service/cache_key.hh"

namespace mopt {

namespace {

// epoll user-data ids of the two non-connection descriptors; real
// connections start at 2 (Server::next_conn_id_).
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;

// Per-connection cap on parsed-but-undispatched request lines; past
// it the loop stops reading the socket (TCP backpressure) until the
// backlog drains. Responses stay in request order regardless.
constexpr std::size_t kMaxPipelinedLines = 8;

// Replication budgets: pushes and the join-time pull are best-effort
// and must never wedge on a dead peer.
constexpr long kReplPushDeadlineMs = 1000;
constexpr long kReplPullDeadlineMs = 2000;
constexpr long kReplPingDeadlineMs = 250;

// Bound on queued-but-unpushed replication records; a slow peer
// drops records (counted) instead of backing up the solve path.
constexpr std::size_t kMaxReplQueue = 1024;

// Per-peer bound on records spooled for a quarantined peer. Oldest
// drop first: anti-entropy repairs whatever falls off the spool.
constexpr std::size_t kMaxSpoolPerPeer = 1024;

// A failed push retries this many times with jittered exponential
// backoff from kReplPushBackoffMs before the record is spooled.
constexpr int kReplPushAttempts = 3;
constexpr long kReplPushBackoffMs = 50;

// The replicator's idle tick: with an empty queue it wakes this often
// to run half-open probes and the anti-entropy schedule.
constexpr long kReplLoopSliceMs = 50;

bool
fdNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

/**
 * Per-connection state, owned exclusively by the event loop. A
 * connection is a registered fd, a framing buffer, an output buffer,
 * and a FIFO of work: complete request lines awaiting dispatch plus
 * canned (pre-serialized) error responses that must go out in order
 * with them. At most one request per connection is inside the worker
 * pool at a time (busy), which is what keeps responses in request
 * order without sequence numbers.
 */
struct Server::Conn
{
    struct PendingItem
    {
        std::string text;    //!< Request line, or canned response.
        bool canned = false; //!< Already-serialized response bytes.
    };

    std::uint64_t id;
    TcpSocket sock;
    LineReader reader;

    std::string out;         //!< Unflushed response bytes.
    std::size_t out_off = 0; //!< Flushed prefix of out.

    std::uint32_t armed_events = 0; //!< What epoll currently watches.
    bool want_read = true;   //!< false = pipelining backpressure.
    bool read_closed = false;//!< EOF seen (or we gave up on reads).
    bool busy = false;       //!< A request is inside the worker pool.

    std::deque<PendingItem> pending; //!< Ordered undispatched work.

    std::string client_ip; //!< Admission key (empty = not counted).

    /** Bound on flushing the remaining output (refusals, drain);
     *  infinite during normal operation. */
    Deadline write_deadline = Deadline::never();

    Conn(std::uint64_t id_, TcpSocket s, std::size_t max_line)
        : id(id_), sock(std::move(s)), reader(sock, max_line)
    {}
};

Server::Server(const MachineSpec &machine, const OptimizerOptions &opts,
               SolutionCache *cache, ServerOptions options)
    : machine_(machine), opts_(opts), cache_(cache),
      options_([&options] {
          options.workers = std::max(1, options.workers);
          options.solve_concurrency =
              std::max(1, options.solve_concurrency);
          options.max_pending_conns =
              std::max(1, options.max_pending_conns);
          options.max_per_client = std::max(0, options.max_per_client);
          return std::move(options);
      }()),
      machine_fp_(CacheKey::machineFingerprint(machine_)),
      settings_fp_(CacheKey::settingsFingerprint(opts_)),
      scheduler_(machine_, opts_, cache_,
                 [this] {
                     SolveSchedulerOptions so;
                     so.concurrency = options_.solve_concurrency;
                     if (!options_.replicate.empty())
                         so.on_insert = [this](const CacheKey &key,
                                               const CachedSolution &sol,
                                               std::int64_t seq) {
                             enqueueReplication(key, sol, seq);
                         };
                     return so;
                 }()),
      optimizer_(machine_, opts_, cache_, &scheduler_)
{}

Server::~Server()
{
    stop();
    {
        std::lock_guard<std::mutex> lock(repl_mu_);
        repl_stop_ = true;
    }
    repl_cv_.notify_all();
    if (repl_thread_.joinable())
        repl_thread_.join();
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_closed_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
    conns_.clear();
    if (epfd_ >= 0)
        ::close(epfd_);
    if (wake_rd_ >= 0)
        ::close(wake_rd_);
    if (wake_wr_ >= 0)
        ::close(wake_wr_);
    epfd_ = wake_rd_ = wake_wr_ = -1;
    // scheduler_ is destroyed after this body: its runners may still
    // fire on_insert -> enqueueReplication, which sees repl_stop_ and
    // drops the record (the queue members outlive the scheduler by
    // declaration order).
}

bool
Server::start(std::string *err)
{
    if (!options_.replicate.empty()) {
        try {
            repl_peers_ = parseEndpointList(options_.replicate);
        } catch (const FatalError &e) {
            if (err)
                *err = e.what();
            return false;
        }
        // Liveness (defaults: 3 strikes to Down, 100..2000 ms jittered
        // half-open quarantine) plus per-peer spools and anti-entropy
        // bookkeeping, all sized to the fleet.
        peer_table_ = std::make_unique<PeerTable>(repl_peers_.size(),
                                                  PeerTableOptions{});
        repl_spool_.assign(repl_peers_.size(), {});
        ae_.assign(repl_peers_.size(), AeState{});
    }
    if (!listener_.listenOn(options_.host, options_.port, err))
        return false;
    if (!listener_.setNonBlocking(true)) {
        if (err)
            *err = "failed to make the listener non-blocking";
        listener_.retire();
        return false;
    }
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    int fds[2] = {-1, -1};
    if (epfd_ < 0 || ::pipe(fds) != 0 || !fdNonBlocking(fds[0]) ||
        !fdNonBlocking(fds[1])) {
        if (err)
            *err = "failed to set up the event loop (epoll/pipe)";
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
        if (epfd_ >= 0)
            ::close(epfd_);
        epfd_ = -1;
        listener_.retire();
        return false;
    }
    wake_rd_ = fds[0];
    wake_wr_ = fds[1];
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_rd_, &ev);

    // Converge to warm before the first request can miss.
    prefetchFromPeers();
    if (!repl_peers_.empty())
        repl_thread_ = std::thread([this] { replicatorLoop(); });

    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

std::int64_t
Server::serve()
{
    std::int64_t served = 0;
    if (epfd_ < 0)
        return 0; // start() was never called (or failed).
    epoll_event events[64];
    for (;;) {
        if (stopping() && !drain_begun_)
            beginDrain();
        if (drain_begun_ && inflight_jobs_ == 0 && conns_.empty())
            break;
        const int n =
            ::epoll_wait(epfd_, events, 64, loopTimeoutMs());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // epfd gone: nothing left to wait on.
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t ev = events[i].events;
            if (id == kListenerId) {
                if (!drain_begun_)
                    acceptReady(&served);
                continue;
            }
            if (id == kWakeId) {
                processCompletions();
                continue;
            }
            // Look the connection up fresh at every step: an earlier
            // event in this batch (or a completion) may have
            // destroyed it.
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue;
            if (ev & EPOLLERR) {
                destroyConn(id);
                continue;
            }
            if ((ev & EPOLLOUT) && !flushConn(*it->second))
                continue;
            it = conns_.find(id);
            if (it == conns_.end())
                continue;
            if (ev & (EPOLLIN | EPOLLHUP | EPOLLRDHUP))
                connReadable(*it->second);
        }
        expireWriteDeadlines();
    }
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_closed_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
    conns_.clear();
    client_conns_.clear();
    return served;
}

void
Server::stop()
{
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;
    listener_.close(); // Signal only; the loop closes the fds.
    wakeLoop();
}

void
Server::wakeLoop()
{
    if (wake_wr_ < 0)
        return;
    const char b = 'w';
    // EAGAIN means unread bytes already guarantee a wakeup.
    [[maybe_unused]] const auto n = ::write(wake_wr_, &b, 1);
}

int
Server::loopTimeoutMs() const
{
    int timeout = -1;
    for (const auto &[id, c] : conns_) {
        (void)id;
        if (c->write_deadline.infinite())
            continue;
        const int t = c->write_deadline.pollTimeout();
        if (timeout < 0 || t < timeout)
            timeout = t;
    }
    return timeout;
}

void
Server::expireWriteDeadlines()
{
    std::vector<std::uint64_t> dead;
    for (const auto &[id, c] : conns_)
        if (!c->write_deadline.infinite() &&
            c->write_deadline.expired())
            dead.push_back(id);
    // A client too slow to take even its final bytes is dropped.
    for (const std::uint64_t id : dead)
        destroyConn(id);
}

void
Server::acceptReady(std::int64_t *served)
{
    for (;;) {
        bool would_block = false;
        TcpSocket sock = listener_.tryAccept(&would_block);
        if (!sock.valid()) {
            if (!would_block)
                stop(); // Listener retired or a fatal accept error.
            return;
        }
        ++*served;
        counters_.connections.fetch_add(1, std::memory_order_relaxed);
        sock.setNonBlocking(true);
        admitConn(std::move(sock));
    }
}

void
Server::admitConn(TcpSocket sock)
{
    // Admission control. Idle connections are free under this core —
    // what saturates the server is dispatched requests — so the
    // pending budget gates the worker backlog, not the fd table.
    if (inflight_jobs_ >= options_.max_pending_conns) {
        counters_.shed_overload.fetch_add(1, std::memory_order_relaxed);
        shedNewConn(std::move(sock),
                    "server overloaded: pending-connection budget (" +
                        std::to_string(options_.max_pending_conns) +
                        ") exhausted");
        return;
    }
    std::string client_ip;
    if (options_.max_per_client > 0) {
        // Peer host only: one client opens many ephemeral ports.
        client_ip = sock.peerAddress();
        const std::size_t colon = client_ip.rfind(':');
        if (colon != std::string::npos)
            client_ip.erase(colon);
        const auto it = client_conns_.find(client_ip);
        if (it != client_conns_.end() &&
            it->second >= options_.max_per_client) {
            counters_.shed_client.fetch_add(1,
                                            std::memory_order_relaxed);
            shedNewConn(std::move(sock),
                        "server overloaded: per-client connection "
                        "cap (" +
                            std::to_string(options_.max_per_client) +
                            ") reached");
            return;
        }
        ++client_conns_[client_ip];
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(sock),
                                       options_.max_request_bytes);
    conn->client_ip = std::move(client_ip);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
        if (!conn->client_ip.empty() &&
            --client_conns_[conn->client_ip] <= 0)
            client_conns_.erase(conn->client_ip);
        return; // Cannot watch it; drop (RAII closes).
    }
    conn->armed_events = EPOLLIN;
    conns_.emplace(id, std::move(conn));
}

void
Server::shedNewConn(TcpSocket sock, const std::string &msg)
{
    // Refuse explicitly: a well-behaved client backs off and retries
    // another shard instead of timing out blind. The refusal rides
    // the normal output path under a bounded write deadline.
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    const std::string bytes =
        responseToJsonLine(
            rpcErrorResponse(msg, RpcErrorCode::Overloaded)) +
        "\n";
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(sock),
                                       options_.max_request_bytes);
    conn->read_closed = true; // Never read: answer and close.
    conn->want_read = false;
    epoll_event ev{};
    ev.events = 0;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0)
        return;
    const auto [it, inserted] = conns_.emplace(id, std::move(conn));
    (void)inserted;
    appendOutput(*it->second, bytes); // May destroy (fully flushed).
}

bool
Server::connReadable(Conn &c)
{
    char buf[16384];
    for (;;) {
        const auto n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            c.reader.feed(buf, static_cast<std::size_t>(n));
            if (!extractLines(c))
                return false;
            if (c.read_closed || !c.want_read)
                break; // TooLong, or pipelining backpressure.
            continue;
        }
        if (n == 0) {
            c.read_closed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        destroyConn(c.id);
        return false;
    }
    updateEvents(c);
    return maybeCloseConn(c);
}

bool
Server::extractLines(Conn &c)
{
    std::string line;
    for (;;) {
        const LineReader::Status st = c.reader.pollLine(line);
        if (st == LineReader::Status::Timeout)
            break; // No complete line buffered yet.
        if (st == LineReader::Status::TooLong) {
            // Framing is gone; answer once and drop the stream.
            counters_.errors.fetch_add(1, std::memory_order_relaxed);
            c.pending.push_back(Conn::PendingItem{
                responseToJsonLine(rpcErrorResponse(
                    "request exceeds " +
                    std::to_string(options_.max_request_bytes) +
                    " bytes")) +
                    "\n",
                /*canned=*/true});
            c.read_closed = true;
            c.reader.reset();
            break;
        }
        if (line.find_first_not_of(" \t") == std::string::npos)
            continue; // Blank keep-alive lines are harmless.
        counters_.requests.fetch_add(1, std::memory_order_relaxed);
        c.pending.push_back(
            Conn::PendingItem{std::move(line), /*canned=*/false});
        if (c.pending.size() >= kMaxPipelinedLines)
            c.want_read = false; // Backpressure; resumes in pumpConn.
    }
    return pumpConn(c);
}

bool
Server::pumpConn(Conn &c)
{
    while (!c.busy && !c.pending.empty()) {
        Conn::PendingItem item = std::move(c.pending.front());
        c.pending.pop_front();
        if (item.canned) {
            if (!appendOutput(c, item.text))
                return false;
            continue;
        }
        if (drain_begun_)
            continue; // New work ends at shutdown.
        c.busy = true;
        ++inflight_jobs_;
        {
            std::lock_guard<std::mutex> lock(queue_mu_);
            queue_.push_back(Job{c.id, std::move(item.text)});
        }
        queue_cv_.notify_one();
    }
    if (!c.read_closed && !c.want_read &&
        c.pending.size() < kMaxPipelinedLines) {
        c.want_read = true;
        updateEvents(c);
    }
    return maybeCloseConn(c);
}

bool
Server::appendOutput(Conn &c, const std::string &bytes)
{
    if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
    }
    c.out.append(bytes);
    // Bound the flush whenever the connection is already condemned
    // (refusal, TooLong, drain): a client too slow to take its final
    // bytes must not pin the conn table.
    if ((drain_begun_ || c.read_closed) && c.write_deadline.infinite())
        c.write_deadline = Deadline::in(options_.shed_write_ms);
    return flushConn(c);
}

bool
Server::flushConn(Conn &c)
{
    while (c.out_off < c.out.size()) {
        const auto n =
            ::send(c.sock.fd(), c.out.data() + c.out_off,
                   c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n >= 0) {
            c.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // Window full; EPOLLOUT resumes us.
        destroyConn(c.id); // Peer gone; nothing to salvage.
        return false;
    }
    if (c.out_off >= c.out.size()) {
        c.out.clear();
        c.out_off = 0;
        c.write_deadline = Deadline::never();
    }
    updateEvents(c);
    return maybeCloseConn(c);
}

bool
Server::maybeCloseConn(Conn &c)
{
    const bool flushed = c.out_off >= c.out.size();
    if (c.read_closed && !c.busy && c.pending.empty() && flushed) {
        destroyConn(c.id);
        return false;
    }
    return true;
}

void
Server::updateEvents(Conn &c)
{
    std::uint32_t ev = 0;
    if (!c.read_closed && c.want_read)
        ev |= EPOLLIN;
    if (c.out_off < c.out.size())
        ev |= EPOLLOUT;
    if (ev == c.armed_events)
        return;
    epoll_event e{};
    e.events = ev;
    e.data.u64 = c.id;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.sock.fd(), &e);
    c.armed_events = ev;
}

void
Server::destroyConn(std::uint64_t id)
{
    const auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    Conn &c = *it->second;
    if (!c.client_ip.empty()) {
        const auto cit = client_conns_.find(c.client_ip);
        if (cit != client_conns_.end() && --cit->second <= 0)
            client_conns_.erase(cit);
    }
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.sock.fd(), nullptr);
    conns_.erase(it); // RAII closes the fd.
    // If a request of this connection is still inside a worker, its
    // completion arrives for a missing id and is dropped there.
}

void
Server::processCompletions()
{
    char buf[256];
    while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
    }
    for (;;) {
        Completion comp;
        {
            std::lock_guard<std::mutex> lock(done_mu_);
            if (done_.empty())
                break;
            comp = std::move(done_.front());
            done_.pop_front();
        }
        --inflight_jobs_;
        const auto it = conns_.find(comp.conn_id);
        if (it != conns_.end()) {
            Conn &c = *it->second;
            c.busy = false;
            if (appendOutput(c, comp.bytes))
                pumpConn(c); // Next pipelined request, if any.
        }
        if (comp.shutdown)
            stop();
    }
}

void
Server::beginDrain()
{
    drain_begun_ = true;
    listener_.retire(); // Frees the port now, not at destruction.
    // Read-side half-close of every connection: clients see EOF, but
    // a response mid-write (or still inside a worker) flushes first,
    // bounded by shed_write_ms. SHUT_RDWR would truncate work the
    // server actually finished.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &[id, c] : conns_) {
        (void)c;
        ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
        const auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn &c = *it->second;
        c.sock.shutdownRead();
        c.read_closed = true;
        c.want_read = false;
        // Undispatched requests are dropped (new work ends here);
        // canned refusals still go out in order.
        std::deque<Conn::PendingItem> keep;
        for (Conn::PendingItem &p : c.pending)
            if (p.canned)
                keep.push_back(std::move(p));
        c.pending.swap(keep);
        if (c.out_off < c.out.size() && c.write_deadline.infinite())
            c.write_deadline = Deadline::in(options_.shed_write_ms);
        updateEvents(c);
        maybeCloseConn(c); // Idle connections close immediately.
    }
}

void
Server::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || queue_closed_;
            });
            if (queue_.empty())
                return; // Closed and drained.
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        RpcRequest req;
        std::string perr;
        RpcResponse resp;
        const bool parsed = requestFromJsonLine(job.line, req, &perr);
        if (parsed) {
            resp = handle(req);
        } else {
            // A bad line is the client's bug, not a framing loss: the
            // next newline re-synchronizes, so keep the connection.
            resp = rpcErrorResponse(perr);
        }
        if (!resp.ok)
            counters_.errors.fetch_add(1, std::memory_order_relaxed);
        Completion comp;
        comp.conn_id = job.conn_id;
        comp.bytes = responseToJsonLine(resp) + "\n";
        comp.shutdown = parsed && resp.ok && req.op == RpcOp::Shutdown;
        {
            std::lock_guard<std::mutex> lock(done_mu_);
            done_.push_back(std::move(comp));
        }
        wakeLoop();
    }
}

void
Server::enqueueReplication(const CacheKey &key,
                           const CachedSolution &sol, std::int64_t seq)
{
    {
        std::lock_guard<std::mutex> lock(repl_mu_);
        if (repl_stop_)
            return; // Shutting down; the record is already cached.
        if (repl_queue_.size() >= kMaxReplQueue) {
            // Bounded: replication must never back up the solver.
            // Anti-entropy repairs whatever the overflow dropped.
            counters_.repl_push_failed.fetch_add(
                static_cast<std::int64_t>(repl_peers_.size()),
                std::memory_order_relaxed);
            return;
        }
        RpcReplRecord rec;
        rec.key = key;
        rec.sol = sol;
        rec.seq = seq;
        repl_queue_.push_back(std::move(rec));
    }
    repl_cv_.notify_one();
}

void
Server::replicatorLoop()
{
    std::vector<Client> peers;
    peers.reserve(repl_peers_.size());
    for (const RpcEndpoint &ep : repl_peers_)
        peers.emplace_back(ep);
    auto next_ae = std::chrono::steady_clock::now();
    if (options_.anti_entropy_ms > 0)
        next_ae += std::chrono::milliseconds(options_.anti_entropy_ms);
    for (;;) {
        RpcReplRecord rec;
        bool have = false;
        {
            std::unique_lock<std::mutex> lock(repl_mu_);
            repl_cv_.wait_for(
                lock, std::chrono::milliseconds(kReplLoopSliceMs),
                [this] { return repl_stop_ || !repl_queue_.empty(); });
            if (repl_stop_)
                return; // Best-effort: drop what is still queued.
            if (!repl_queue_.empty()) {
                rec = std::move(repl_queue_.front());
                repl_queue_.pop_front();
                have = true;
            }
        }
        if (have) {
            pushRecord(peers, rec);
            continue; // Drain fresh inserts before housekeeping.
        }
        // Idle housekeeping: half-open probes of quarantine-expired
        // Down peers, then the low-priority anti-entropy schedule.
        probeDownPeers(peers);
        if (options_.anti_entropy_ms > 0 &&
            std::chrono::steady_clock::now() >= next_ae) {
            antiEntropy(peers);
            next_ae =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options_.anti_entropy_ms);
        }
    }
}

void
Server::pushRecord(std::vector<Client> &peers, const RpcReplRecord &rec)
{
    // Walk the ring from the key's owner until F members hold a live
    // copy. Static replica-set members that are quarantined spool (the
    // record rides the drain when the peer returns) and do not count
    // as live, so the walk spills past the set to the next live slot —
    // the same successor order the ShardRouter fails over along.
    const std::size_t n = peers.size() + 1; // Fleet = peers + self.
    const std::size_t want =
        resolveReplicationFactor(options_.replication_factor, n);
    const std::size_t owner =
        static_cast<std::size_t>(rec.key.hash() % n);
    const std::size_t self =
        static_cast<std::size_t>(options_.fleet_index) %
        static_cast<std::size_t>(n);
    std::size_t live = 0;
    for (std::size_t off = 0; off < n && live < want; ++off) {
        const std::size_t slot = (owner + off) % n;
        const bool member = off < want; // In the static replica set.
        if (slot == self) {
            ++live; // This node just inserted the record locally.
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(repl_mu_);
            if (repl_stop_)
                return; // Do not wait out deadlines during shutdown.
        }
        const std::size_t peer = slotToPeerIndex(slot, self);
        if (!peer_table_->offerable(peer)) {
            // Quarantined: a member gets the record on its return via
            // the spool; a spillover candidate is simply skipped.
            if (member)
                spoolFor(peer, rec);
            continue;
        }
        if (pushToPeer(peers, peer, rec)) {
            ++live;
            // The push doubled as a half-open probe: a recovered
            // member may have records waiting from its quarantine.
            if (!repl_spool_[peer].empty())
                drainSpool(peers, peer);
        } else if (member) {
            spoolFor(peer, rec);
        }
    }
}

bool
Server::pushToPeer(std::vector<Client> &peers, std::size_t peer,
                   const RpcReplRecord &rec)
{
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.has_record = true;
    req.repl_key = rec.key;
    req.repl_sol = rec.sol;
    req.repl_seq = rec.seq;
    req.machine_fp = machine_fp_;
    req.settings_fp = settings_fp_;
    req.deadline_ms = kReplPushDeadlineMs;
    for (int attempt = 1; attempt <= kReplPushAttempts; ++attempt) {
        {
            std::lock_guard<std::mutex> lock(repl_mu_);
            if (repl_stop_)
                return false; // Don't wait out deadlines at shutdown.
        }
        RpcResponse resp;
        std::string err;
        const bool ok =
            peers[peer].call(req, resp, &err,
                             Deadline::in(kReplPushDeadlineMs)) &&
            resp.ok;
        if (ok) {
            counters_.repl_pushed.fetch_add(1,
                                            std::memory_order_relaxed);
            peer_table_->reportSuccess(peer);
            return true;
        }
        peers[peer].disconnect(); // Reconnect fresh next time.
        peer_table_->reportFailure(peer);
        if (peer_table_->isDown(peer))
            break; // Struck out: quarantine, don't keep hammering.
        if (attempt < kReplPushAttempts) {
            counters_.repl_push_retries.fetch_add(
                1, std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffDelayMs(
                    kReplPushBackoffMs, attempt, repl_rng_)));
        }
    }
    counters_.repl_push_failed.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
Server::spoolFor(std::size_t peer, const RpcReplRecord &rec)
{
    auto &spool = repl_spool_[peer];
    if (spool.size() >= kMaxSpoolPerPeer) {
        // Oldest first: anti-entropy repairs what falls off.
        spool.pop_front();
        counters_.repl_push_failed.fetch_add(1,
                                             std::memory_order_relaxed);
    }
    spool.push_back(rec);
    counters_.repl_spooled.fetch_add(1, std::memory_order_relaxed);
}

void
Server::drainSpool(std::vector<Client> &peers, std::size_t peer)
{
    auto &spool = repl_spool_[peer];
    while (!spool.empty()) {
        {
            std::lock_guard<std::mutex> lock(repl_mu_);
            if (repl_stop_)
                return;
        }
        if (!peer_table_->offerable(peer) ||
            !pushToPeer(peers, peer, spool.front()))
            return; // Failed again; keep the rest for the next drain.
        spool.pop_front();
    }
}

void
Server::probeDownPeers(std::vector<Client> &peers)
{
    if (!peer_table_)
        return;
    RpcRequest req;
    req.op = RpcOp::Ping;
    req.deadline_ms = kReplPingDeadlineMs;
    for (std::size_t i = 0; i < peers.size(); ++i) {
        const PeerInfo info = peer_table_->info(i);
        if (info.state != PeerState::Down || info.retry_in_ms > 0)
            continue; // Up/Suspect heal via pushes; quarantine holds.
        {
            std::lock_guard<std::mutex> lock(repl_mu_);
            if (repl_stop_)
                return;
        }
        counters_.repl_probes.fetch_add(1, std::memory_order_relaxed);
        RpcResponse resp;
        std::string err;
        const bool ok =
            peers[i].call(req, resp, &err,
                          Deadline::in(kReplPingDeadlineMs)) &&
            resp.ok;
        if (ok) {
            peer_table_->reportSuccess(i);
            drainSpool(peers, i);
        } else {
            peers[i].disconnect();
            peer_table_->reportFailure(i); // Re-arms the quarantine.
        }
    }
}

void
Server::antiEntropy(std::vector<Client> &peers)
{
    if (!cache_ || !peer_table_)
        return;
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.repl_digest = true;
    req.repl_for = options_.fleet_index;
    req.machine_fp = machine_fp_;
    req.settings_fp = settings_fp_;
    req.deadline_ms = kReplPullDeadlineMs;
    for (std::size_t i = 0; i < peers.size(); ++i) {
        if (peer_table_->state(i) != PeerState::Up)
            continue; // Down/Suspect peers heal via probes first.
        {
            std::lock_guard<std::mutex> lock(repl_mu_);
            if (repl_stop_)
                return;
        }
        RpcResponse resp;
        std::string err;
        if (!peers[i].call(req, resp, &err,
                           Deadline::in(kReplPullDeadlineMs)) ||
            !resp.ok || !resp.repl_has_digest) {
            peers[i].disconnect();
            peer_table_->reportFailure(i);
            continue;
        }
        peer_table_->reportSuccess(i);
        AeState &ae = ae_[i];
        const bool changed = resp.repl_digest_fp != ae.last_fp ||
                             resp.repl_digest_count != ae.last_count;
        if (changed) {
            ae.last_fp = resp.repl_digest_fp;
            ae.last_count = resp.repl_digest_count;
            ae.full_done = false;
        }
        const auto [count, fp] = digestForSlot(options_.fleet_index);
        if (resp.repl_digest_count == count && resp.repl_digest_fp == fp)
            continue; // Converged with this peer.
        // Delta pull first: everything past our high-water sequence.
        // When the same mismatched digest survives a delta round, the
        // gap predates our cursor (a pre-sequence journal record, a
        // spool overflow absorbed long ago) — escalate once per digest
        // value to a full slot pull.
        const bool full = !changed && !ae.full_done;
        const std::int64_t applied = pullFromPeer(
            peers[i], full ? -1 : cache_->journalSeq(), true);
        if (full)
            ae.full_done = true;
        counters_.repl_ae_applied.fetch_add(applied,
                                            std::memory_order_relaxed);
    }
}

std::int64_t
Server::pullFromPeer(Client &peer, std::int64_t since, bool for_slot)
{
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.repl_pull = true;
    if (since > 0)
        req.repl_since = since;
    if (for_slot)
        req.repl_for = options_.fleet_index;
    req.machine_fp = machine_fp_;
    req.settings_fp = settings_fp_;
    req.deadline_ms = kReplPullDeadlineMs;
    RpcResponse resp;
    std::string err;
    if (!peer.call(req, resp, &err,
                   Deadline::in(kReplPullDeadlineMs)) ||
        !resp.ok)
        return 0;
    std::int64_t applied = 0;
    for (const RpcReplRecord &r : resp.repl_records) {
        if (r.key.machine_fp != machine_fp_ ||
            r.key.settings_fp != settings_fp_)
            continue; // Foreign identity never enters the cache.
        if (cache_->contains(r.key))
            continue;
        cache_->applyReplica(r.key, r.sol, r.seq);
        ++applied;
    }
    return applied;
}

std::pair<std::int64_t, std::uint64_t>
Server::digestForSlot(int slot) const
{
    const std::size_t n = repl_peers_.size() + 1;
    std::int64_t count = 0;
    std::uint64_t fp = 0;
    for (const SolutionCacheRecord &r : cache_->exportEntries()) {
        if (slot >= 0 &&
            !slotHoldsKey(r.key.hash(), n, options_.replication_factor,
                          static_cast<std::size_t>(slot) % n))
            continue;
        ++count;
        fp ^= mix64(r.key.hash()); // Order-independent fold.
    }
    return {count, fp};
}

void
Server::prefetchFromPeers()
{
    if (!cache_ || repl_peers_.empty())
        return;
    // Delta prefetch: the journal's high-water sequence survived the
    // restart, so ask each peer only for what came after it. A fresh
    // node (sequence 0) pulls everything — the old join behavior. No
    // slot filter: a rejoining node warms fully so it can serve any
    // key a client fails over to it with.
    const std::int64_t since = cache_->journalSeq();
    counters_.repl_prefetch_since.store(since,
                                        std::memory_order_relaxed);
    for (const RpcEndpoint &ep : repl_peers_) {
        Client peer(ep); // A peer that is down or too old pushes later.
        counters_.repl_prefetched.fetch_add(
            pullFromPeer(peer, since, /*for_slot=*/false),
            std::memory_order_relaxed);
    }
}

bool
Server::checkIdentity(const RpcRequest &req, RpcResponse &resp) const
{
    if (req.machine_fp && req.machine_fp != machine_fp_) {
        resp = rpcErrorResponse(
            "machine fingerprint mismatch: server optimizes for " +
            machine_.name + " (" + jsonHex16(machine_fp_) + ")");
        return false;
    }
    if (req.settings_fp && req.settings_fp != settings_fp_) {
        resp = rpcErrorResponse(
            "settings fingerprint mismatch: server solves with " +
            jsonHex16(settings_fp_));
        return false;
    }
    return true;
}

RpcResponse
Server::handle(const RpcRequest &req)
{
    // The client sends its *remaining* budget at send time; the clock
    // on it starts here. Network transit time is the client's margin
    // to keep (it knows its own absolute deadline, we don't).
    const Deadline dl = req.deadline_ms > 0
                            ? Deadline::in(req.deadline_ms)
                            : Deadline::never();
    try {
        switch (req.op) {
        case RpcOp::Solve: return handleSolve(req, dl);
        case RpcOp::SolveNetwork: return handleSolveNetwork(req, dl);
        case RpcOp::Stats: return handleStats();
        case RpcOp::Replicate: return handleReplicate(req);
        case RpcOp::Ping: return handlePing();
        case RpcOp::Shutdown: {
            RpcResponse resp;
            resp.ok = true;
            resp.op = RpcOp::Shutdown;
            return resp;
        }
        }
        return rpcErrorResponse("unhandled op");
    } catch (const DeadlineExceeded &e) {
        // Machine-readable: the client's own budget ran out, which is
        // not the server's failure — retrying with the same budget on
        // a warmer cache may well succeed.
        counters_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
        return rpcErrorResponse(e.what(),
                                RpcErrorCode::DeadlineExceeded);
    } catch (const FatalError &e) {
        // User-level failures (unknown network name, ...) belong on
        // the wire, not in the server's lap.
        return rpcErrorResponse(e.what());
    }
}

RpcResponse
Server::handleSolve(const RpcRequest &req, const Deadline &dl)
{
    RpcResponse resp;
    if (!checkIdentity(req, resp))
        return resp;
    resp.ok = true;
    resp.op = RpcOp::Solve;
    // The scheduler handles the whole miss path: cache lookup,
    // coalescing with any in-flight solve of this key (this worker
    // then blocks on the shared future), or a fresh bounded-
    // concurrency solve. A coalesced request reports a miss with
    // zero solve time — the flight's leader paid for it. The wait is
    // deadline-bounded; an abandoned flight still lands in the cache.
    const SolveTicket ticket = scheduler_.submit(req.problem);
    ScheduledSolve r;
    if (!ticket.waitFor(dl, r))
        throw DeadlineExceeded("solve ran past its deadline");
    resp.solve =
        RpcSolveResult{std::move(r.key), std::move(r.sol), r.cache_hit};
    resp.solve_seconds = r.solve_seconds;
    return resp;
}

RpcResponse
Server::handleSolveNetwork(const RpcRequest &req, const Deadline &dl)
{
    RpcResponse resp;
    if (!checkIdentity(req, resp))
        return resp;
    // Name or inline IR, at the request's batch size: an absent wire
    // batch is 1, so legacy name-only requests keep their semantics.
    NetworkDef def = req.has_ir ? req.ir : networkDefByName(req.net);
    def.batch = req.batch;
    const std::vector<ConvProblem> net = def.lower();

    // No lock: the optimizer submits its miss groups to the shared
    // scheduler, so concurrent network solves pipeline and their
    // overlapping shapes coalesce fleet-wide. Throws DeadlineExceeded
    // past dl (handle() turns that into the wire code).
    const NetworkPlan plan = optimizer_.optimize(net, dl);
    resp.ok = true;
    resp.op = RpcOp::SolveNetwork;
    resp.plan_text = plan.str();
    resp.unique_shapes =
        static_cast<std::int64_t>(plan.stats.unique_shapes);
    resp.cache_hits = static_cast<std::int64_t>(plan.stats.cache_hits);
    resp.cache_misses =
        static_cast<std::int64_t>(plan.stats.cache_misses);
    resp.solver_evals = plan.stats.solver_evals;
    resp.solve_seconds = plan.stats.solve_seconds;
    resp.layers.reserve(plan.layers.size());
    for (const LayerPlan &lp : plan.layers) {
        RpcSolveResult r;
        r.key = CacheKey::make(lp.problem, machine_, opts_);
        r.sol = CachedSolution{lp.best.config,
                               lp.best.predicted.total_seconds,
                               lp.best.perm_label};
        r.cache_hit = lp.cache_hit;
        resp.layers.push_back(std::move(r));
    }
    return resp;
}

RpcResponse
Server::handleStats()
{
    RpcResponse resp;
    resp.ok = true;
    resp.op = RpcOp::Stats;
    resp.machine_fp = machine_fp_;
    resp.settings_fp = settings_fp_;
    resp.machine_name = machine_.name;
    if (cache_) {
        resp.cache = cache_->stats();
        resp.entries = static_cast<std::int64_t>(cache_->size());
        resp.shards = cache_->shardCount();
        for (const SolutionCacheEntryStats &e : cache_->entryStats())
            resp.entry_hits.push_back(
                RpcEntryHits{e.key.str(), e.hits});
    }
    const SolveSchedulerStats ss = scheduler_.stats();
    resp.sched_solves = ss.solves;
    resp.sched_coalesced = ss.coalesced;
    resp.sched_inflight = ss.in_flight;
    resp.sched_peak = ss.peak_concurrency;
    resp.sched_budget = scheduler_.concurrency();
    resp.srv_shed_overload =
        counters_.shed_overload.load(std::memory_order_relaxed);
    resp.srv_shed_client =
        counters_.shed_client.load(std::memory_order_relaxed);
    resp.srv_shed_deadline =
        counters_.shed_deadline.load(std::memory_order_relaxed);
    resp.srv_repl_pushed =
        counters_.repl_pushed.load(std::memory_order_relaxed);
    resp.srv_repl_push_failed =
        counters_.repl_push_failed.load(std::memory_order_relaxed);
    resp.srv_repl_applied =
        counters_.repl_applied.load(std::memory_order_relaxed);
    resp.srv_repl_prefetched =
        counters_.repl_prefetched.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(repl_mu_);
        resp.repl_queue_depth =
            static_cast<std::int64_t>(repl_queue_.size());
    }
    if (cache_)
        resp.journal_seq = cache_->journalSeq();
    resp.calib_samples = options_.calib_samples;
    resp.calib_active = options_.calib_active ? 1 : 0;
    return resp;
}

RpcResponse
Server::handlePing() const
{
    // Pure liveness: answered without identity checks, so a fleet
    // membership probe works even across a misconfigured identity
    // (the pushes themselves would still be refused).
    RpcResponse resp;
    resp.ok = true;
    resp.op = RpcOp::Ping;
    return resp;
}

RpcResponse
Server::handleReplicate(const RpcRequest &req)
{
    RpcResponse resp;
    if (!checkIdentity(req, resp))
        return resp;
    resp.ok = true;
    resp.op = RpcOp::Replicate;
    if (req.repl_digest) {
        // Anti-entropy digest: (count, XOR of mixed key hashes) over
        // the entries the *requester's* ring slot should hold, so
        // both sides compare the same subset even at F < fleet size.
        // No "for" = the whole cache (an F = all requester).
        resp.repl_has_digest = true;
        if (cache_) {
            const auto [count, fp] =
                digestForSlot(static_cast<int>(req.repl_for));
            resp.repl_digest_count = count;
            resp.repl_digest_fp = fp;
        }
        return resp;
    }
    if (req.repl_pull) {
        // Pull: everything we hold, optionally only records newer
        // than the requester's journal cursor ("since") and only its
        // ring slot's subset ("for"); it filters by identity and
        // applies what it is missing.
        resp.repl_is_pull = true;
        if (cache_) {
            const std::size_t n = repl_peers_.size() + 1;
            for (const SolutionCacheRecord &r :
                 cache_->exportEntries(req.repl_since)) {
                if (req.repl_for >= 0 &&
                    !slotHoldsKey(
                        r.key.hash(), n, options_.replication_factor,
                        static_cast<std::size_t>(req.repl_for) % n))
                    continue;
                RpcReplRecord rec;
                rec.key = r.key;
                rec.sol = r.sol;
                rec.seq = r.seq;
                resp.repl_records.push_back(std::move(rec));
            }
        }
        return resp;
    }
    // Push form: take the record if it is ours and new. The record's
    // own fingerprints are checked (not just the request envelope's):
    // a misconfigured peer must not seed us with foreign plans.
    if (req.repl_key.machine_fp != machine_fp_ ||
        req.repl_key.settings_fp != settings_fp_)
        return rpcErrorResponse(
            "replicate: record fingerprint does not match this "
            "server's identity");
    if (cache_ && !cache_->contains(req.repl_key)) {
        // applyReplica absorbs the origin's sequence into our journal
        // high-water mark, so fleet sequences stay loosely comparable
        // and a later delta pull starts past this record.
        cache_->applyReplica(req.repl_key, req.repl_sol, req.repl_seq);
        resp.repl_applied = 1;
        counters_.repl_applied.fetch_add(1, std::memory_order_relaxed);
    }
    return resp;
}

} // namespace mopt
