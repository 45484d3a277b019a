#include "rpc/server.hh"

#include <algorithm>
#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
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
      replicator_(cache_, machine_fp_, settings_fp_, options_, counters_),
      scheduler_(machine_, opts_, cache_,
                 [this] {
                     SolveSchedulerOptions so;
                     so.concurrency = options_.solve_concurrency;
                     if (!options_.replicate.empty())
                         so.on_insert = [this](const CacheKey &key,
                                               const CachedSolution &sol,
                                               std::int64_t seq) {
                             replicator_.enqueue(
                                 SolutionCacheRecord{key, sol, seq});
                         };
                     return so;
                 }()),
      optimizer_(machine_, opts_, cache_, &scheduler_)
{}

Server::~Server()
{
    stop();
    replicator_.stop();
    if (repl_thread_.joinable())
        repl_thread_.join();
    joinWorkers();
    if (epfd_ >= 0)
        ::close(epfd_);
    if (wake_rd_ >= 0)
        ::close(wake_rd_);
    if (wake_wr_ >= 0)
        ::close(wake_wr_);
    epfd_ = wake_rd_ = wake_wr_ = -1;
    // scheduler_ is destroyed after this body: its runners may still
    // fire on_insert, which replicator_ (declared first) now drops.
}

bool
Server::start(std::string *err)
{
    std::vector<RpcEndpoint> peers;
    try {
        if (!options_.replicate.empty())
            peers = parseEndpointList(options_.replicate);
    } catch (const FatalError &e) {
        if (err)
            *err = e.what();
        return false;
    }
    if (!listener_.listenOn(options_.host, options_.port, err))
        return false;
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    int fds[2] = {-1, -1};
    if (epfd_ < 0 || ::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        if (err)
            *err = "failed to set up the event loop (epoll/pipe)";
        if (epfd_ >= 0)
            ::close(epfd_);
        epfd_ = -1;
        listener_.close();
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

    if (!peers.empty()) {
        // Converge to warm before the first request can miss.
        replicator_.join(peers.size(), Replicator::clientTransport(peers));
        repl_thread_ = std::thread([this] { replicator_.run(); });
    }

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
    joinWorkers();
    return served;
}

void
Server::joinWorkers()
{
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
}

void
Server::stop()
{
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;
    wakeLoop(); // The loop closes the listener when it drains.
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
    while (!stopping()) {
        bool would_block = false;
        TcpSocket sock = listener_.tryAccept(&would_block);
        if (!sock.valid()) {
            if (!would_block)
                stop(); // A fatal accept error.
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
    }
    Conn *c = addConn(std::move(sock), EPOLLIN);
    if (c && !client_ip.empty()) {
        ++client_conns_[client_ip];
        c->client_ip = std::move(client_ip);
    }
}

Server::Conn *
Server::addConn(TcpSocket sock, std::uint32_t events)
{
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(sock),
                                       options_.max_request_bytes);
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0)
        return nullptr; // Cannot watch it; drop (RAII closes).
    conn->armed_events = events;
    return conns_.emplace(id, std::move(conn)).first->second.get();
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
    Conn *c = addConn(std::move(sock), 0);
    if (!c)
        return;
    c->read_closed = true; // Never read: answer and close.
    c->want_read = false;
    appendOutput(*c, bytes); // May destroy (fully flushed).
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
    listener_.close(); // Frees the port now, not at destruction.
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
    // Ops that read or write the cache serve only this identity.
    // Ping is pure liveness: a fleet membership probe works even
    // across a misconfigured identity (pushes would still be refused).
    RpcResponse resp;
    if ((req.op == RpcOp::Solve || req.op == RpcOp::SolveNetwork ||
         req.op == RpcOp::Replicate) &&
        !checkIdentity(req, resp))
        return resp;
    try {
        switch (req.op) {
        case RpcOp::Solve: return handleSolve(req, dl);
        case RpcOp::SolveNetwork: return handleSolveNetwork(req, dl);
        case RpcOp::Stats: return handleStats();
        case RpcOp::Replicate: return replicator_.answer(req);
        case RpcOp::Ping:
        case RpcOp::Shutdown:
            resp.ok = true;
            resp.op = req.op;
            return resp;
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
    RpcResponse resp;
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
        r.key = CacheKey::make(lp.problem, machine_fp_, settings_fp_);
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
    const auto get = [](const std::atomic<std::int64_t> &c) {
        return c.load(std::memory_order_relaxed);
    };
    resp.srv_shed_overload = get(counters_.shed_overload);
    resp.srv_shed_client = get(counters_.shed_client);
    resp.srv_shed_deadline = get(counters_.shed_deadline);
    resp.srv_repl_pushed = get(counters_.repl_pushed);
    resp.srv_repl_push_failed = get(counters_.repl_push_failed);
    resp.srv_repl_applied = get(counters_.repl_applied);
    resp.srv_repl_prefetched = get(counters_.repl_prefetched);
    resp.repl_queue_depth = replicator_.queueDepth();
    if (cache_)
        resp.journal_seq = cache_->journalSeq();
    resp.calib_samples = options_.calib_samples;
    resp.calib_active = options_.calib_active ? 1 : 0;
    return resp;
}

} // namespace mopt
