#include "support/faultline.hh"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "common/logging.hh"
#include "support/tcp_accept.hh"

namespace mopt {

namespace {

/** Poll granularity of the pump loops: small enough that stop() is
 *  prompt, large enough not to spin. */
constexpr long kPumpSliceMs = 50;

} // namespace

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Delay: return "delay";
    case FaultKind::Drop: return "drop";
    case FaultKind::PartialWrite: return "partial_write";
    case FaultKind::Garbage: return "garbage";
    case FaultKind::Blackhole: return "blackhole";
    case FaultKind::Flapping: return "flapping";
    }
    panic("faultKindName: bad kind");
}

FaultlineProxy::FaultlineProxy(FaultlineOptions options)
    : options_(std::move(options))
{}

FaultlineProxy::~FaultlineProxy()
{
    stop();
}

bool
FaultlineProxy::start(std::string *err)
{
    if (!listener_.listenOn("127.0.0.1", 0, err))
        return false;
    flap_epoch_ = std::chrono::steady_clock::now();
    started_.store(true, std::memory_order_release);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
FaultlineProxy::stop()
{
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;
    // The accept loop waits in kPumpSliceMs slices and observes
    // stopping_; the listener closes once it has returned.
    if (accept_thread_.joinable())
        accept_thread_.join();
    listener_.close();
    std::vector<std::thread> pumps;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pumps.swap(pumps_);
    }
    // Pump loops poll in kPumpSliceMs slices and observe stopping_,
    // so the join is bounded.
    for (std::thread &t : pumps)
        if (t.joinable())
            t.join();
}

FaultlineStats
FaultlineProxy::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
FaultlineProxy::acceptLoop()
{
    Rng schedule_rng(options_.seed);
    std::int64_t index = 0;
    while (!stopping_.load(std::memory_order_acquire)) {
        bool timed_out = false;
        TcpSocket client = acceptBefore(
            listener_, Deadline::in(kPumpSliceMs), &timed_out);
        if (timed_out)
            continue;
        if (!client.valid())
            return; // The listener failed.
        FaultKind kind = FaultKind::None;
        if (!options_.schedule.empty())
            kind = options_.schedule[static_cast<std::size_t>(
                index % static_cast<std::int64_t>(
                            options_.schedule.size()))];
        ++index;
        // Each connection gets an independent deterministic stream:
        // same seed + same accept order = same garbage bytes.
        Rng conn_rng(schedule_rng.next() ^ 0xa02bdbf7bb3c0a7ull);
        std::lock_guard<std::mutex> lock(mu_);
        stats_.connections++;
        switch (kind) {
        case FaultKind::None: break;
        case FaultKind::Delay: stats_.delays++; break;
        case FaultKind::Drop: stats_.drops++; break;
        case FaultKind::PartialWrite: stats_.partial_writes++; break;
        case FaultKind::Garbage: stats_.garbage++; break;
        case FaultKind::Blackhole: stats_.blackholes++; break;
        case FaultKind::Flapping: stats_.flapping++; break;
        }
        if (kind != FaultKind::None)
            stats_.faults++;
        pumps_.emplace_back(
            [this, kind, conn_rng](TcpSocket c) mutable {
                runConnection(std::move(c), kind, conn_rng);
            },
            std::move(client));
    }
}

bool
FaultlineProxy::flapDown() const
{
    const long up = options_.flap_up_ms;
    const long down = options_.flap_down_ms;
    if (up <= 0 || down <= 0)
        return false; // Degenerate duty cycle: never down.
    const long elapsed = static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - flap_epoch_)
            .count());
    return elapsed % (up + down) >= up;
}

void
FaultlineProxy::runConnection(TcpSocket client, FaultKind kind, Rng rng)
{
    if (kind == FaultKind::Flapping && flapDown())
        return; // Down window: refuse by closing, like a dead peer.
    if (kind == FaultKind::Blackhole) {
        // Swallow everything, answer nothing, hold the connection
        // open: the peer's only way out is its own deadline.
        char buf[4096];
        while (!stopping_.load(std::memory_order_acquire)) {
            const long n = client.recvSome(
                buf, sizeof(buf), Deadline::in(kPumpSliceMs));
            if (n == 0 || n == -1)
                return; // Peer gave up.
        }
        return;
    }

    std::string err;
    TcpSocket server = TcpSocket::connectTo(
        options_.upstream_host, options_.upstream_port, &err,
        Deadline::in(5000));
    if (!server.valid()) {
        logWarn("faultline: upstream connect failed: ", err);
        return; // Client sees the close — an honest connection drop.
    }
    pump(client, server, kind, rng);
}

void
FaultlineProxy::pump(TcpSocket &client, TcpSocket &server,
                     FaultKind kind, Rng &rng)
{
    char buf[4096];
    while (!stopping_.load(std::memory_order_acquire)) {
        if (kind == FaultKind::Flapping && flapDown())
            return; // The peer just went down, mid-stream.
        // Alternate short-deadline reads on both directions. Not as
        // slick as one poll over both fds, but the pump is test
        // infrastructure and kPumpSliceMs bounds the added latency.
        long n = client.recvSome(buf, sizeof(buf),
                                 Deadline::in(kPumpSliceMs));
        if (n > 0) {
            // Request path is always forwarded verbatim (the faults
            // under test are response-side; a dead request path is
            // just Blackhole).
            if (kind == FaultKind::Delay)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(options_.delay_ms));
            if (!server.sendAll(
                    std::string(buf, static_cast<std::size_t>(n))))
                return;
        } else if (n == 0 || n == -1) {
            return; // Client closed; cut both (RAII).
        }

        n = server.recvSome(buf, sizeof(buf),
                            Deadline::in(kPumpSliceMs));
        if (n == 0 || n == -1)
            return; // Server closed.
        if (n == TcpSocket::kTimedOut)
            continue;
        const std::string chunk(buf, static_cast<std::size_t>(n));
        switch (kind) {
        case FaultKind::None:
            if (!client.sendAll(chunk))
                return;
            break;
        case FaultKind::Delay:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options_.delay_ms));
            if (!client.sendAll(chunk))
                return;
            break;
        case FaultKind::Drop:
            // The server did the work; the answer dies here.
            return;
        case FaultKind::PartialWrite:
            // Torn frame, then the cut.
            client.sendAll(chunk.substr(
                0, std::min(options_.partial_bytes, chunk.size())));
            return;
        case FaultKind::Garbage: {
            // A line of printable junk: definitely a frame, definitely
            // not JSON — the parser must reject it, the client must
            // drop the stream.
            std::string junk;
            junk.reserve(32);
            for (int i = 0; i < 24; ++i)
                junk.push_back(static_cast<char>(
                    rng.uniformInt('!', '~')));
            junk.push_back('\n');
            client.sendAll(junk);
            return;
        }
        case FaultKind::Blackhole:
            return; // Unreachable (handled before connect).
        case FaultKind::Flapping:
            // Up window: transparent (the loop head cuts the down
            // windows).
            if (!client.sendAll(chunk))
                return;
            break;
        }
    }
}

} // namespace mopt
