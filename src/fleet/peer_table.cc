#include "fleet/peer_table.hh"

#include "fleet/backoff.hh"

namespace mopt {

PeerTable::PeerTable(std::size_t n, PeerTableOptions options)
    : options_(options), n_(n), peers_(n), rng_(options.seed)
{
    if (options_.down_after < 1)
        options_.down_after = 1;
}

bool
PeerTable::isDown(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return peers_[i].state == PeerState::Down;
}

bool
PeerTable::offerable(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Peer &p = peers_[i];
    if (p.state != PeerState::Down)
        return true;
    return Clock::now() >= p.next_probe;
}

void
PeerTable::reportSuccess(std::size_t i)
{
    std::lock_guard<std::mutex> lock(mu_);
    Peer &p = peers_[i];
    p.state = PeerState::Up;
    p.failures = 0;
    p.down_rounds = 0;
}

void
PeerTable::reportFailure(std::size_t i)
{
    std::lock_guard<std::mutex> lock(mu_);
    Peer &p = peers_[i];
    ++p.failures;
    if (p.failures < options_.down_after) {
        p.state = PeerState::Suspect;
        return;
    }
    p.state = PeerState::Down;
    ++p.down_rounds;
    const long hold =
        backoffDelayMs(options_.probe_backoff_ms, p.down_rounds, rng_,
                       options_.probe_backoff_cap_ms, options_.jitter);
    p.next_probe = Clock::now() + std::chrono::milliseconds(hold);
}

PeerInfo
PeerTable::info(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Peer &p = peers_[i];
    PeerInfo out;
    out.state = p.state;
    out.failures = p.failures;
    if (p.state == PeerState::Down) {
        const Clock::time_point now = Clock::now();
        if (p.next_probe > now)
            out.retry_in_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    p.next_probe - now)
                    .count();
    }
    return out;
}

} // namespace mopt
