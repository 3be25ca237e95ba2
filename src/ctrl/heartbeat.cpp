#include "ctrl/heartbeat.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/milliwatts.hpp"

namespace poco::ctrl
{

const char*
serverHealthName(ServerHealth health)
{
    switch (health) {
      case ServerHealth::Alive:   return "alive";
      case ServerHealth::Suspect: return "suspect";
      case ServerHealth::Dead:    return "dead";
    }
    return "?";
}

HeartbeatTracker::HeartbeatTracker(std::size_t servers,
                                   const HeartbeatConfig& config,
                                   Watts perServerGrant)
    : config_(config)
{
    POCO_REQUIRE(servers > 0, "tracker needs at least one server");
    POCO_REQUIRE(config.periodTicks > 0,
                 "heartbeat period must be positive");
    POCO_REQUIRE(config.jitterTicks >= 0,
                 "heartbeat jitter must be non-negative");
    POCO_REQUIRE(config.suspectMisses >= 1,
                 "suspectMisses must be at least 1");
    POCO_REQUIRE(config.deadMisses >= config.suspectMisses,
                 "deadMisses must be >= suspectMisses");
    POCO_REQUIRE(perServerGrant >= Watts{},
                 "grants must be non-negative");

    grant_mw_ = toMilliwatts(perServerGrant);
    total_mw_ =
        grant_mw_ * static_cast<std::int64_t>(servers);
    pool_mw_ = 0;

    const Rng root(config.seed);
    servers_.resize(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        ServerState& state = servers_[s];
        // Per-server stream keyed by the index: a server's cadence
        // is independent of how many servers the tracker covers.
        state.jitter = root.split(s);
        state.granted = true;
        ++stats_.registrations;
        state.next_beat = config_.periodTicks + jitter(state);
    }
}

SimTime
HeartbeatTracker::jitter(ServerState& s)
{
    if (config_.jitterTicks == 0)
        return 0;
    return static_cast<SimTime>(
        s.jitter.nextU64() %
        static_cast<std::uint64_t>(config_.jitterTicks + 1));
}

void
HeartbeatTracker::advanceTo(SimTime now)
{
    POCO_REQUIRE(now >= now_, "logical time must not go backwards");
    for (ServerState& s : servers_) {
        while (s.next_beat <= now) {
            if (!s.crashed) {
                ++stats_.beats;
                s.misses = 0;
                if (s.health == ServerHealth::Dead) {
                    // Re-registration: back on the ladder and back
                    // on the budget ledger, exactly once.
                    ++stats_.registrations;
                    if (!s.granted) {
                        s.granted = true;
                        pool_mw_ -= grant_mw_;
                    }
                }
                s.health = ServerHealth::Alive;
            } else {
                ++stats_.misses;
                ++s.misses;
                if (s.health == ServerHealth::Alive &&
                    s.misses >= config_.suspectMisses) {
                    s.health = ServerHealth::Suspect;
                    ++stats_.suspected;
                }
                if (s.health == ServerHealth::Suspect &&
                    s.misses >= config_.deadMisses) {
                    s.health = ServerHealth::Dead;
                    ++stats_.deaths;
                    // The one place a grant is freed; the flag makes
                    // a re-walk of the ladder free it at most once.
                    if (s.granted) {
                        s.granted = false;
                        pool_mw_ += grant_mw_;
                    }
                }
            }
            // The schedule ticks on whether or not the beat landed,
            // so jitter consumption is a pure function of time.
            s.next_beat += config_.periodTicks + jitter(s);
        }
    }
    now_ = now;
}

void
HeartbeatTracker::crash(std::size_t server)
{
    POCO_REQUIRE(server < servers_.size(), "server out of range");
    servers_[server].crashed = true;
}

void
HeartbeatTracker::recover(std::size_t server)
{
    POCO_REQUIRE(server < servers_.size(), "server out of range");
    servers_[server].crashed = false;
}

ServerHealth
HeartbeatTracker::health(std::size_t server) const
{
    POCO_REQUIRE(server < servers_.size(), "server out of range");
    return servers_[server].health;
}

std::vector<std::size_t>
HeartbeatTracker::placeableServers() const
{
    std::vector<std::size_t> alive;
    alive.reserve(servers_.size());
    for (std::size_t s = 0; s < servers_.size(); ++s)
        if (servers_[s].health != ServerHealth::Dead)
            alive.push_back(s);
    return alive;
}

Watts
HeartbeatTracker::pool() const
{
    return fromMilliwatts(pool_mw_);
}

Watts
HeartbeatTracker::granted(std::size_t server) const
{
    POCO_REQUIRE(server < servers_.size(), "server out of range");
    return servers_[server].granted ? fromMilliwatts(grant_mw_)
                                    : Watts{};
}

Watts
HeartbeatTracker::grantedTotal() const
{
    std::int64_t granted_mw = 0;
    for (const ServerState& s : servers_)
        if (s.granted)
            granted_mw += grant_mw_;
    return fromMilliwatts(granted_mw);
}

Watts
HeartbeatTracker::totalIssued() const
{
    return fromMilliwatts(total_mw_);
}

bool
HeartbeatTracker::conservesBudget() const
{
    std::int64_t granted_mw = 0;
    for (const ServerState& s : servers_)
        if (s.granted)
            granted_mw += grant_mw_;
    return pool_mw_ + granted_mw == total_mw_;
}

std::uint64_t
HeartbeatTracker::fingerprint() const
{
    std::uint64_t h = fnv::kOffset;
    for (const ServerState& s : servers_) {
        fnv::mixWord(h, static_cast<std::uint64_t>(s.next_beat));
        fnv::mixWord(h, static_cast<std::uint64_t>(s.misses));
        fnv::mixWord(h, static_cast<std::uint64_t>(s.crashed ? 1 : 0));
        fnv::mixWord(h, static_cast<std::uint64_t>(s.granted ? 1 : 0));
        fnv::mixWord(h, static_cast<std::uint64_t>(s.health));
    }
    fnv::mixWord(h, static_cast<std::uint64_t>(pool_mw_));
    fnv::mixWord(h, stats_.beats);
    fnv::mixWord(h, stats_.misses);
    fnv::mixWord(h, stats_.suspected);
    fnv::mixWord(h, stats_.deaths);
    fnv::mixWord(h, stats_.registrations);
    return h;
}

} // namespace poco::ctrl
