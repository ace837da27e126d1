#include "coherence.hh"

#include <bit>

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

const char *
coherenceModeName(CoherenceMode m)
{
    switch (m) {
      case CoherenceMode::Off:
        return "off";
      case CoherenceMode::HdmH:
        return "hdm-h";
      case CoherenceMode::HdmD:
        return "hdm-d";
    }
    return "?";
}

std::optional<CoherenceMode>
coherenceModeFromName(const std::string &s)
{
    if (s == "off")
        return CoherenceMode::Off;
    if (s == "hdm-h" || s == "hdmh")
        return CoherenceMode::HdmH;
    if (s == "hdm-d" || s == "hdmd")
        return CoherenceMode::HdmD;
    return std::nullopt;
}

const char *
mesiStateName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

uint32_t
LineInfo::sharerCount() const
{
    return uint32_t(std::popcount(sharers));
}

CoherenceDirectory::CoherenceDirectory(mem::Machine &machine,
                                       CoherenceConfig cfg)
    : machine_(machine), cfg_(cfg)
{
    if (cfg_.mode == CoherenceMode::Off)
        sim::fatal("CoherenceDirectory constructed with mode off; the "
                   "owner must not build a directory at all");
    if (machine_.numNodes() > 64)
        sim::fatal("coherence directory sharer bitmask supports at most "
                   "64 nodes");
    sim::MetricsRegistry &m = machine_.metrics();
    lookups_ = &m.counter("cxl.coherence.lookups");
    invalidations_ = &m.counter("cxl.coherence.invalidations");
    writebacks_ = &m.counter("cxl.coherence.writebacks");
    flushes_ = &m.counter("cxl.coherence.flushes");
    swInvalidates_ = &m.counter("cxl.coherence.sw_invalidates");
    staleReads_ = &m.counter("cxl.coherence.stale_reads");
    evictions_ = &m.counter("cxl.coherence.evictions");
    lineResets_ = &m.counter("cxl.coherence.line_resets");
    crashCleanups_ = &m.counter("cxl.coherence.crash_cleanups");
    taxNs_ = &m.counter("cxl.coherence.tax_ns");
    machine_.installCoherence(this);
}

CoherenceDirectory::~CoherenceDirectory()
{
    if (machine_.coherence() == this)
        machine_.installCoherence(nullptr);
}

uint64_t
CoherenceDirectory::lineIndexOf(mem::PhysAddr addr) const
{
    return machine_.cxl().frameNumber(addr);
}

CoherenceDirectory::Line *
CoherenceDirectory::liveLine(uint64_t idx)
{
    // Touched <=> tracked: the dense touched bits answer for a line
    // with no state without loading the line.
    return lines_.find(idx);
}

const CoherenceDirectory::Line *
CoherenceDirectory::liveLine(uint64_t idx) const
{
    return lines_.find(idx);
}

CoherenceDirectory::Line &
CoherenceDirectory::lineAt(uint64_t idx, uint64_t initialVisible)
{
    if (Line *line = lines_.find(idx))
        return *line;
    Line &line = lines_.at(idx);
    line.visible = initialVisible;
    line.device = initialVisible;
    ++tracked_;
    return line;
}

void
CoherenceDirectory::forgetLine(uint64_t idx, Line &line)
{
    for (TokenKind k : {TokenKind::Pending, TokenKind::Cached}) {
        for (uint64_t m = maskOf(line, k); m; m &= m - 1)
            tokens_.erase(tokenKey(idx, mem::NodeId(std::countr_zero(m)), k));
    }
    line = Line{};
    lines_.untouch(idx);
    --tracked_;
}

void
CoherenceDirectory::setToken(uint64_t idx, Line &line, mem::NodeId n,
                             TokenKind k, uint64_t value)
{
    tokens_[tokenKey(idx, n, k)] = value;
    (k == TokenKind::Pending ? line.pendingMask : line.cachedMask) |=
        1ull << n;
}

uint64_t
CoherenceDirectory::tokenOf(uint64_t idx, mem::NodeId n, TokenKind k) const
{
    return tokens_.at(tokenKey(idx, n, k));
}

void
CoherenceDirectory::dropToken(uint64_t idx, Line &line, mem::NodeId n,
                              TokenKind k)
{
    uint64_t &mask =
        k == TokenKind::Pending ? line.pendingMask : line.cachedMask;
    if (mask >> n & 1) {
        mask &= ~(1ull << n);
        tokens_.erase(tokenKey(idx, n, k));
    }
}

void
CoherenceDirectory::charge(sim::SimClock &clock, sim::SimTime t)
{
    clock.advance(t);
    taxNs_->inc(uint64_t(t.toNs()));
}

void
CoherenceDirectory::queueFabric(mem::PhysAddr addr, mem::NodeId issuer,
                                uint64_t bytes, sim::SimClock &clock,
                                const char *site)
{
    machine_.chargePort(clock, site, issuer, addr, /*isRead=*/false, bytes);
}

void
CoherenceDirectory::dropSharer(uint64_t idx, Line &line, mem::NodeId n)
{
    line.sharers &= ~(1ull << n);
    dropToken(idx, line, n, TokenKind::Cached);
    dropToken(idx, line, n, TokenKind::Pending);
    if (line.owner == int(n))
        line.owner = -1;
    settle(line);
}

void
CoherenceDirectory::settle(Line &line)
{
    if (line.pendingMask) {
        // HDM-D: unflushed data keeps the line dirty. The owner is the
        // (deterministically) lowest-numbered pending writer.
        line.state = MesiState::Modified;
        if (line.owner < 0 || !(line.pendingMask >> line.owner & 1))
            line.owner = std::countr_zero(line.pendingMask);
        return;
    }
    if (line.sharers == 0) {
        line.state = MesiState::Invalid;
        line.owner = -1;
        return;
    }
    if (line.state == MesiState::Modified && line.owner >= 0 &&
        (line.sharers >> line.owner & 1)) {
        // A clean sharer-set shrink never demotes a live owner's M.
        return;
    }
    if (std::popcount(line.sharers) == 1) {
        line.state = MesiState::Exclusive;
        line.owner = std::countr_zero(line.sharers);
    } else {
        line.state = MesiState::Shared;
        line.owner = -1;
    }
}

uint64_t
CoherenceDirectory::read(mem::PhysAddr addr, mem::NodeId n,
                         uint64_t deviceContent, sim::SimClock &clock,
                         const char *site)
{
    const sim::CostParams &c = machine_.costs();
    lookups_->inc();
    charge(clock, c.cohLookup);
    machine_.faults().crashPoint("coherence.read");
    const uint64_t idx = lineIndexOf(addr);
    Line &line = lineAt(idx, deviceContent);
    line.device = deviceContent;
    const uint64_t bit = 1ull << n;

    if (cfg_.mode == CoherenceMode::HdmH) {
        // Hardware coherence: the home agent resolves the access, so
        // the reader always observes the device token; the interesting
        // part is the state walk and its cost.
        line.visible = deviceContent;
        switch (line.state) {
          case MesiState::Invalid:
            line.state = MesiState::Exclusive;
            line.owner = int(n);
            line.sharers = bit;
            break;
          case MesiState::Exclusive:
          case MesiState::Shared:
            if (!(line.sharers & bit)) {
                line.sharers |= bit;
                line.state = MesiState::Shared;
                line.owner = -1;
            }
            break;
          case MesiState::Modified:
            if (line.owner != int(n)) {
                // Remote read of a dirty line: the owner writes back
                // and both end up sharers of the clean line.
                writebacks_->inc();
                charge(clock, c.cohWriteback);
                queueFabric(addr, mem::NodeId(line.owner), c.pageSize,
                            clock, "coherence.read.wb");
                line.state = MesiState::Shared;
                line.sharers |= bit;
                line.owner = -1;
            }
            break;
        }
        return deviceContent;
    }

    // HDM-D: store forwarding first — a writer observes its own
    // unflushed store.
    line.sharers |= bit;
    settle(line);
    uint64_t observed;
    if (line.pendingMask & bit) {
        observed = tokenOf(idx, n, TokenKind::Pending);
    } else if (line.cachedMask & bit) {
        // The reader already holds a copy; without an invalidate it
        // keeps observing it, however stale.
        observed = tokenOf(idx, n, TokenKind::Cached);
    } else {
        observed = line.visible;
        setToken(idx, line, n, TokenKind::Cached, observed);
    }
    if (observed != deviceContent) {
        staleReads_->inc();
        CXLF_DEBUG("coherence: node %u read stale %#llx (device %#llx) "
                   "at %s",
                   n, (unsigned long long)observed,
                   (unsigned long long)deviceContent, site);
    }
    return observed;
}

void
CoherenceDirectory::write(mem::PhysAddr addr, mem::NodeId n,
                          uint64_t newContent, uint64_t oldContent,
                          sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    lookups_->inc();
    charge(clock, c.cohLookup);
    machine_.faults().crashPoint("coherence.write");
    const uint64_t idx = lineIndexOf(addr);
    Line &line = lineAt(idx, oldContent);
    line.device = newContent;
    const uint64_t bit = 1ull << n;

    if (cfg_.mode == CoherenceMode::HdmH) {
        // Back-invalidate every other sharer; a dirty remote owner
        // writes back before surrendering the line.
        if (line.state == MesiState::Modified && line.owner != int(n)) {
            writebacks_->inc();
            charge(clock, c.cohWriteback);
            queueFabric(addr, mem::NodeId(line.owner), c.pageSize, clock,
                        "coherence.write.wb");
        }
        const uint64_t others = line.sharers & ~bit;
        const uint32_t k = uint32_t(std::popcount(others));
        if (k) {
            invalidations_->inc(k);
            charge(clock, c.cohBackInvalidate * double(k));
            // One invalidation message per remote sharer; each queues
            // behind whatever data is in flight on the line's domain.
            for (uint32_t i = 0; i < k; ++i)
                queueFabric(addr, n, c.cachelineSize, clock,
                            "coherence.write.binv");
        }
        // HDM-H never holds tokens (the audit checks it), so the line
        // has no pending or cached state to discard here.
        line.state = MesiState::Modified;
        line.owner = int(n);
        line.sharers = bit;
        line.visible = newContent;
        return;
    }

    // HDM-D: the store sits in the writer's buffer until flushed.
    // Other nodes' cached copies are untouched — invalidating them is
    // software's job.
    setToken(idx, line, n, TokenKind::Pending, newContent);
    line.sharers |= bit;
    line.state = MesiState::Modified;
    line.owner = int(n);
}

void
CoherenceDirectory::flush(mem::PhysAddr addr, mem::NodeId n,
                          sim::SimClock &clock)
{
    if (cfg_.elideFlushes)
        return;
    const sim::CostParams &c = machine_.costs();
    flushes_->inc();
    charge(clock, c.cohFlush);
    machine_.faults().crashPoint("coherence.flush");
    const uint64_t idx = lineIndexOf(addr);
    Line *line = liveLine(idx);
    if (!line)
        return;
    if (cfg_.mode == CoherenceMode::HdmH) {
        // Flush of a hardware-coherent line: a dirty owner writes back
        // and keeps the line Exclusive-clean.
        if (line->state == MesiState::Modified && line->owner == int(n)) {
            writebacks_->inc();
            charge(clock, c.cohWriteback);
            queueFabric(addr, n, c.pageSize, clock, "coherence.flush.wb");
            line->state = MesiState::Exclusive;
        }
        return;
    }
    if (line->pendingMask >> n & 1) {
        writebacks_->inc();
        charge(clock, c.cohWriteback);
        queueFabric(addr, n, c.pageSize, clock, "coherence.flush.wb");
        const uint64_t stored = tokenOf(idx, n, TokenKind::Pending);
        line->visible = stored;
        // The flusher's own cached view tracks what it just published.
        setToken(idx, *line, n, TokenKind::Cached, stored);
        dropToken(idx, *line, n, TokenKind::Pending);
        // The flusher surrenders dirty ownership; settle() re-derives
        // E/S from the remaining sharers (or M if other writers still
        // hold pending stores).
        if (line->owner == int(n))
            line->owner = -1;
        settle(*line);
    }
}

void
CoherenceDirectory::invalidate(mem::PhysAddr addr, mem::NodeId n,
                               sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    swInvalidates_->inc();
    charge(clock, c.cohFlush);
    const uint64_t idx = lineIndexOf(addr);
    // Drop the node's clean cached copy; its own unflushed store (if
    // any) survives — invalidation is not a discard of dirty data.
    if (Line *line = liveLine(idx))
        dropToken(idx, *line, n, TokenKind::Cached);
}

void
CoherenceDirectory::evict(mem::PhysAddr addr, mem::NodeId n,
                          sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    evictions_->inc();
    charge(clock, c.cohLookup);
    const uint64_t idx = lineIndexOf(addr);
    Line *line = liveLine(idx);
    if (!line)
        return;
    if (cfg_.mode == CoherenceMode::HdmH &&
        line->state == MesiState::Modified && line->owner == int(n)) {
        // Evicting a dirty line writes it back first.
        writebacks_->inc();
        charge(clock, c.cohWriteback);
        queueFabric(addr, n, c.pageSize, clock, "coherence.evict.wb");
    }
    // An unflushed store dies with the eviction, but the line must
    // survive it — even across later clean evictions by other nodes:
    // the device copy already holds the never-flushed bytes
    // (Frame::content is eagerly updated), and only the line's
    // `visible` token keeps masking them from readers. droppable()
    // permits forgetting it only once visible and device agree again.
    dropSharer(idx, *line, n);
    if (line->droppable())
        forgetLine(idx, *line);
}

void
CoherenceDirectory::lineFreed(mem::PhysAddr addr)
{
    if (cfg_.elideResetOnFree)
        return;
    const uint64_t idx = lineIndexOf(addr);
    if (Line *line = liveLine(idx)) {
        forgetLine(idx, *line);
        lineResets_->inc();
    }
}

void
CoherenceDirectory::onNodeCrash(mem::NodeId n, sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    const uint64_t bit = 1ull << n;
    lines_.forEach([&](uint64_t idx, Line &line) {
        if ((line.sharers | line.pendingMask | line.cachedMask) & bit) {
            crashCleanups_->inc();
            // One back-invalidation round per line the crashed node
            // touched: survivors' caches of lines it owned must drop.
            charge(clock, c.cohBackInvalidate);
            // Home-agent-issued cleanup traffic (the dead node cannot
            // issue); rides the device pseudo-issuer on the queue.
            queueFabric(machine_.cxl().frameAddress(idx), mem::kInvalidNode,
                        c.cachelineSize, clock, "coherence.crash.binv");
            dropSharer(idx, line, n);
        }
        // Same retention rule as evict(): while a discarded store
        // leaves visible != device, the line must stay tracked so
        // `visible` keeps masking the dead node's bytes from
        // survivors.
        if (line.droppable())
            forgetLine(idx, line);
    });
}

std::vector<mem::PhysAddr>
CoherenceDirectory::pendingLines(mem::NodeId n) const
{
    std::vector<mem::PhysAddr> out;
    lines_.forEach([&](uint64_t idx, const Line &line) {
        if (line.pendingMask >> n & 1)
            out.push_back(machine_.cxl().frameAddress(idx));
    });
    return out;
}

LineInfo
CoherenceDirectory::lineInfo(mem::PhysAddr addr) const
{
    LineInfo info;
    const Line *line = liveLine(lineIndexOf(addr));
    if (!line)
        return info;
    info.state = line->state;
    info.owner = line->owner;
    info.sharers = line->sharers;
    info.pendingStore = line->pendingMask != 0;
    return info;
}

std::optional<std::string>
CoherenceDirectory::auditInvariants() const
{
    std::optional<std::string> bad;
    uint64_t maskBits = 0;
    lines_.forEach([&](uint64_t idx, const Line &line) {
        if (bad)
            return;
        auto fail = [&](const char *why) {
            bad = sim::format("coherence line %llu (%s, owner %d, "
                              "sharers %#llx): %s",
                              (unsigned long long)idx,
                              mesiStateName(line.state), line.owner,
                              (unsigned long long)line.sharers, why);
        };
        switch (line.state) {
          case MesiState::Invalid:
            if (line.sharers != 0)
                return fail("Invalid line has sharers");
            if (line.owner != -1)
                return fail("Invalid line has an owner");
            if (line.pendingMask)
                return fail("Invalid line has pending stores");
            break;
          case MesiState::Shared:
            if (line.sharers == 0)
                return fail("Shared line has no sharers");
            if (line.owner != -1)
                return fail("Shared line has an owner");
            break;
          case MesiState::Exclusive:
            if (std::popcount(line.sharers) != 1)
                return fail("Exclusive line sharer count != 1");
            if (line.owner < 0 || !(line.sharers >> line.owner & 1))
                return fail("Exclusive owner not the sole sharer");
            break;
          case MesiState::Modified:
            if (line.owner < 0 || !(line.sharers >> line.owner & 1))
                return fail("Modified owner missing from sharers");
            if (cfg_.mode == CoherenceMode::HdmH &&
                std::popcount(line.sharers) != 1) {
                return fail("HDM-H Modified line has extra sharers");
            }
            break;
        }
        if (cfg_.mode == CoherenceMode::HdmH) {
            if (line.pendingMask)
                return fail("HDM-H line has pending stores");
            if (line.cachedMask)
                return fail("HDM-H line has cached copies");
        }
        for (TokenKind k : {TokenKind::Pending, TokenKind::Cached}) {
            for (uint64_t m = maskOf(line, k); m; m &= m - 1) {
                ++maskBits;
                const auto n = mem::NodeId(std::countr_zero(m));
                if (!tokens_.count(tokenKey(idx, n, k)))
                    return fail(k == TokenKind::Pending
                                    ? "pending node has no token"
                                    : "caching node has no token");
            }
        }
    });
    if (bad || tokens_.size() == maskBits)
        return bad;
    // Every mask bit has its token, so the surplus is stray tokens:
    // report the lowest-keyed one, independent of hash order.
    uint64_t stray = ~uint64_t(0);
    for (const auto &kv : tokens_) {
        const uint64_t key = kv.first;
        const Line *line = liveLine(key >> 7);
        const auto k = TokenKind(key & 1);
        if ((!line || !(maskOf(*line, k) >> (key >> 1 & 63) & 1)) &&
            key < stray)
            stray = key;
    }
    return sim::format("coherence line %llu: stray %s token for node %llu",
                       (unsigned long long)(stray >> 7),
                       (stray & 1) ? "cached" : "pending",
                       (unsigned long long)(stray >> 1 & 63));
}

} // namespace cxlfork::cxl
