/**
 * @file
 * The fabric coherence directory: a MESI home agent over CXL lines.
 *
 * The simulated fabric is magically coherent by default — every load
 * sees every store instantly — which makes an entire class of
 * paper-relevant ordering bugs (missing flushes before publication,
 * reuse before shootdown, CoW breaks that leak stale sharers)
 * untestable. The directory closes that gap with two fidelity modes:
 *
 *  - HDM-H (hardware-managed coherence): the home agent resolves every
 *    access. Reads always observe the latest store; the model's job is
 *    *cost* fidelity — directory lookups, back-invalidations of remote
 *    sharers on writes, and writebacks when a Modified line is read
 *    remotely are charged through CostParams, and MESI per-line state
 *    (single owner in M/E, sharer bitmask in S) is tracked and
 *    auditable.
 *
 *  - HDM-D (software/device-managed coherence): stores land in the
 *    writing node's buffer and stay *invisible to other nodes* until
 *    that node issues an explicit flush; readers cache the first token
 *    they observe and keep serving it until they issue an explicit
 *    invalidate. A missing flush or invalidate is therefore observable
 *    wrong data — the litmus suite's negative controls assert exactly
 *    that — instead of silent luck.
 *
 * In both modes Frame::content remains the source of truth for the
 * actual bytes (dedup hashing, checksums, and host-side tooling are
 * unaffected); the directory only decides *visibility* and *cost*.
 * Disabled (CoherenceMode::Off ⇒ no directory is constructed) the tree
 * is bit-identical to one without this file.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/frame_table.hh"
#include "mem/machine.hh"
#include "sim/clock.hh"

namespace cxlfork::cxl {

/** Fidelity mode of the fabric coherence model. */
enum class CoherenceMode : uint8_t
{
    Off,   ///< No directory: magically coherent, zero cost (default).
    HdmH,  ///< Hardware-managed: always-fresh reads, honest MESI costs.
    HdmD,  ///< Software-managed: explicit flush/invalidate or stale data.
};

const char *coherenceModeName(CoherenceMode m);

/** Directory tunables. Off by default: no behavior change anywhere. */
struct CoherenceConfig
{
    CoherenceMode mode = CoherenceMode::Off;

    /**
     * Negative-control knob (tests only): software flushes become
     * no-ops, so HDM-D checkpoint publications never reach the device
     * and remote readers observe the stale zero token. Proves the
     * litmus oracle has teeth.
     */
    bool elideFlushes = false;

    /**
     * Negative-control knob (tests only): skip the directory line
     * reset when a frame is freed, so a reused frame can serve the
     * previous tenant's cached tokens — the shootdown-before-reuse
     * hazard made observable.
     */
    bool elideResetOnFree = false;
};

/** MESI stable states, home-agent view. */
enum class MesiState : uint8_t { Invalid, Shared, Exclusive, Modified };

const char *mesiStateName(MesiState s);

/** Introspection snapshot of one directory line (tests/diagnostics). */
struct LineInfo
{
    MesiState state = MesiState::Invalid;
    int owner = -1;            ///< Owning node in E/M; -1 otherwise.
    uint64_t sharers = 0;      ///< Bitmask of nodes holding the line.
    bool pendingStore = false; ///< HDM-D: unflushed dirty data exists.

    uint32_t sharerCount() const;
    bool hasSharer(mem::NodeId n) const { return sharers >> n & 1; }
};

/**
 * The MESI home-agent directory. Construction installs it as the
 * machine's CoherenceModel; destruction uninstalls it. One instance
 * per machine — Cluster/CxlFabric own it, or tests construct it
 * directly on the stack over a bare Machine.
 */
class CoherenceDirectory final : public mem::CoherenceModel
{
  public:
    CoherenceDirectory(mem::Machine &machine, CoherenceConfig cfg);
    ~CoherenceDirectory() override;

    CoherenceDirectory(const CoherenceDirectory &) = delete;
    CoherenceDirectory &operator=(const CoherenceDirectory &) = delete;

    CoherenceMode mode() const { return cfg_.mode; }
    const CoherenceConfig &config() const { return cfg_; }

    // mem::CoherenceModel
    uint64_t read(mem::PhysAddr addr, mem::NodeId n, uint64_t deviceContent,
                  sim::SimClock &clock, const char *site) override;
    void write(mem::PhysAddr addr, mem::NodeId n, uint64_t newContent,
               uint64_t oldContent, sim::SimClock &clock) override;
    void flush(mem::PhysAddr addr, mem::NodeId n,
               sim::SimClock &clock) override;
    void invalidate(mem::PhysAddr addr, mem::NodeId n,
                    sim::SimClock &clock) override;
    void evict(mem::PhysAddr addr, mem::NodeId n,
               sim::SimClock &clock) override;
    void lineFreed(mem::PhysAddr addr) override;

    /**
     * A node crashed: drop it from every line. Its unflushed HDM-D
     * stores are discarded whole — survivors keep observing the last
     * *published* token, never a torn or half-flushed one — and any
     * ownership it held is downgraded so the lines stay serviceable.
     */
    void onNodeCrash(mem::NodeId n, sim::SimClock &clock);

    /** Snapshot of a line's state (Invalid default for untracked). */
    LineInfo lineInfo(mem::PhysAddr addr) const;

    /**
     * Lines holding an unflushed HDM-D store from node `n`, in address
     * order. Recovery uses this *before* onNodeCrash: a structurally
     * complete checkpoint that references such a line was torn — its
     * data died in the node's cache — and must be reclaimed, never
     * completed and served stale.
     */
    std::vector<mem::PhysAddr> pendingLines(mem::NodeId n) const;

    /**
     * Check every MESI invariant over every tracked line: owner set
     * and a member of the sharer set in E/M, exactly one sharer in E
     * (and in M under HDM-H), empty sharer set in I, no pending
     * stores or cached copies at all under HDM-H, and exactly one
     * HDM-D token per pending/cached node with no stray tokens.
     * @return the first violation, or nullopt when clean.
     */
    std::optional<std::string> auditInvariants() const;

    /** Lines with live directory state (diagnostics). */
    uint64_t trackedLines() const { return tracked_; }

  private:
    /** Tests plant invariant violations no public call can produce. */
    friend struct CoherenceDirectoryTestAccess;

    /**
     * Per-line home-agent state. HDM-D visibility model: `visible` is
     * what a fresh reader observes; each node in `pendingMask` holds an
     * unflushed store (the writer reads its own pending — store
     * forwarding); each node in `cachedMask` pins the token it first
     * observed until it invalidates. The tokens themselves live in
     * tokens_, which only HDM-D touches.
     */
    struct Line
    {
        uint64_t sharers = 0;
        uint64_t pendingMask = 0;
        uint64_t cachedMask = 0;
        uint64_t visible = 0;
        /**
         * Mirror of the device token (Frame::content, eagerly updated
         * by every store). A quiescent line may only be dropped from
         * the directory when visible == device: after an eviction or
         * crash discarded an unflushed store, the two differ, and only
         * the retained `visible` keeps masking the dead bytes from
         * readers (a lazily re-created line initialises visible from
         * the device and would unmask them).
         */
        uint64_t device = 0;
        int32_t owner = -1;
        MesiState state = MesiState::Invalid;

        /** Safe to forget: no state and nothing left to mask. */
        bool droppable() const
        {
            return state == MesiState::Invalid && pendingMask == 0 &&
                   cachedMask == 0 && visible == device;
        }
    };
    static_assert(sizeof(Line) <= 48, "a directory line must stay small");

    /** Which of a node's two HDM-D tokens on a line. */
    enum class TokenKind : uint64_t { Pending = 0, Cached = 1 };

    /** tokens_ key: (line, node, kind); nodes are < 64. */
    static uint64_t
    tokenKey(uint64_t idx, mem::NodeId n, TokenKind k)
    {
        return idx << 7 | uint64_t(n) << 1 | uint64_t(k);
    }

    static uint64_t
    maskOf(const Line &line, TokenKind k)
    {
        return k == TokenKind::Pending ? line.pendingMask : line.cachedMask;
    }

    uint64_t lineIndexOf(mem::PhysAddr addr) const;
    /** The tracked line at idx, or null. */
    Line *liveLine(uint64_t idx);
    const Line *liveLine(uint64_t idx) const;
    Line &lineAt(uint64_t idx, uint64_t initialVisible);
    /** Stop tracking a line, dropping every token it holds. */
    void forgetLine(uint64_t idx, Line &line);
    void setToken(uint64_t idx, Line &line, mem::NodeId n, TokenKind k,
                  uint64_t value);
    uint64_t tokenOf(uint64_t idx, mem::NodeId n, TokenKind k) const;
    void dropToken(uint64_t idx, Line &line, mem::NodeId n, TokenKind k);
    void charge(sim::SimClock &clock, sim::SimTime t);

    /**
     * Directory control traffic is fabric traffic: when a queue stage
     * is installed, writebacks (a page of data) and back-invalidations
     * (a cacheline-sized message) occupy the device port like any
     * other transaction and queue behind whatever is in flight. A
     * direct port charge, not cxlTransaction: that would add crash
     * sites and shift the deterministic site enumeration.
     */
    void queueFabric(mem::PhysAddr addr, mem::NodeId issuer,
                     uint64_t bytes, sim::SimClock &clock,
                     const char *site);
    void dropSharer(uint64_t idx, Line &line, mem::NodeId n);
    /** Recompute state/owner after sharer-set shrink. */
    void settle(Line &line);

    mem::Machine &machine_;
    CoherenceConfig cfg_;
    /**
     * Indexed by line (CXL frame number); a line is touched exactly
     * while it is tracked. The table walks in ascending line order,
     * which keeps the onNodeCrash/pendingLines/audit walks
     * deterministic (asserted by LitmusWalkOrder and the golden and
     * parallel-sweep suites).
     */
    mem::FrameTable<Line> lines_;
    uint64_t tracked_ = 0;
    /** HDM-D tokens: one per pendingMask/cachedMask bit, by tokenKey. */
    std::unordered_map<uint64_t, uint64_t> tokens_;

    sim::Counter *lookups_ = nullptr;
    sim::Counter *invalidations_ = nullptr;
    sim::Counter *writebacks_ = nullptr;
    sim::Counter *flushes_ = nullptr;
    sim::Counter *swInvalidates_ = nullptr;
    sim::Counter *staleReads_ = nullptr;
    sim::Counter *evictions_ = nullptr;
    sim::Counter *lineResets_ = nullptr;
    sim::Counter *crashCleanups_ = nullptr;
    sim::Counter *taxNs_ = nullptr;
};

} // namespace cxlfork::cxl
