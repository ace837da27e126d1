/**
 * @file
 * The fabric pipeline's vocabulary: one transaction record (Txn), the
 * stage interface every armed fabric layer implements, and the domain
 * striping the record's fault domain is computed with.
 *
 * The machine builds one Txn per CXL transaction and runs it through
 * the stages armed at install time, in a fixed order (DESIGN.md §15):
 *
 *   - a transaction runs link -> queue -> retry;
 *   - a checked read runs repair -> transaction -> codec;
 *   - a direct port charge runs queue only, with no crash site.
 *
 * The stages live in cxl; they are declared here because mem cannot
 * depend on the cxl layer. The coherence directory keeps its own
 * interface (CoherenceModel in machine.hh): it is consulted by node
 * reads and writes, not by transactions.
 */

#pragma once

#include <cstdint>

#include "sim/clock.hh"
#include "types.hh"

namespace cxlfork::mem {

/**
 * Frame-number striping over a fixed count of device fault domains:
 * frame i lives in domain i mod n. The modulus is Lemire's fastmod, a
 * multiply-high in place of a divide, exact for every 32-bit frame
 * number and every nonzero 32-bit domain count.
 */
class DomainStriping
{
  public:
    explicit DomainStriping(uint32_t domains = 1)
        : domains_(domains), magic_(~uint64_t(0) / domains + 1)
    {}

    uint32_t domains() const { return domains_; }

    uint32_t
    domainOf(uint32_t frame) const
    {
        const uint64_t low = magic_ * frame;
        return uint32_t((static_cast<unsigned __int128>(low) * domains_) >>
                        64);
    }

  private:
    uint32_t domains_;
    uint64_t magic_;
};

/** One fabric transaction, as every stage of the pipeline sees it. */
struct Txn
{
    sim::SimClock &clock; ///< The issuer's clock; stages charge it.
    const char *site;
    PhysAddr target;      ///< Device address; null = control plane.
    uint32_t frame;       ///< target's CXL frame number (0 when null).
    uint32_t domain;      ///< target's fault domain (0 when null).
    NodeId node;          ///< Issuer; kInvalidNode = device-internal.
    uint32_t bytes;       ///< A page, or a cacheline when untargeted.
    bool isRead;
    bool mayCrash;        ///< Minted a crash site (direct charges don't).
};

/** Where a stage sits in the pipeline. */
enum class StageKind : uint8_t
{
    Repair, ///< Checked reads of poisoned frames, before the transaction.
    Link,   ///< Node-attributed transactions, first.
    Queue,  ///< Every transaction and direct port charge, after the link.
    Codec,  ///< Checked CXL reads, after the transaction.
};

inline constexpr uint32_t kStageKinds = 4;

/**
 * One armed fabric layer's per-transaction work. A layer installs
 * itself with Machine::installStage when its config enables it and
 * uninstalls on destruction; with no stage installed the pipeline is
 * empty and every path is bit-identical to a machine without layers.
 */
class FabricStage
{
  public:
    virtual ~FabricStage() = default;

    /**
     * Charge, reroute or fail one transaction. A repair stage runs only
     * for a poisoned frame and must leave it clean to let the read on;
     * the machine raises PoisonedFrameError if the frame stays
     * poisoned.
     */
    virtual void onTxn(Txn &t) = 0;

    /** CXL frame `frame` was freed: drop whatever was kept for it. */
    virtual void frameFreed(uint32_t frame) { (void)frame; }
};

/**
 * Host work of the fabric pipeline: how many transactions the link
 * stage saw, how many transient draws the retry ladder made and how
 * often the content index was probed (the queue counts its own, in
 * FabricQueueModel::enqueued). Plain tallies for the pinned work
 * counts; no clock, RNG stream, metric or span reads them.
 */
struct FabricWork
{
    uint64_t linkTxns = 0;    ///< Transactions the link stage checked.
    uint64_t retryDraws = 0;  ///< Transient draws of the retry ladder.
    uint64_t indexProbes = 0; ///< Content-index lookups and updates.
};

} // namespace cxlfork::mem
