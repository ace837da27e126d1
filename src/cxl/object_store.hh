/**
 * @file
 * The distributed checkpoint object store (paper Sec. 5): maps unique
 * <user, function> tuples to checkpoint identifiers (CIDs) of
 * CXL-stored checkpoints. Header-only and generic over the stored
 * object type so the fabric layer stays independent of rfork.
 *
 * Publication is a two-phase, crash-consistent protocol backed by a
 * journal that models a CXL-resident record per checkpoint:
 *
 *   stage()    -> STAGED: the object is registered (its frames are
 *                 pinned by the store, surviving the creator's crash)
 *                 but invisible to lookup().
 *   publish()  -> PUBLISHED: the <user, function> tuple flips to the
 *                 CID atomically. Idempotent.
 *   reclaim()  -> the CID's object, journal record, and (if it is the
 *                 tuple's latest) lookup entry are all erased.
 *
 * A node that dies between stage() and publish() leaves a STAGED
 * orphan; recoverOrphans() walks the journal on simulated restart and
 * either completes (verifies + publishes) or garbage-collects each
 * one. lookup() therefore never exposes a torn image: it only ever
 * sees PUBLISHED checkpoints.
 *
 * A STAGED record additionally carries a page manifest: the physical
 * addresses of every shared-pool page the half-built checkpoint has
 * pinned so far, each entry holding one extra frame reference taken at
 * append time. The manifest is the crash-durable record of staged
 * refcounts: publication releases the pins (ownership passes solely to
 * the finished object), and any path that retires a STAGED record —
 * reclaim(), a recovery garbage-collect, or a recovery completion —
 * releases each pin exactly once through the installed releaser, so a
 * creator crash can neither leak nor double-free shared frames.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cxlfork::cxl {

/** Checkpoint identifier. */
using Cid = uint64_t;

/** Journal state of one stored checkpoint. */
enum class JournalState : uint8_t {
    Staged,    ///< Registered, pinned, invisible to lookup().
    Published, ///< The tuple's lookup entry may point here.
};

/** One journal record: who staged what, and how far it got. */
struct JournalRecord
{
    std::string user;
    std::string function;
    uint32_t ownerNode = 0; ///< Node that staged it (kAnyNode if unknown).
    JournalState state = JournalState::Staged;

    /**
     * The owner node's fence epoch at stage time. A publish only
     * succeeds while the record's epoch still matches the owner's
     * current epoch; quarantining a node bumps its epoch, so anything
     * the quarantined node staged before the partition can never be
     * published behind the cluster's back (split-brain fence).
     */
    uint64_t epoch = 0;

    /**
     * Shared-pool pages pinned by this record while STAGED; each entry
     * holds one extra frame reference, released exactly once when the
     * record publishes or is retired.
     */
    std::vector<uint64_t> manifest;
};

/** What a recovery pass did. */
struct RecoveryReport
{
    uint64_t scanned = 0;   ///< STAGED records examined.
    uint64_t completed = 0; ///< Verified complete and published.
    uint64_t reclaimed = 0; ///< Incomplete; object + record erased.
    uint64_t staleEpoch = 0; ///< Reclaimed for a fenced-off epoch alone.
};

/** What one publish() attempt did. */
enum class PublishResult : uint8_t {
    Published,        ///< The tuple's lookup entry flipped to the CID.
    AlreadyPublished, ///< Idempotent re-publish (or unknown CID): no-op.
    StaleEpoch,       ///< Rejected: the record was staged under an
                      ///< epoch the owner's fence has moved past. The
                      ///< record stays STAGED for recovery to reclaim.
};

inline const char *
publishResultName(PublishResult r)
{
    switch (r) {
      case PublishResult::Published:
        return "published";
      case PublishResult::AlreadyPublished:
        return "already-published";
      case PublishResult::StaleEpoch:
        return "stale-epoch";
    }
    return "?";
}

/**
 * Keyed store of shared checkpoint objects.
 *
 * put() registers and publishes a checkpoint for <user, function> in
 * one step (the pre-journal API, kept for callers that cannot crash
 * mid-build); stage()/publish() split that into the crash-consistent
 * two-phase protocol; lookup() returns the latest PUBLISHED CID for
 * the tuple; reclaim() drops a checkpoint (e.g. under CXL memory
 * pressure), erasing its lookup entry with it.
 */
template <typename T>
class ObjectStore
{
  public:
    /** Owner value for records staged outside any node context. */
    static constexpr uint32_t kAnyNode = ~uint32_t(0);

    ObjectStore() = default;

    /** Pins die with the store: no record may strand its references. */
    ~ObjectStore()
    {
        for (auto &[cid, rec] : journal_)
            releaseManifest(rec);
    }

    /**
     * Phase one: register the object under a STAGED journal record.
     * The store's reference keeps the object (and every frame it owns)
     * alive even if the staging node dies before publishing — staged
     * state models CXL-resident data that survives node crashes.
     */
    Cid
    stage(const std::string &user, const std::string &function,
          std::shared_ptr<T> object, uint32_t ownerNode = kAnyNode)
    {
        const Cid cid = nextCid_++;
        objects_[cid] = std::move(object);
        journal_[cid] = JournalRecord{user, function, ownerNode,
                                      JournalState::Staged,
                                      epochOf(ownerNode), {}};
        return cid;
    }

    /**
     * Install the function that returns one staged manifest pin (an
     * extra frame reference) to its pool. Without a releaser installed
     * appendManifest() refuses to record pins, so standalone stores
     * (unit tests, ad-hoc callers) never strand references.
     */
    void
    setManifestReleaser(std::function<void(uint64_t)> release)
    {
        manifestReleaser_ = std::move(release);
    }

    /**
     * Record one pinned shared-pool page under a STAGED record. The
     * caller takes the extra frame reference iff this returns true;
     * the store releases it exactly once (publish or retirement).
     * Returns false — record nothing, pin nothing — for unknown CIDs,
     * already-PUBLISHED records (DirectPutUnsafe publishes at stage
     * time), or when no releaser is installed.
     */
    bool
    appendManifest(Cid cid, uint64_t pageAddr)
    {
        if (!manifestReleaser_)
            return false;
        auto it = journal_.find(cid);
        if (it == journal_.end() ||
            it->second.state != JournalState::Staged)
            return false;
        it->second.manifest.push_back(pageAddr);
        return true;
    }

    /** Staged pins currently recorded for the CID (0 if none). */
    size_t
    manifestSize(Cid cid) const
    {
        auto it = journal_.find(cid);
        return it == journal_.end() ? 0 : it->second.manifest.size();
    }

    /**
     * Phase two: atomically flip the tuple's lookup entry to this CID.
     * Idempotent — republishing a PUBLISHED CID is a no-op, so a
     * retried publish step never double-publishes (and never
     * double-releases the staged manifest pins).
     *
     * The epoch fence runs first: a record staged by a node whose
     * epoch has since advanced (the node was quarantined during a
     * partition) is rejected with StaleEpoch and stays STAGED — a
     * returning zombie can never flip a tuple the surviving cluster
     * has moved past. Fencing is free when no epoch ever advanced
     * (0 == 0) and can be disabled for the split-brain negative
     * control.
     */
    PublishResult
    publish(Cid cid)
    {
        auto it = journal_.find(cid);
        if (it == journal_.end() ||
            it->second.state == JournalState::Published)
            return PublishResult::AlreadyPublished;
        if (fencing_ && it->second.ownerNode != kAnyNode &&
            it->second.epoch != epochOf(it->second.ownerNode))
            return PublishResult::StaleEpoch;
        it->second.state = JournalState::Published;
        latest_[{it->second.user, it->second.function}] = cid;
        // The finished object now solely owns its pages; drop the
        // staged safety pins.
        releaseManifest(it->second);
        return PublishResult::Published;
    }

    // --- The epoch fence (split-brain protection).

    /** The current fence epoch of a node (0 until first quarantine). */
    uint64_t
    epochOf(uint32_t node) const
    {
        if (node == kAnyNode)
            return 0;
        auto it = nodeEpoch_.find(node);
        return it == nodeEpoch_.end() ? 0 : it->second;
    }

    /**
     * Advance a node's fence epoch (quarantine). Everything the node
     * staged before this call becomes unpublishable; re-staging after
     * rejoin picks up the new epoch.
     */
    uint64_t bumpEpoch(uint32_t node) { return ++nodeEpoch_[node]; }

    /**
     * The negative-control switch: with fencing off a returning
     * zombie's stale publish succeeds, demonstrating the split-brain
     * double-publish the fence exists to prevent. On by default.
     */
    void setEpochFencing(bool on) { fencing_ = on; }
    bool epochFencing() const { return fencing_; }

    /** stage() + publish() in one step (cannot be made crash-safe). */
    Cid
    put(const std::string &user, const std::string &function,
        std::shared_ptr<T> object, uint32_t ownerNode = kAnyNode)
    {
        const Cid cid = stage(user, function, std::move(object), ownerNode);
        publish(cid);
        return cid;
    }

    std::optional<Cid>
    lookup(const std::string &user, const std::string &function) const
    {
        auto it = latest_.find({user, function});
        if (it == latest_.end())
            return std::nullopt;
        return it->second;
    }

    std::shared_ptr<T>
    get(Cid cid) const
    {
        auto it = objects_.find(cid);
        return it == objects_.end() ? nullptr : it->second;
    }

    /**
     * Drop the store's reference; the image dies once unattached. The
     * CID's journal record goes with it, and so does the tuple's
     * lookup entry when it still points here — reclaim leaves no stale
     * state behind.
     */
    void
    reclaim(Cid cid)
    {
        auto jt = journal_.find(cid);
        if (jt != journal_.end()) {
            auto lt = latest_.find({jt->second.user, jt->second.function});
            if (lt != latest_.end() && lt->second == cid)
                latest_.erase(lt);
            releaseManifest(jt->second);
            journal_.erase(jt);
        }
        objects_.erase(cid);
    }

    /**
     * Recovery pass over STAGED records (simulated node restart).
     * Records owned by `ownerNode` (or all records with kAnyNode) are
     * verified: verify(object) == true completes the publication;
     * anything else — including objects the store somehow lost — is
     * garbage-collected, returning every pinned frame to its allocator
     * when the last reference drops.
     */
    template <typename Verify>
    RecoveryReport
    recoverOrphans(uint32_t ownerNode, Verify &&verify)
    {
        RecoveryReport rep;
        for (auto it = journal_.begin(); it != journal_.end();) {
            const Cid cid = it->first;
            JournalRecord &rec = it->second;
            if (rec.state != JournalState::Staged ||
                (ownerNode != kAnyNode && rec.ownerNode != ownerNode)) {
                ++it;
                continue;
            }
            ++rep.scanned;
            // A record staged under a fenced-off epoch is stale by
            // definition — even a verifiably complete object must not
            // publish behind the surviving cluster's back.
            const bool stale = fencing_ && rec.ownerNode != kAnyNode &&
                               rec.epoch != epochOf(rec.ownerNode);
            auto obj = get(cid);
            if (!stale && obj && verify(obj)) {
                rec.state = JournalState::Published;
                latest_[{rec.user, rec.function}] = cid;
                releaseManifest(rec);
                ++rep.completed;
                ++it;
            } else {
                // Retire the orphan: the manifest pins and the store's
                // object reference each return their frame references,
                // and each exactly once.
                releaseManifest(rec);
                objects_.erase(cid);
                it = journal_.erase(it);
                ++rep.reclaimed;
                rep.staleEpoch += stale;
            }
        }
        return rep;
    }

    /** Visit every journal record (diagnostics, cluster recovery). */
    template <typename Fn>
    void
    forEachJournal(Fn &&fn) const
    {
        for (const auto &[cid, rec] : journal_)
            fn(cid, rec);
    }

    /** The CID's journal record, if it exists. */
    std::optional<JournalRecord>
    journalRecord(Cid cid) const
    {
        auto it = journal_.find(cid);
        if (it == journal_.end())
            return std::nullopt;
        return it->second;
    }

    size_t size() const { return objects_.size(); }

    /** Number of live <user, function> lookup entries. */
    size_t latestCount() const { return latest_.size(); }

    size_t
    stagedCount() const
    {
        size_t n = 0;
        for (const auto &[cid, rec] : journal_)
            n += rec.state == JournalState::Staged;
        return n;
    }

    size_t
    publishedCount() const
    {
        size_t n = 0;
        for (const auto &[cid, rec] : journal_)
            n += rec.state == JournalState::Published;
        return n;
    }

    std::vector<Cid>
    cids() const
    {
        std::vector<Cid> out;
        out.reserve(objects_.size());
        for (const auto &[cid, obj] : objects_)
            out.push_back(cid);
        return out;
    }

  private:
    /** Drop every pin the record holds; idempotent per record. */
    void
    releaseManifest(JournalRecord &rec)
    {
        if (rec.manifest.empty())
            return;
        std::vector<uint64_t> pins;
        pins.swap(rec.manifest); // emptied before releasing: re-entry safe
        for (uint64_t addr : pins)
            manifestReleaser_(addr);
    }

    Cid nextCid_ = 1;
    std::map<Cid, std::shared_ptr<T>> objects_;
    std::map<Cid, JournalRecord> journal_;
    std::map<std::pair<std::string, std::string>, Cid> latest_;
    std::function<void(uint64_t)> manifestReleaser_;
    std::map<uint32_t, uint64_t> nodeEpoch_; ///< Fence epochs; empty
                                             ///< until a quarantine.
    bool fencing_ = true;
};

} // namespace cxlfork::cxl
