/**
 * @file
 * The fault-injection subsystem: deterministic schedules, CRC torn-write
 * detection, transient retry/backoff, typed recoverable errors, and the
 * cluster-level degradation ladder (retry -> failover -> cold start).
 */

#include <gtest/gtest.h>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "sim/backoff.hh"
#include "sim/crc32.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "test_util.hh"

#include "porter_test_util.hh"

namespace cxlfork {
namespace {

using mem::kPageSize;
using sim::SimTime;
using test::World;

// --- FaultInjector determinism.

TEST(FaultInjector, SameSeedSameSchedule)
{
    sim::FaultConfig cfg;
    cfg.seed = 42;
    cfg.cxlTransientRate = 0.3;
    cfg.framePoisonRate = 0.1;
    cfg.tornWriteRate = 0.05;
    sim::FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.drawTransient(), b.drawTransient());
        EXPECT_EQ(a.drawPoison(), b.drawPoison());
        EXPECT_EQ(a.drawTornWrite(), b.drawTornWrite());
        EXPECT_EQ(a.pickVictim(4096), b.pickVictim(4096));
    }
    EXPECT_EQ(a.stats().transientsInjected, b.stats().transientsInjected);
    EXPECT_GT(a.stats().transientsInjected, 0u);
    EXPECT_GT(a.stats().framesPoisoned, 0u);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule)
{
    sim::FaultConfig a, b;
    a.seed = 1;
    b.seed = 2;
    a.cxlTransientRate = b.cxlTransientRate = 0.5;
    sim::FaultInjector ia(a), ib(b);
    int differs = 0;
    for (int i = 0; i < 200; ++i)
        differs += ia.drawTransient() != ib.drawTransient();
    EXPECT_GT(differs, 0);
}

TEST(FaultInjector, ClassStreamsAreIndependent)
{
    // Turning one fault class on must not shift another class's
    // schedule (each class draws from its own salted stream).
    sim::FaultConfig only;
    only.seed = 7;
    only.cxlTransientRate = 0.25;
    sim::FaultConfig both = only;
    both.tornWriteRate = 0.5;

    sim::FaultInjector a(only), b(both);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.drawTransient(), b.drawTransient());
        (void)b.drawTornWrite(); // interleaved draws on the other stream
    }
}

TEST(FaultInjector, DisarmedDrawsNothing)
{
    sim::FaultInjector inj{};
    EXPECT_FALSE(inj.armed());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.drawTransient());
        EXPECT_FALSE(inj.drawPoison());
        EXPECT_FALSE(inj.drawTornWrite());
    }
    EXPECT_EQ(inj.stats().transientsInjected, 0u);
}

TEST(FaultInjector, BackoffGrowsExponentially)
{
    sim::FaultConfig cfg;
    cfg.retryBackoff = SimTime::us(10);
    cfg.backoffMultiplier = 2.0;
    sim::BackoffSchedule backoff(cfg.retryPolicy());
    EXPECT_EQ(backoff.next(), SimTime::us(10));
    EXPECT_EQ(backoff.next(), SimTime::us(20));
    EXPECT_EQ(backoff.next(), SimTime::us(40));
}

TEST(FaultInjector, CrashSitesNeverPerturbBernoulliStreams)
{
    // Crash-site counting/arming must not consume a single draw from
    // the probabilistic fault streams: the transient schedule with
    // crash mode engaged is bit-identical to the schedule without it.
    sim::FaultConfig cfg;
    cfg.seed = 42;
    cfg.cxlTransientRate = 0.3;
    sim::FaultInjector plain(cfg), counting(cfg);
    counting.beginCrashCount();
    for (int i = 0; i < 500; ++i) {
        counting.crashPoint("x");
        EXPECT_EQ(plain.drawTransient(), counting.drawTransient());
    }
    EXPECT_EQ(counting.crashSitesSeen(), 500u);
}

TEST(FaultInjector, ArmedCrashFiresExactlyOnceAtItsSite)
{
    sim::FaultInjector inj{};
    inj.armCrashSite(3);
    inj.crashPoint("s0");
    inj.crashPoint("s1");
    inj.crashPoint("s2");
    EXPECT_THROW(inj.crashPoint("s3"), sim::NodeCrashError);
    // One-shot: the injector disarmed itself when it fired.
    EXPECT_EQ(inj.crashMode(), sim::CrashMode::Off);
    for (int i = 0; i < 16; ++i)
        inj.crashPoint("after");
    EXPECT_EQ(inj.stats().crashesInjected, 1u);
}

TEST(FaultInjector, CountModeIsDeterministicAndNeverThrows)
{
    auto countSites = [] {
        sim::FaultInjector inj{};
        inj.beginCrashCount();
        for (int i = 0; i < 37; ++i)
            inj.crashPoint("site");
        return inj.crashSitesSeen();
    };
    EXPECT_EQ(countSites(), 37u);
    EXPECT_EQ(countSites(), countSites());
}

TEST(FaultInjector, StatsMirrorIntoAttachedMachineRegistry)
{
    // FaultStats must be exported through the machine's registry so
    // observability tooling sees injections without reaching into the
    // injector (satellite: sim.faults.* metrics).
    mem::MachineConfig mcfg;
    mcfg.faults.seed = 11;
    mcfg.faults.cxlTransientRate = 0.5;
    mcfg.faults.maxRetries = 8;
    mem::Machine machine{mcfg};
    sim::SimClock clock;
    for (int i = 0; i < 64; ++i)
        machine.cxlTransaction(clock, "test");
    const sim::FaultStats &st = machine.faults().stats();
    EXPECT_GT(st.transientsInjected, 0u);
    sim::MetricsRegistry &m = machine.metrics();
    EXPECT_EQ(m.counter("sim.faults.transients_injected").value(),
              st.transientsInjected);
    EXPECT_EQ(m.counter("sim.faults.transients_retried").value(),
              st.transientsRetried);
    EXPECT_EQ(m.counter("sim.faults.transients_escalated").value(),
              st.transientsEscalated);
    EXPECT_EQ(m.counter("sim.faults.crashes_injected").value(), 0u);
}

// --- CRC32.

TEST(Crc32, CatchesEverySingleBitFlip)
{
    std::vector<uint8_t> data(256);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 37 + 11);
    const uint32_t sealed = sim::crc32(data.data(), data.size());
    for (size_t bit = 0; bit < data.size() * 8; ++bit) {
        data[bit / 8] ^= uint8_t(1u << (bit % 8));
        EXPECT_NE(sim::crc32(data.data(), data.size()), sealed)
            << "bit " << bit << " flip went undetected";
        data[bit / 8] ^= uint8_t(1u << (bit % 8));
    }
    EXPECT_EQ(sim::crc32(data.data(), data.size()), sealed);
}

/** Bit-at-a-time CRC-32 state update: the definition, no tables. */
uint32_t
referenceCrcUpdate(uint32_t state, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        state ^= p[i];
        for (int k = 0; k < 8; ++k)
            state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
    return state;
}

uint32_t
referenceCrc(const uint8_t *p, size_t n)
{
    return referenceCrcUpdate(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b)
        v |= uint64_t(p[b]) << (8 * b);
    return v;
}

std::vector<uint8_t>
crcTestBytes(size_t n)
{
    std::vector<uint8_t> data(n);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint8_t &b : data) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = uint8_t(x);
    }
    return data;
}

TEST(Crc32, KnownAnswer)
{
    const char check[] = "123456789";
    EXPECT_EQ(sim::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(sim::crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    const std::vector<uint8_t> data = crcTestBytes(300 + 8);
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len = 0; len <= 300; ++len) {
            const uint8_t *p = data.data() + offset;
            ASSERT_EQ(sim::crc32(p, len), referenceCrc(p, len))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32, Update64IsLittleEndianBytes)
{
    const std::vector<uint8_t> data = crcTestBytes(64);
    for (size_t i = 0; i + 8 <= data.size(); ++i) {
        sim::Crc32 word;
        word.update64(loadLe64(&data[i]));
        EXPECT_EQ(word.value(), referenceCrc(&data[i], 8)) << "word " << i;
    }
}

TEST(Crc32, MixedUpdateChainsMatchReference)
{
    const std::vector<uint8_t> data = crcTestBytes(2048);
    // Alternate byte runs of awkward lengths with 64-bit words; every
    // prefix digest must equal the reference over the same bytes.
    const size_t runs[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64};
    sim::Crc32 crc;
    uint32_t ref = 0xFFFFFFFFu;
    size_t pos = 0;
    for (int round = 0; round < 4; ++round) {
        for (size_t run : runs) {
            ASSERT_LE(pos + run + 8, data.size());
            crc.update(&data[pos], run);
            ref = referenceCrcUpdate(ref, &data[pos], run);
            pos += run;
            crc.update64(loadLe64(&data[pos]));
            ref = referenceCrcUpdate(ref, &data[pos], 8);
            pos += 8;
            ASSERT_EQ(crc.value(), ref ^ 0xFFFFFFFFu) << "after " << pos;
        }
    }
}

/**
 * Both bulk kernels against the bitwise reference at every length
 * 0-4160 (one leaf block is 4104 bytes) and every offset 0-15, so the
 * portable path keeps its coverage above the fold threshold on hosts
 * where update() would take the carry-less fold.
 */
void
expectKernelMatchesReference(uint32_t (*kernel)(uint32_t, const uint8_t *,
                                                size_t))
{
    constexpr size_t kMaxLen = 4160;
    const std::vector<uint8_t> data = crcTestBytes(kMaxLen + 16);
    for (size_t offset = 0; offset < 16; ++offset) {
        const uint8_t *p = data.data() + offset;
        uint32_t ref = 0xFFFFFFFFu; // reference state over p[0, len)
        for (size_t len = 0; len <= kMaxLen; ++len) {
            ASSERT_EQ(kernel(0xFFFFFFFFu, p, len), ref)
                << "offset " << offset << " length " << len;
            ref = referenceCrcUpdate(ref, p + len, 1);
        }
    }
}

TEST(Crc32, PortableKernelMatchesReference)
{
    expectKernelMatchesReference(&sim::detail::crc32Slice8);
}

TEST(Crc32, ClmulKernelMatchesReference)
{
    if (!sim::detail::crc32ClmulSupported())
        GTEST_SKIP() << "CPU lacks PCLMULQDQ";
    expectKernelMatchesReference(&sim::detail::crc32Clmul);
}

TEST(Crc32, ChainsAcrossTheFoldThresholdMatchReference)
{
    const std::vector<uint8_t> data = crcTestBytes(8192);
    // Runs just under, at and over the fold threshold (and its 16-byte
    // multiples), interleaved with 64-bit words and short runs, so the
    // state handed between kernels is checked in both directions.
    const size_t runs[] = {63, 64, 65, 8,  127, 128, 129, 1,  79,
                           80, 81, 0,  200, 15, 1000, 7, 4104, 3};
    sim::Crc32 crc;
    uint32_t ref = 0xFFFFFFFFu;
    size_t pos = 0;
    for (size_t run : runs) {
        ASSERT_LE(pos + run + 8, data.size());
        crc.update(&data[pos], run);
        ref = referenceCrcUpdate(ref, &data[pos], run);
        pos += run;
        ASSERT_EQ(crc.value(), ref ^ 0xFFFFFFFFu) << "run " << run;
        crc.update64(loadLe64(&data[pos]));
        ref = referenceCrcUpdate(ref, &data[pos], 8);
        pos += 8;
        ASSERT_EQ(crc.value(), ref ^ 0xFFFFFFFFu) << "word after " << run;
    }
}

// --- Machine-level transients and poison.

class MachineFaultTest : public ::testing::Test
{
  protected:
    static mem::MachineConfig
    faultyConfig(double transientRate, uint32_t maxRetries = 3)
    {
        mem::MachineConfig cfg = test::smallConfig();
        cfg.faults.seed = 1234;
        cfg.faults.cxlTransientRate = transientRate;
        cfg.faults.maxRetries = maxRetries;
        cfg.faults.retryBackoff = SimTime::us(10);
        return cfg;
    }
};

TEST_F(MachineFaultTest, TransientsRetrySucceedWithinBudget)
{
    // At rate 0.3 with a budget of 8, escalation probability per
    // transaction is ~6.6e-5; with this seed none of the 500
    // transactions escalates, but retries do happen and cost time.
    World world(faultyConfig(0.3, 8));
    sim::SimClock &clock = world.node(0).clock();
    const SimTime before = clock.now();
    for (int i = 0; i < 500; ++i)
        world.machine->cxlTransaction(clock, "test");
    EXPECT_GT(world.machine->faults().stats().transientsRetried, 0u);
    EXPECT_EQ(world.machine->faults().stats().transientsEscalated, 0u);
    EXPECT_GT(clock.now(), before) << "retries must charge simulated time";
}

TEST_F(MachineFaultTest, PermanentFaultEscalatesAsTypedError)
{
    World world(faultyConfig(1.0, 3));
    sim::SimClock &clock = world.node(0).clock();
    EXPECT_THROW(world.machine->cxlTransaction(clock, "test"),
                 sim::TransientFaultError);
    // Still a FatalError for legacy catch sites.
    EXPECT_THROW(world.machine->cxlTransaction(clock, "test"),
                 sim::FatalError);
    EXPECT_EQ(world.machine->faults().stats().transientsEscalated, 2u);
}

TEST_F(MachineFaultTest, PoisonedFrameReadThrowsTyped)
{
    World world(test::smallConfig());
    const mem::PhysAddr f =
        world.machine->cxl().alloc(mem::FrameUse::Data, 77);
    world.machine->cxl().poison(f);
    sim::SimClock &clock = world.node(0).clock();
    EXPECT_THROW(world.machine->readFrameChecked(f, clock, "test"),
                 sim::PoisonedFrameError);
}

TEST_F(MachineFaultTest, PoisonClearedOnFree)
{
    World world(test::smallConfig());
    const mem::PhysAddr f =
        world.machine->cxl().alloc(mem::FrameUse::Data, 1);
    world.machine->cxl().poison(f);
    world.machine->cxl().decRef(f);
    const mem::PhysAddr g =
        world.machine->cxl().alloc(mem::FrameUse::Data, 2);
    EXPECT_FALSE(world.machine->cxl().isPoisoned(g));
}

// --- Typed capacity errors with clean unwinding.

TEST(CapacityFaults, ExhaustedCheckpointLeavesDeviceUsageUnchanged)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.cxlCapacityBytes = mem::mib(1); // 256 frames
    World world(cfg);
    auto task = world.node(0).createTask("big");
    os::Vma &heap = world.node(0).mapAnon(
        *task, 512 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    world.node(0).touchRange(*task, heap.start, heap.end, true);

    const uint64_t before = world.machine->cxl().usedBytes();
    rfork::CxlFork fork(*world.fabric);
    EXPECT_THROW(fork.checkpoint(world.node(0), *task), sim::CapacityError);
    EXPECT_EQ(world.machine->cxl().usedBytes(), before)
        << "a failed checkpoint must release every frame it allocated";
}

TEST(CapacityFaults, ExhaustedSharedFsWriteKeepsOldFile)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.cxlCapacityBytes = mem::kib(64); // 16 frames
    World world(cfg);
    sim::SimClock &clock = world.node(0).clock();
    cxl::SharedFs &fs = world.fabric->sharedFs();

    fs.write("f", {1, 2, 3}, 4 * kPageSize, clock);
    const uint64_t before = fs.usedBytes();
    EXPECT_THROW(fs.write("f", {9, 9, 9}, 64 * kPageSize, clock),
                 sim::CapacityError);
    EXPECT_EQ(fs.usedBytes(), before);
    ASSERT_NE(fs.open("f"), nullptr);
    EXPECT_EQ(fs.open("f")->data[0], 1u) << "old file must stay readable";
    EXPECT_TRUE(fs.verify("f"));
}

// --- Checkpoint-image integrity.

class ImageIntegrityTest : public ::testing::Test
{
  protected:
    ImageIntegrityTest() : world(test::smallConfig())
    {
        parent = world.node(0).createTask("fn");
        os::Vma &heap = world.node(0).mapAnon(
            *parent, 16 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
        heapStart = heap.start;
        for (uint64_t i = 0; i < 16; ++i)
            world.node(0).write(*parent, heapStart.plus(i * kPageSize),
                                i + 1);
    }

    World world;
    std::shared_ptr<os::Task> parent;
    mem::VirtAddr heapStart;
};

TEST_F(ImageIntegrityTest, CheckpointSealsAndVerifies)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    EXPECT_TRUE(img->integritySealed());
    EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
}

TEST_F(ImageIntegrityTest, EverySingleBitCorruptionIsDetected)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    // Every bit position across all data-page tokens: flip, detect,
    // flip back.
    for (uint64_t bit = 0; bit < img->pageCount() * 64; ++bit) {
        img->corruptDataBit(bit);
        const auto bad = img->verifyIntegrity();
        ASSERT_TRUE(bad.has_value()) << "bit " << bit << " undetected";
        EXPECT_EQ(*bad, "pages");
        img->corruptDataBit(bit); // restore
        EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
    }
}

TEST_F(ImageIntegrityTest, MutableAbitsDoNotFailVerification)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    // A-bit resets and user-hot hints legally mutate sealed leaves.
    img->resetAccessedBits();
    img->markUserHot(heapStart);
    EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
}

TEST_F(ImageIntegrityTest, CorruptImageRestoreReturnsTypedError)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    std::dynamic_pointer_cast<rfork::CheckpointImage>(handle)
        ->corruptDataBit(137);

    EXPECT_THROW(fork.restore(handle, world.node(1)),
                 sim::CorruptImageError);
    const auto outcome = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
    EXPECT_EQ(outcome.retries, 0u) << "corruption is not retryable";
    // The failed restores must not leak half-built tasks.
    EXPECT_EQ(world.node(1).taskCount(), 0u);
}

TEST_F(ImageIntegrityTest, TornCriuImageRejectedAtRestore)
{
    rfork::CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(world.node(0), *parent);
    auto h = std::dynamic_pointer_cast<rfork::CriuHandle>(handle);
    ASSERT_NE(h, nullptr);
    world.fabric->sharedFs().corruptBit(h->fileName(), 0);

    const auto outcome = criu.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
}

TEST_F(ImageIntegrityTest, InjectedTornWriteCaughtEndToEnd)
{
    // Rate 1.0: the checkpoint is guaranteed torn; the restore's
    // integrity check must catch it (no silently wrong clone).
    sim::FaultConfig faults;
    faults.tornWriteRate = 1.0;
    world.machine->setFaultConfig(faults);

    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    const auto outcome = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
    EXPECT_EQ(world.machine->faults().stats().tornWrites, 1u);
}

// --- tryRestore retry ladder.

TEST_F(ImageIntegrityTest, TransientRestoreRetriesThenSucceeds)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);

    // Arm a permanently failing device, then a clean one: the typed
    // transient error surfaces, and with faults cleared the same
    // handle restores fine (failed attempts left node 1 clean).
    sim::FaultConfig faults;
    faults.cxlTransientRate = 1.0;
    faults.maxRetries = 2;
    world.machine->setFaultConfig(faults);
    const auto failed = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(failed);
    EXPECT_EQ(failed.error, rfork::RestoreError::TransientFault);
    EXPECT_EQ(failed.retries, 2u) << "whole-restore retries exhausted";
    EXPECT_EQ(world.node(1).taskCount(), 0u);

    world.machine->setFaultConfig(sim::FaultConfig{});
    const auto ok = fork.tryRestore(handle, world.node(1));
    ASSERT_TRUE(ok);
    EXPECT_EQ(ok.error, rfork::RestoreError::None);
    EXPECT_EQ(world.node(1).read(*ok.task, heapStart), 1u);
}

TEST_F(ImageIntegrityTest, RetriesChargeSimulatedTime)
{
    World faulty = World([] {
        mem::MachineConfig cfg = test::smallConfig();
        cfg.faults.cxlTransientRate = 0.2;
        cfg.faults.maxRetries = 16;
        cfg.faults.seed = 5;
        return cfg;
    }());
    auto task = faulty.node(0).createTask("fn");
    os::Vma &heap = faulty.node(0).mapAnon(
        *task, 64 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    faulty.node(0).touchRange(*task, heap.start, heap.end, true);

    rfork::CxlFork fork(*faulty.fabric);
    auto handle = fork.checkpoint(faulty.node(0), *task);
    const SimTime before = faulty.node(1).clock().now();
    const auto outcome = fork.tryRestore(handle, faulty.node(1));
    ASSERT_TRUE(outcome);
    EXPECT_GT(faulty.machine->faults().stats().transientsRetried, 0u);
    EXPECT_GT(faulty.node(1).clock().now(), before);
}

// --- Cluster-level failure model.

faas::FunctionSpec
tinySpec(const std::string &name)
{
    faas::FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(8);
    s.workingSetBytes = mem::mib(1);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(10);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = std::hash<std::string>()(name);
    return s;
}

std::vector<porter::Request>
steadyTrace(double rps, double secs)
{
    porter::TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = 99;
    return porter::TraceGenerator({"a", "b"}, c).generate();
}

TEST(PorterFaults, InjectedFaultsRunToCompletionWithRecovery)
{
    porter::PerfModel perf;
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    cfg.numNodes = 3;
    cfg.checkpointAfterInvocations = 4;
    // Short keep-alive so idle instances evict and requests keep going
    // through the restore path, where the fault draws live.
    cfg.keepAlive = SimTime::ms(200);
    cfg.faults.seed = 31337;
    cfg.faults.nodeMtbf = SimTime::sec(8);
    cfg.faults.nodeRecovery = SimTime::sec(3);
    cfg.faults.corruptRestoreRate = 0.25;
    cfg.faults.transientRestoreRate = 0.2;

    porter::PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    const auto trace = steadyTrace(40, 30);
    const auto m = runAudited(sim, trace);

    // Every request completes despite crashes; the recovery machinery
    // actually exercised all three rungs of the degradation ladder.
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_GT(m.nodeCrashes, 0u);
    EXPECT_GT(m.nodeRecoveries, 0u);
    EXPECT_GT(m.lostInstances, 0u);
    EXPECT_GT(m.restoreRetries, 0u);
    EXPECT_GT(m.corruptRestores, 0u);
    EXPECT_GE(m.degradedColdStarts, m.corruptRestores);
}

TEST(PorterFaults, FixedSeedIsDeterministic)
{
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    cfg.numNodes = 3;
    cfg.faults.seed = 7;
    cfg.faults.nodeMtbf = SimTime::sec(10);
    cfg.faults.corruptRestoreRate = 0.1;
    cfg.faults.transientRestoreRate = 0.1;
    const auto trace = steadyTrace(30, 20);

    porter::PerfModel perfA;
    porter::PorterSim simA(cfg, {tinySpec("a"), tinySpec("b")}, perfA);
    const auto a = runAudited(simA, trace);
    porter::PerfModel perfB;
    porter::PorterSim simB(cfg, {tinySpec("a"), tinySpec("b")}, perfB);
    const auto b = runAudited(simB, trace);

    EXPECT_EQ(a.nodeCrashes, b.nodeCrashes);
    EXPECT_EQ(a.lostInstances, b.lostInstances);
    EXPECT_EQ(a.restoreFailovers, b.restoreFailovers);
    EXPECT_EQ(a.restoreRetries, b.restoreRetries);
    EXPECT_EQ(a.corruptRestores, b.corruptRestores);
    EXPECT_EQ(a.degradedColdStarts, b.degradedColdStarts);
    EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
}

TEST(PorterFaults, DisabledInjectionMatchesBaselineExactly)
{
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    const auto trace = steadyTrace(30, 15);

    porter::PerfModel perfA;
    porter::PorterSim plain(cfg, {tinySpec("a"), tinySpec("b")}, perfA);
    const auto a = runAudited(plain, trace);

    porter::PorterConfig cfg2 = cfg;
    cfg2.faults.seed = 123456; // different seed but all rates zero
    porter::PerfModel perfB;
    porter::PorterSim seeded(cfg2, {tinySpec("a"), tinySpec("b")}, perfB);
    const auto b = runAudited(seeded, trace);

    EXPECT_EQ(a.nodeCrashes, 0u);
    EXPECT_EQ(a.degradedColdStarts, 0u);
    EXPECT_EQ(a.warmHits, b.warmHits);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
}

} // namespace
} // namespace cxlfork
