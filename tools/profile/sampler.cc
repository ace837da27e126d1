/**
 * @file
 * A SIGPROF sampling profiler loaded with LD_PRELOAD.
 *
 * It stays inert unless CXLF_PROF_OUT names an output file. Then a
 * timer_create() timer on CLOCK_MONOTONIC (every kPeriodUs, 100 µs)
 * sends SIGPROF to the thread that loaded it, and each
 * signal records the interrupted instruction pointer and one caller,
 * the return address one frame up the frame-pointer chain. At exit the
 * samples are written beside a copy of /proc/self/maps, for
 * symbolize.py to resolve.
 *
 * Why not ITIMER_PROF or CLOCK_PROCESS_CPUTIME_ID: on some virtual
 * machines the CPU-time clocks fire only at the scheduler tick (every
 * 4 ms at HZ=250), far too coarse for the per-page paths. A monotonic
 * timer fires on time but samples wall time, so profile a process
 * that has the host to itself.
 *
 * The caller is only right for code built with -fno-omit-frame-pointer;
 * elsewhere it is a best guess, and it is dropped when the frame
 * pointer does not point into the sampled thread's stack.
 *
 * Build and run it through profile.sh, which also symbolizes.
 */

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

struct Sample
{
    uintptr_t ip;
    uintptr_t caller; ///< 0 when the frame pointer was not usable.
};

/** Sampling period. */
constexpr long kPeriodUs = 100;

/** Room for 100 s of samples. */
constexpr size_t kMaxSamples = size_t(1) << 20;

Sample *samples = nullptr;
std::atomic<size_t> taken{0};
std::atomic<size_t> dropped{0};
uintptr_t stackLo = 0;
uintptr_t stackHi = 0;
timer_t timer;
bool armed = false;
const char *outPath = nullptr;

void
onSigprof(int, siginfo_t *, void *ctx)
{
    const auto *uc = static_cast<const ucontext_t *>(ctx);
    const uintptr_t ip = uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
    const uintptr_t fp = uintptr_t(uc->uc_mcontext.gregs[REG_RBP]);
    uintptr_t caller = 0;
    if (fp % sizeof(uintptr_t) == 0 && fp >= stackLo &&
        fp + 2 * sizeof(uintptr_t) <= stackHi) {
        caller = reinterpret_cast<const uintptr_t *>(fp)[1];
    }
    const size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = {ip, caller};
    else
        dropped.fetch_add(1, std::memory_order_relaxed);
}

__attribute__((constructor)) void
start()
{
    outPath = std::getenv("CXLF_PROF_OUT");
    if (!outPath || !*outPath)
        return;

    void *buf = mmap(nullptr, kMaxSamples * sizeof(Sample),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (buf == MAP_FAILED) {
        std::perror("sampler: mmap");
        return;
    }
    samples = static_cast<Sample *>(buf);

    pthread_attr_t attr;
    void *lo = nullptr;
    size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        pthread_attr_getstack(&attr, &lo, &size);
        pthread_attr_destroy(&attr);
    }
    stackLo = uintptr_t(lo);
    stackHi = stackLo + size;

    struct sigaction sa = {};
    sa.sa_sigaction = onSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        std::perror("sampler: sigaction");
        return;
    }

    // Thread-directed: only the thread that loaded the sampler (the
    // main thread) is interrupted and sampled.
    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = pid_t(syscall(SYS_gettid));
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
        std::perror("sampler: timer_create");
        return;
    }
    struct itimerspec its = {};
    its.it_interval.tv_sec = kPeriodUs / 1000000;
    its.it_interval.tv_nsec = (kPeriodUs % 1000000) * 1000;
    its.it_value = its.it_interval;
    if (timer_settime(timer, 0, &its, nullptr) != 0) {
        std::perror("sampler: timer_settime");
        timer_delete(timer);
        return;
    }
    armed = true;
}

__attribute__((destructor)) void
finish()
{
    if (!armed)
        return;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    armed = false;

    FILE *out = std::fopen(outPath, "w");
    if (!out) {
        std::perror("sampler: open output");
        return;
    }
    const size_t n = std::min(taken.load(), kMaxSamples);
    std::fprintf(out, "# cxlf-sampler v1 samples=%zu dropped=%zu\n", n,
                 dropped.load());
    std::fprintf(out, "maps\n");
    if (FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof(line), maps))
            std::fputs(line, out);
        std::fclose(maps);
    }
    std::fprintf(out, "samples\n");
    for (size_t i = 0; i < n; ++i) {
        std::fprintf(out, "%lx %lx\n", (unsigned long)samples[i].ip,
                     (unsigned long)samples[i].caller);
    }
    std::fclose(out);
}

} // namespace
