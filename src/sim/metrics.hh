/**
 * @file
 * A typed metrics registry: named counters, gauges, summaries, and
 * bucketed latency histograms, shared by every layer of the stack.
 *
 * Naming scheme: dot-separated `layer.object.event` lowercase paths
 * ("os.fault.cow_cxl", "rfork.cxlfork.restore_ns", "porter.restore").
 * Metrics are observation only — recording never charges simulated
 * time — so results are identical with or without consumers.
 *
 * Exports: a flat `name -> number` view (composite metrics flattened
 * with suffixes like `.count` / `.p99_ns`), the same view as JSON for
 * the golden-benchmark regression suite, and an ASCII table for
 * humans.
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"
#include "table.hh"
#include "time.hh"

namespace cxlfork::sim {

/** A point-in-time value (bytes resident, nodes up, a ratio). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double d) { value_ += d; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-footprint latency histogram with power-of-two bucket edges.
 *
 * Bucket 0 holds [0, 1) ns; bucket i >= 1 holds [2^(i-1), 2^i) ns.
 * 64 buckets cover everything up to ~2^62 ns (~146 years of simulated
 * time), so no clamping occurs in practice. Unlike sim::Histogram it
 * retains no samples: constant memory however hot the path.
 */
class LatencyHistogram
{
  public:
    static constexpr uint32_t kBuckets = 64;

    void record(SimTime t) { record(t.toNs()); }
    void record(double ns);

    /** Bucket-wise fold of another histogram into this one. */
    void merge(const LatencyHistogram &o);

    uint64_t count() const { return count_; }
    double sumNs() const { return sum_; }
    double minNs() const { return count_ ? min_ : 0.0; }
    double maxNs() const { return count_ ? max_ : 0.0; }
    double meanNs() const { return count_ ? sum_ / double(count_) : 0.0; }

    /** The bucket a value lands in. */
    static uint32_t bucketIndex(double ns);

    /** Inclusive lower edge of bucket i. */
    static double bucketFloorNs(uint32_t i);

    /** Exclusive upper edge of bucket i. */
    static double bucketCeilNs(uint32_t i);

    uint64_t bucketCount(uint32_t i) const { return buckets_.at(i); }

    /**
     * Nearest-rank quantile estimated from the buckets: the upper edge
     * of the bucket holding the q-ranked sample, clamped into the
     * exact observed [min, max]. Within a factor of 2, deterministic.
     */
    double percentileNs(double q) const;

    double p50Ns() const { return percentileNs(0.50); }
    double p99Ns() const { return percentileNs(0.99); }

    void reset();

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * The registry. Lookup-or-create by name; iteration is sorted by name
 * (std::map), so every export is deterministic.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name) { return counters_[name]; }
    Gauge &gauge(const std::string &name) { return gauges_[name]; }
    Summary &summary(const std::string &name) { return summaries_[name]; }
    LatencyHistogram &
    latency(const std::string &name)
    {
        return latencies_[name];
    }

    /** Read-only lookups; zero / nullptr when never registered. */
    uint64_t counterValue(const std::string &name) const;
    double gaugeValue(const std::string &name) const;
    const Summary *findSummary(const std::string &name) const;
    const LatencyHistogram *findLatency(const std::string &name) const;

    bool
    empty() const
    {
        return counters_.empty() && gauges_.empty() && summaries_.empty() &&
               latencies_.empty();
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Summary> &summaries() const
    {
        return summaries_;
    }

    /**
     * Flat `name -> value` view, sorted by name. Composite metrics
     * expand to suffixed entries: summaries to .count/.total/.mean/
     * .min/.max, latency histograms to .count/.sum_ns/.min_ns/.max_ns/
     * .p50_ns/.p99_ns.
     */
    std::vector<std::pair<std::string, double>> flatten() const;

    /** The flat view as a single JSON object (golden-file format). */
    std::string toJson() const;

    /** The flat view as a printable table. */
    Table toTable(const std::string &title) const;

    /** Forget every metric. */
    void clear();

    /**
     * Fold every metric of `o` into this registry, as if each event had
     * been recorded here directly. Gauges take `o`'s value when `o`
     * carries the name (last-writer-wins, matching sequential replay).
     * Used by the parallel sweep runner to merge per-point registries
     * in point order, which keeps exports byte-identical to a serial
     * run.
     */
    void mergeFrom(const MetricsRegistry &o);

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Summary> summaries_;
    std::map<std::string, LatencyHistogram> latencies_;
};

/**
 * A counter looked up by name on its first bump and held from then on,
 * for a site that counts on every call: counter(name) builds a string
 * and searches the registry each time. As with counter(name), a
 * counter that is never bumped never appears in an export.
 */
class LazyCounter
{
  public:
    LazyCounter(MetricsRegistry &registry, const char *name)
        : registry_(&registry), name_(name)
    {}

    void
    inc(uint64_t by = 1)
    {
        if (!counter_) [[unlikely]]
            counter_ = &registry_->counter(name_);
        counter_->inc(by);
    }

  private:
    MetricsRegistry *registry_;
    const char *name_;
    Counter *counter_ = nullptr;
};

} // namespace cxlfork::sim
