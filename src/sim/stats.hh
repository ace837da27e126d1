/**
 * @file
 * Statistics primitives: counters, scalar summaries, and latency
 * histograms with percentile queries (P50/P99 for Fig. 10).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "time.hh"

namespace cxlfork::sim {

/** A monotonically growing event count. */
class Counter
{
  public:
    void inc(uint64_t by = 1) { value_ += by; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Running min/max/mean/total over double samples. */
class Summary
{
  public:
    void add(double v);

    /** Fold another summary in, as if its samples had been add()ed here. */
    void merge(const Summary &o);

    uint64_t count() const { return count_; }
    double total() const { return total_; }
    double mean() const { return count_ ? total_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    uint64_t count_ = 0;
    double total_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A sample-retaining distribution for exact percentile queries.
 *
 * The porter experiments record at most a few hundred thousand request
 * latencies, so retaining samples is cheap and keeps P99 exact.
 */
class Histogram
{
  public:
    void add(double v);
    void add(SimTime t) { add(t.toNs()); }

    uint64_t count() const { return samples_.size(); }
    /** Every sample, in the order add() saw them. */
    const std::vector<double> &samples() const { return samples_; }
    double mean() const;
    double min() const;
    double max() const;

    /** Exact q-quantile by nearest-rank, q in [0, 1]. */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }

    void clear();

  private:
    std::vector<double> samples_;
    /** A copy of samples_ that percentile() partitions in place. */
    mutable std::vector<double> selected_;
    mutable bool dirty_ = false;
};

} // namespace cxlfork::sim
