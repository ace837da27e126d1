#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "log.hh"

namespace cxlfork::sim {

void
Summary::add(double v)
{
    ++count_;
    total_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
Summary::merge(const Summary &o)
{
    if (o.count_ == 0)
        return;
    count_ += o.count_;
    total_ += o.total_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
}

void
Histogram::add(double v)
{
    samples_.push_back(v);
    dirty_ = true;
}

double
Histogram::mean() const
{
    if (samples_.empty())
        return 0.0;
    double t = 0.0;
    for (double v : samples_)
        t += v;
    return t / double(samples_.size());
}

double
Histogram::min() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.front();
}

double
Histogram::max() const
{
    ensureSorted();
    return sorted_.empty() ? 0.0 : sorted_.back();
}

double
Histogram::percentile(double q) const
{
    if (q < 0.0 || q > 1.0)
        panic("percentile q=%f out of [0,1]", q);
    ensureSorted();
    if (sorted_.empty())
        return 0.0;
    // Nearest-rank: the smallest sample with cumulative frequency >= q.
    const size_t n = sorted_.size();
    size_t rank = size_t(std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    return sorted_[rank - 1];
}

void
Histogram::clear()
{
    samples_.clear();
    sorted_.clear();
    dirty_ = false;
}

void
Histogram::ensureSorted() const
{
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
}

} // namespace cxlfork::sim
