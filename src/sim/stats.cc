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
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
}

double
Histogram::max() const
{
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::percentile(double q) const
{
    if (q < 0.0 || q > 1.0)
        panic("percentile q=%f out of [0,1]", q);
    if (samples_.empty())
        return 0.0;
    // Nearest-rank: the smallest sample with cumulative frequency >= q.
    // Selection puts that sample where a full sort would, in linear
    // time; the copy stays a permutation of the samples, so later
    // queries select from it again.
    const size_t n = samples_.size();
    size_t rank = size_t(std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    if (dirty_) {
        selected_ = samples_;
        dirty_ = false;
    }
    const auto nth = selected_.begin() + std::ptrdiff_t(rank - 1);
    std::nth_element(selected_.begin(), nth, selected_.end());
    return *nth;
}

void
Histogram::clear()
{
    samples_.clear();
    selected_.clear();
    dirty_ = false;
}

} // namespace cxlfork::sim
