#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

/** The tail rule: a tail percentile needs this many samples beyond it. */
constexpr size_t kTailMinBeyond = 10;

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailAt(std::vector<double> values, double p)
{
    Tail tail;
    tail.percentile = p;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, values.size());
    tail.value = values[rank - 1];
    tail.beyond = values.size() - rank;
    return tail;
}

const std::vector<double> &
tailLadder()
{
    static const std::vector<double> ladder = {50.0, 75.0, 90.0,
                                               95.0, 99.0, 99.9};
    return ladder;
}

double
highestTailPercentile(size_t samples)
{
    double best = 0.0;
    for (double p : tailLadder()) {
        const double n = static_cast<double>(samples);
        const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
        if (samples >= rank && samples - rank >= kTailMinBeyond)
            best = p;
    }
    return best;
}

} // namespace perfbench
