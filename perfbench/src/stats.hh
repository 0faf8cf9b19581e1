/**
 * @file
 * Sample statistics for the benchmark: medians and tail percentiles with
 * the "at least ten samples beyond" rule. The run-to-run quartiles and
 * spread live in run.py, next to the steadiness mode that uses them.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median of @p values (mean of the middle two for even counts); 0 when
 *  empty. */
double median(std::vector<double> values);

/** A tail percentile of a sample set. */
struct Tail
{
    double percentile = 0.0; ///< e.g. 90 for p90
    double value = 0.0;      ///< nearest-rank value at that percentile
    size_t samples = 0;      ///< sample count
    size_t beyond = 0;       ///< samples strictly ranked above the value
};

/** Nearest-rank percentile @p p (0 < p <= 100) of @p values. */
Tail tailAt(std::vector<double> values, double p);

/** Percentiles the tail rule picks from, lowest first. */
const std::vector<double> &tailLadder();

/**
 * Highest ladder percentile with at least ten samples ranked above it in
 * a set of @p samples; 0 when even the lowest has fewer.
 */
double highestTailPercentile(size_t samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
