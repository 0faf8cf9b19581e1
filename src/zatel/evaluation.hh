/**
 * @file
 * Prediction-vs-oracle error reporting shared by the benches.
 */

#ifndef ZATEL_ZATEL_EVALUATION_HH
#define ZATEL_ZATEL_EVALUATION_HH

#include <map>
#include <string>
#include <vector>

#include "gpusim/stats.hh"
#include "zatel/predictor.hh"

namespace zatel::core
{

/** One metric's prediction, reference and error. */
struct ComparisonRow
{
    gpusim::Metric metric;
    double predicted = 0.0;
    double oracle = 0.0;
    /** |predicted - oracle| / |oracle| in percent. */
    double errorPct = 0.0;
};

/** Compare predicted metric values against an oracle run. */
std::vector<ComparisonRow>
compareToOracle(const std::map<gpusim::Metric, double> &predicted,
                const gpusim::GpuStats &oracle);

/** Mean absolute error (percent) over comparison rows. */
double maeOf(const std::vector<ComparisonRow> &rows);

/** Error of one metric; fatal() if the metric is missing. */
double errorOf(const std::vector<ComparisonRow> &rows,
               gpusim::Metric metric);

/** The paper's speedup with one CPU core per group (Section III-A
 *  step 6): the oracle's thread CPU seconds over the costliest group's,
 *  so it does not move with whatever else the host runs. */
double oneCorePerGroupSpeedup(const OracleResult &oracle,
                              const ZatelResult &result);

/** Render rows as a paper-style ASCII table. */
std::string comparisonTable(const std::vector<ComparisonRow> &rows,
                            const std::string &title);

} // namespace zatel::core

#endif // ZATEL_ZATEL_EVALUATION_HH
