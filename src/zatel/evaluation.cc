#include "zatel/evaluation.hh"

#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/table.hh"

namespace zatel::core
{

std::vector<ComparisonRow>
compareToOracle(const std::map<gpusim::Metric, double> &predicted,
                const gpusim::GpuStats &oracle)
{
    std::vector<ComparisonRow> rows;
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        auto it = predicted.find(metric);
        ZATEL_ASSERT(it != predicted.end(), "prediction missing metric ",
                     gpusim::metricName(metric));
        ComparisonRow row;
        row.metric = metric;
        row.predicted = it->second;
        row.oracle = oracle.metricValue(metric);
        row.errorPct = relativeErrorPct(row.predicted, row.oracle);
        rows.push_back(row);
    }
    return rows;
}

double
maeOf(const std::vector<ComparisonRow> &rows)
{
    if (rows.empty())
        return 0.0;
    double acc = 0.0;
    for (const ComparisonRow &row : rows)
        acc += row.errorPct;
    return acc / static_cast<double>(rows.size());
}

double
errorOf(const std::vector<ComparisonRow> &rows, gpusim::Metric metric)
{
    for (const ComparisonRow &row : rows) {
        if (row.metric == metric)
            return row.errorPct;
    }
    fatal("metric ", gpusim::metricName(metric),
          " not present in comparison rows");
}

double
oneCorePerGroupSpeedup(const OracleResult &oracle, const ZatelResult &result)
{
    return oracle.cpuSeconds / (result.maxGroupCpuSeconds + 1e-9);
}

std::string
comparisonTable(const std::vector<ComparisonRow> &rows,
                const std::string &title)
{
    AsciiTable table({"Metric", "Zatel", "Oracle", "Abs Error"});
    for (const ComparisonRow &row : rows) {
        table.addRow({gpusim::metricName(row.metric),
                      AsciiTable::num(row.predicted, 4),
                      AsciiTable::num(row.oracle, 4),
                      AsciiTable::pct(row.errorPct)});
    }
    std::string out = title.empty() ? "" : (title + "\n");
    out += table.toString();
    out += "MAE: " + AsciiTable::pct(maeOf(rows)) + "\n";
    return out;
}

} // namespace zatel::core
