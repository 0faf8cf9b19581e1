/**
 * @file
 * The benchmark's catalogue: the workloads the driver implements, and the
 * metrics BENCHMARK.json declares. The metric names and units are read
 * from BENCHMARK.json, so the driver reports exactly what it declares.
 */

#ifndef PERFBENCH_CATALOGUE_HH
#define PERFBENCH_CATALOGUE_HH

#include <string>
#include <vector>

namespace perfbench
{

struct WorkloadDef
{
    const char *name;
    /** One line: why the workload is in the benchmark. */
    const char *why;
};

/** Every workload the driver runs, gated in BENCHMARK.json or not. */
const std::vector<WorkloadDef> &workloads();

struct MetricDef
{
    std::string name;
    std::string unit;
};

/** What BENCHMARK.json declares. */
struct Catalogue
{
    std::vector<std::string> workloads;
    /** Reported with --trace 0, by every workload. */
    std::vector<MetricDef> endToEnd;
    /** Reported with --trace 1, by every workload. */
    std::vector<MetricDef> perLayer;
};

/** Parse BENCHMARK.json at @p path; throws std::runtime_error when it
 *  cannot be read or lacks a workload or metric list. */
Catalogue loadCatalogue(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_CATALOGUE_HH
