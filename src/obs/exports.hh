/**
 * @file
 * The --trace-out and --metrics-out files of zatel, zatel-batch and
 * zatel-serve (docs/OBSERVABILITY.md). An empty path skips its file.
 */

#ifndef ZATEL_OBS_EXPORTS_HH
#define ZATEL_OBS_EXPORTS_HH

#include <string>

namespace zatel::obs
{

/**
 * Turn on the trace recorder (naming this thread "main") and the
 * metrics registry. Call it before any thread pool exists, so the
 * workers register their trace names.
 */
void enableExports(const std::string &trace_path,
                   const std::string &metrics_path);

/**
 * Stop tracing and write both files (metrics: .json = JSON, anything
 * else = Prometheus text), printing a "wrote" line for each.
 * @return false when a file could not be written (after a warning).
 */
bool writeExports(const std::string &trace_path,
                  const std::string &metrics_path);

} // namespace zatel::obs

#endif // ZATEL_OBS_EXPORTS_HH
