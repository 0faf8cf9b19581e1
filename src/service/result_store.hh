/**
 * @file
 * Thread-safe, resumable result sink for campaign runs.
 *
 * Every finished job appends exactly one row — predictions, optional
 * oracle reference values, timings and a status — to an on-disk JSONL or
 * CSV file (chosen by extension) and to an in-memory list. Appends are
 * flushed row-by-row so a crashed or interrupted campaign leaves a valid
 * file behind; doubles are printed with %.17g so re-reading a row
 * reproduces the exact bit pattern.
 *
 * Resume support: completedJobIds() scans an existing result file and
 * returns the ids of jobs that finished with status "ok". A resumed
 * campaign run opens the store in append mode and skips those jobs, so
 * only missing/failed work re-executes (job ids are deterministic, see
 * campaign.hh).
 *
 * Row order across a concurrent campaign is scheduler-completion order
 * and therefore nondeterministic; consumers that diff result files must
 * sort rows by job id first (the CI batch smoke test does).
 */

#ifndef ZATEL_SERVICE_RESULT_STORE_HH
#define ZATEL_SERVICE_RESULT_STORE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "gpusim/stats.hh"
#include "obs/json.hh"

namespace zatel::service
{

/** Terminal status of one campaign job. */
enum class JobStatus : uint8_t
{
    Ok = 0,       ///< prediction (and oracle, if requested) completed
    Failed = 1,   ///< an exception escaped the job
    Cancelled = 2,///< campaign was cancelled before the job finished
    TimedOut = 3, ///< per-job wall-clock timeout expired
    Skipped = 4,  ///< already "ok" in a resumed result file; not re-run
    /** Prediction assembled from surviving groups after some failed
     *  every retry, or the optional oracle run failed while the
     *  prediction itself succeeded (docs/ROBUSTNESS.md). The predicted
     *  metrics are present but carry widened sampling error. */
    Degraded = 5,
};

const char *jobStatusName(JobStatus status);

/** Stable snake_case key per Table I metric (row column names). */
const char *metricJsonKey(gpusim::Metric metric);

// The repo's JSON writers (obs/json.hh), also reachable under the
// service names existing callers use.
using obs::formatDouble17;
using obs::jsonEscaped;

/**
 * One row recovered from an existing result file by scanRows():
 * the parsed identity plus the raw serialized line, so a merge can
 * republish the row byte-identically (the distributed coordinator
 * copies worker fragment rows into the final store this way).
 */
struct ScannedRow
{
    std::string jobId;
    JobStatus status = JobStatus::Ok;
    /** The full line as stored on disk (no trailing newline). */
    std::string rawLine;
};

/** One result row (one finished job). */
struct ResultRow
{
    std::string jobId;
    JobStatus status = JobStatus::Ok;
    std::string scene;
    std::string gpu;

    uint32_t k = 0;
    double fractionTraced = 0.0;

    /** Predicted Table I metrics (empty for non-Ok rows). */
    std::map<gpusim::Metric, double> predicted;
    /** Oracle reference metrics (empty unless the job ran one). */
    std::map<gpusim::Metric, double> oracle;

    double preprocessSeconds = 0.0;
    double simSeconds = 0.0;
    double maxGroupSeconds = 0.0;
    double oracleSeconds = 0.0;

    /** Failure message for non-Ok rows. */
    std::string error;

    // ---- Degraded-row detail (docs/ROBUSTNESS.md). Serialized only
    // ---- for Degraded rows so Ok rows stay byte-identical to
    // ---- pre-resilience output. ----
    /** Groups excluded from the combine step. */
    uint32_t failedGroups = 0;
    /** Sum-rule re-weighting factor applied to the survivors. */
    double survivorExtrapolation = 1.0;
};

/**
 * One result row as a JSONL object (no newline): the line a JSONL
 * ResultStore writes, the distributed merge copies and /predict
 * answers. @p include_timing adds the wall-clock columns.
 */
std::string formatJsonlRow(const ResultRow &row, bool include_timing);

/** ResultStore construction options. */
struct ResultStoreOptions
{
    /**
     * Emit the wall-clock columns. Off for determinism checks (the
     * CI smoke test diffs two runs' rows byte-for-byte).
     */
    bool includeTiming = true;
    /** Append to an existing file instead of truncating it. */
    bool append = false;
};

/**
 * The sink. append() is safe to call from any scheduler worker.
 */
class ResultStore
{
  public:
    using Options = ResultStoreOptions;

    /**
     * @param path Output file; ".csv" selects CSV, anything else JSONL.
     *        Empty = in-memory only (tests).
     * Calls fatal() when the file cannot be opened.
     */
    explicit ResultStore(std::string path, Options options = {});

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Append one row (thread-safe; flushes the file). Never throws on
     * I/O problems: the row is always retained in memory, a failed
     * file write is warned about and counted (writeFailures()), and
     * the campaign carries on — losing one row's persistence must not
     * take down the batch (docs/ROBUSTNESS.md).
     */
    void append(const ResultRow &row);

    /**
     * Append an already-serialized row verbatim (same failure handling
     * as append(): never throws, failed writes are counted and the
     * identity retained in memory). The distributed merge uses this to
     * copy worker fragment rows byte-identically; @p raw_line must be
     * one line in this store's format without the trailing newline.
     */
    void appendRawLine(const std::string &raw_line,
                       const std::string &job_id, JobStatus status);

    /**
     * Flush and fsync the underlying file (when one is open). Called
     * once after a campaign completes so a machine crash immediately
     * after the run cannot lose acknowledged rows.
     */
    void finalize();

    /** File writes that failed (I/O error or injected fault). */
    uint64_t writeFailures() const;

    /** Snapshot of all rows appended so far. */
    std::vector<ResultRow> rows() const;

    size_t rowCount() const;

    /** Rows with a given status. */
    size_t countWithStatus(JobStatus status) const;

    const std::string &path() const { return path_; }
    bool csv() const { return csv_; }

    /** Serialize one row in this store's format (without newline). */
    std::string formatRow(const ResultRow &row) const;

    /**
     * Ids of jobs recorded as completed in an existing result file;
     * empty for a missing/unreadable file. Works for both formats.
     * "ok" and "skipped" rows always count; "degraded" rows count by
     * default (their prediction is usable) unless @p degraded_as_done
     * is false — zatel-batch's --retry-degraded flag clears it so a
     * resumed run re-executes them (docs/ROBUSTNESS.md).
     *
     * Crash tolerance: a final line truncated mid-append (the writer
     * died between write and flush, e.g. kill -9) is ignored — JSONL
     * rows must parse as one JSON object, CSV rows must carry the
     * header's cell count — so --resume re-executes that job instead
     * of trusting half a row.
     */
    static std::set<std::string>
    completedJobIds(const std::string &path, bool degraded_as_done = true);

    /**
     * Every parseable row of an existing result file, in file order,
     * with the same torn-line tolerance as completedJobIds(). Rows
     * whose status is not in the jobStatusName() catalog are skipped.
     * The distributed coordinator merges worker fragments with this.
     */
    static std::vector<ScannedRow> scanRows(const std::string &path);

    /**
     * Truncate a trailing partial line (one missing its '\n': the
     * writer died mid-append) so the file can be reopened in append
     * mode without the next row gluing onto half a row. Returns the
     * number of bytes removed (0 when the file is absent or clean).
     * Every resume-then-append path (worker fragment resume, zatel-batch
     * --resume) must call this before reopening the file.
     */
    static uint64_t repairTruncatedTail(const std::string &path);

  private:
    /** CSV header matching formatRow's column order. */
    std::string csvHeader() const;

    const std::string path_;
    const Options options_;
    const bool csv_;

    mutable std::mutex mutex_;
    std::ofstream file_;
    std::vector<ResultRow> rows_;
    uint64_t writeFailures_ = 0; ///< Guarded by mutex_.
};

} // namespace zatel::service

#endif // ZATEL_SERVICE_RESULT_STORE_HH
