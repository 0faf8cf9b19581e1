/**
 * @file
 * The process options of a campaign run (docs/SERVICE.md): the pool,
 * the artifact cache, the job and stall budgets, the retries and the
 * row format. zatel-batch and zatel-worker declare and read them here,
 * and zatel-batch hands its values to its workers with toArgs().
 */

#ifndef ZATEL_SERVICE_CAMPAIGN_OPTIONS_HH
#define ZATEL_SERVICE_CAMPAIGN_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/campaign.hh"
#include "service/scheduler.hh"
#include "util/arg_parser.hh"

namespace zatel::service
{

/** One campaign process's options (ranges: fromArgs()). */
struct CampaignOptions
{
    /** --jobs: scheduler pool size; 0 = hardware threads. */
    size_t jobs = 0;
    /** --cache-dir: artifact persistence directory; "" = memory only. */
    std::string cacheDir;
    /** --cache-mb: in-memory artifact budget in MiB. */
    uint64_t cacheMb = 512;
    /** --cache-disk-mb: disk-tier budget in MiB; 0 = unlimited. */
    uint64_t cacheDiskMb = 0;
    /** --timeout: per-job wall-clock budget in seconds; 0 = none. */
    double timeoutSeconds = 0.0;
    /** --stall-timeout-ms: stall watchdog; 0 = off. */
    double stallTimeoutMs = 0.0;
    /** --stage-retries: start-stage and oracle retries. */
    uint32_t stageRetries = 1;
    /** --group-retries, --min-groups-fraction, --fail-fast. */
    GroupResilience resilience;
    /** Cleared by --no-timing: wall-clock fields in result rows. */
    bool includeTiming = true;
    /** --quiet: no per-job progress lines. */
    bool quiet = false;

    bool operator==(const CampaignOptions &) const = default;

    /** Declare --jobs ... --quiet on @p args. */
    static void addOptions(ArgParser &args);
    /**
     * Read them, each checked against its range.
     * @throws NumberError for a malformed or out-of-range number, and
     *         CampaignError from GroupResilience::fromArgs().
     */
    static CampaignOptions fromArgs(const ArgParser &args);
    /** The command line fromArgs() reads back as these options. */
    std::vector<std::string> toArgs() const;

    /** The scheduler settings: pool, budgets and stage retries. */
    SchedulerParams schedulerParams() const;
};

} // namespace zatel::service

#endif // ZATEL_SERVICE_CAMPAIGN_OPTIONS_HH
