#include "service/campaign_options.hh"

#include "obs/json.hh"

namespace zatel::service
{

void
CampaignOptions::addOptions(ArgParser &args)
{
    args.addOption("jobs", "0",
                   "shared-pool worker count, 0-4096 (0 = hardware "
                   "concurrency)");
    args.addOption("cache-dir", "",
                   "persist heatmaps/oracle stats here across runs");
    args.addOption("cache-mb", "512",
                   "in-memory artifact cache budget in MiB (1-1048576)");
    args.addOption("cache-disk-mb", "0",
                   "disk-tier byte budget for --cache-dir in MiB, "
                   "0-1048576 (0 = unlimited)");
    args.addOption("timeout", "0",
                   "per-job wall-clock budget in seconds, 0-86400 (0 = "
                   "none)");
    args.addOption("stall-timeout-ms", "0",
                   "cancel+retry a group/oracle simulation making no "
                   "simulated-cycle progress for this long, 0-86400000 "
                   "(0 = no watchdog)");
    args.addOption("stage-retries", "1",
                   "retries for transient start-stage/oracle failures "
                   "(0-100)");
    GroupResilience::addOptions(args);
    args.addFlag("no-timing",
                 "omit wall-clock fields from result rows (for "
                 "byte-identical run-to-run diffs)");
    args.addFlag("quiet", "suppress the per-job progress lines");
}

CampaignOptions
CampaignOptions::fromArgs(const ArgParser &args)
{
    CampaignOptions options;
    options.jobs = static_cast<size_t>(args.getUint("jobs", 0, 4096));
    options.cacheDir = args.get("cache-dir");
    options.cacheMb = args.getUint("cache-mb", 1, 1 << 20);
    options.cacheDiskMb = args.getUint("cache-disk-mb", 0, 1 << 20);
    options.timeoutSeconds = args.getDouble("timeout", 0.0, 86400.0);
    options.stallTimeoutMs =
        args.getDouble("stall-timeout-ms", 0.0, 86400000.0);
    options.stageRetries =
        static_cast<uint32_t>(args.getUint("stage-retries", 0, 100));
    options.resilience = GroupResilience::fromArgs(args);
    options.includeTiming = !args.getFlag("no-timing");
    options.quiet = args.getFlag("quiet");
    return options;
}

std::vector<std::string>
CampaignOptions::toArgs() const
{
    std::vector<std::string> args = {
        "--jobs", std::to_string(jobs),
        "--cache-mb", std::to_string(cacheMb),
        "--cache-disk-mb", std::to_string(cacheDiskMb),
        "--timeout", obs::formatDouble17(timeoutSeconds),
        "--stall-timeout-ms", obs::formatDouble17(stallTimeoutMs),
        "--stage-retries", std::to_string(stageRetries),
        "--group-retries", std::to_string(resilience.groupRetries),
        "--min-groups-fraction",
        obs::formatDouble17(resilience.minGroupsFraction)};
    if (!cacheDir.empty())
        args.insert(args.end(), {"--cache-dir", cacheDir});
    if (resilience.failFast)
        args.push_back("--fail-fast");
    if (!includeTiming)
        args.push_back("--no-timing");
    if (quiet)
        args.push_back("--quiet");
    return args;
}

SchedulerParams
CampaignOptions::schedulerParams() const
{
    SchedulerParams params;
    params.workers = jobs;
    params.jobTimeoutSeconds = timeoutSeconds;
    params.stallTimeoutSeconds = stallTimeoutMs / 1000.0;
    params.stageRetries = stageRetries;
    return params;
}

} // namespace zatel::service
