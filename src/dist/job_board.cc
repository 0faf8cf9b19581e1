#include "dist/job_board.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#ifdef __unix__
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/numbers.hh"

namespace zatel::dist
{

namespace
{

std::string
shardName(uint32_t shard)
{
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "shard-%04u", shard);
    return buffer;
}

} // namespace

std::string
BoardPaths::shardSpecPath(uint32_t shard) const
{
    // Shard specs are always JSONL (serializeJobJsonl output); only
    // the FRAGMENT format follows the final result file.
    return shardsDir() + "/" + shardName(shard) + ".jsonl";
}

std::string
BoardPaths::leasePath(uint32_t shard) const
{
    return leasesDir() + "/" + shardName(shard) + ".lease";
}

std::string
BoardPaths::partialFragmentPath(uint32_t shard) const
{
    return fragsDir() + "/" + shardName(shard) +
           (csv ? ".partial.csv" : ".partial.jsonl");
}

std::string
BoardPaths::fragmentPath(uint32_t shard) const
{
    return fragsDir() + "/" + shardName(shard) +
           (csv ? ".ok.csv" : ".ok.jsonl");
}

std::string
BoardPaths::exhaustedMarkerPath(uint32_t shard) const
{
    return fragsDir() + "/" + shardName(shard) + ".exhausted";
}

std::string
BoardPaths::workerStatsPath(uint64_t worker_id) const
{
    return statsDir() + "/worker-" + std::to_string(worker_id) + ".stats";
}

std::string
BoardPaths::workerLogPath(uint64_t worker_id) const
{
    return logsDir() + "/worker-" + std::to_string(worker_id) + ".log";
}

void
initBoard(const BoardPaths &paths, const BoardManifest &manifest)
{
    // Board setup is coordinator-side bootstrap: a failure here fails
    // the campaign before any worker exists, which is the fail-fast
    // route (worker.spawn covers the injectable spawn path).
    std::error_code ec;
    for (const std::string &dir :
         {paths.root, paths.shardsDir(), paths.leasesDir(),
          paths.fragsDir(), paths.statsDir(), paths.logsDir()}) {
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            throw std::runtime_error("job board: cannot create '" + dir +
                                     "': " + ec.message());
        }
    }
    const std::string tmp = paths.manifestPath() + ".tmp";
    {
        // zatel-lint: allow(fault-site-coverage): fail-fast bootstrap
        std::ofstream out(tmp, std::ios::trunc);
        out << "shards=" << manifest.shards << "\n"
            << "csv=" << (manifest.csv ? 1 : 0) << "\n"
            << "jobs=" << manifest.jobs << "\n";
        out.flush();
        if (!out.good()) {
            throw std::runtime_error("job board: cannot write " + tmp);
        }
    }
    // zatel-lint: allow(fault-site-coverage): fail-fast bootstrap
    std::filesystem::rename(tmp, paths.manifestPath(), ec);
    if (ec) {
        throw std::runtime_error("job board: cannot publish MANIFEST: " +
                                 ec.message());
    }
}

bool
readManifest(const BoardPaths &paths, BoardManifest &manifest)
{
    // Absence == "no board": the worker exits with a distinct code and
    // the coordinator's spawn monitoring handles it; no separate
    // injectable branch.
    // zatel-lint: allow(fault-site-coverage): absence == exit path
    std::ifstream in(paths.manifestPath());
    if (!in.is_open())
        return false;
    std::string line;
    bool saw_shards = false;
    while (std::getline(in, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        try {
            if (key == "shards") {
                manifest.shards = static_cast<uint32_t>(
                    parseUint(value, key, 0, UINT32_MAX));
                saw_shards = true;
            } else if (key == "csv") {
                manifest.csv = value == "1";
            } else if (key == "jobs") {
                manifest.jobs = parseUint(value, key);
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return saw_shards && manifest.shards > 0;
}

bool
tryClaimShard(const BoardPaths &paths, uint32_t shard, uint64_t worker_id)
{
#ifndef __unix__
    (void)paths;
    (void)shard;
    (void)worker_id;
    throw std::runtime_error("job board: leases need a POSIX filesystem");
#else
    // Injection point: a lease that cannot be written. The worker
    // skips the shard and retries the board; persistent failure makes
    // it exit code 3 and the coordinator respawn/exhaust.
    ZATEL_INJECT_FAULT_KEYED("dist.lease.write", shard);
    const std::string path = paths.leasePath(shard);
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        if (errno == EEXIST)
            return false; // someone else holds it
        throw std::runtime_error("job board: cannot claim " + path + ": " +
                                 std::strerror(errno));
    }
    char text[64];
    const int len =
        std::snprintf(text, sizeof(text), "%llu %ld\n",
                      static_cast<unsigned long long>(worker_id),
                      static_cast<long>(::getpid()));
    const bool wrote =
        len > 0 && ::write(fd, text, static_cast<size_t>(len)) == len;
    ::close(fd);
    if (!wrote) {
        // A content-less lease would be unattributable; release it and
        // report the claim as failed.
        std::error_code ec;
        std::filesystem::remove(path, ec);
        throw std::runtime_error("job board: short lease write to " + path);
    }
    return true;
#endif
}

bool
refreshLease(const BoardPaths &paths, uint32_t shard)
{
#ifndef __unix__
    (void)paths;
    (void)shard;
    return false;
#else
    // Injection point: the heartbeat stops. Non-throwing (shouldFire,
    // not ZATEL_INJECT_FAULT) because the heartbeat thread converts
    // persistent failure into a cooperative shard abort; see
    // worker.cc.
    if (ZATEL_FAULT_SITE("worker.heartbeat")->shouldFire(shard))
        return false;
    // utimensat with a null times pointer sets both timestamps to now
    // WITHOUT rewriting content — a concurrent readLease never sees a
    // half-written lease.
    return ::utimensat(AT_FDCWD, paths.leasePath(shard).c_str(), nullptr,
                       0) == 0;
#endif
}

LeaseInfo
readLease(const BoardPaths &paths, uint32_t shard)
{
    LeaseInfo info;
    // Absence is the common answer ("shard unclaimed"), not a failure.
    // zatel-lint: allow(fault-site-coverage): absence == unclaimed
    std::ifstream in(paths.leasePath(shard));
    if (!in.is_open())
        return info;
    unsigned long long worker = 0;
    long pid = 0;
    if (!(in >> worker >> pid))
        return info;
    info.exists = true;
    info.workerId = worker;
    info.pid = pid;
    return info;
}

double
leaseAgeSeconds(const BoardPaths &paths, uint32_t shard)
{
    std::error_code ec;
    const auto mtime =
        std::filesystem::last_write_time(paths.leasePath(shard), ec);
    if (ec)
        return -1.0;
    const auto age = std::filesystem::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count();
}

void
breakLease(const BoardPaths &paths, uint32_t shard)
{
    std::error_code ec;
    // Best-effort: an unremovable lease simply ages past the timeout
    // again and is reclaimed on the next scan.
    std::filesystem::remove(paths.leasePath(shard), ec);
}

void
publishFragment(const BoardPaths &paths, uint32_t shard)
{
    // Injection point: the publish rename. The partial file survives a
    // failure, so the rows are salvageable either by a retry or by the
    // coordinator's merge.
    ZATEL_INJECT_FAULT_KEYED("dist.fragment.write", shard);
    std::error_code ec;
    std::filesystem::rename(paths.partialFragmentPath(shard),
                            paths.fragmentPath(shard), ec);
    if (ec) {
        throw std::runtime_error(
            "job board: cannot publish fragment for shard " +
            std::to_string(shard) + ": " + ec.message());
    }
}

bool
shardDone(const BoardPaths &paths, uint32_t shard)
{
    std::error_code ec;
    return std::filesystem::exists(paths.fragmentPath(shard), ec);
}

bool
shardExhausted(const BoardPaths &paths, uint32_t shard)
{
    std::error_code ec;
    return std::filesystem::exists(paths.exhaustedMarkerPath(shard), ec);
}

void
markShardExhausted(const BoardPaths &paths, uint32_t shard,
                   const std::string &reason)
{
    // Coordinator-side bookkeeping; a failed marker write only means
    // one extra (idempotent, byte-identical) reassignment attempt.
    // zatel-lint: allow(fault-site-coverage): idempotent retry if lost
    std::ofstream out(paths.exhaustedMarkerPath(shard), std::ios::trunc);
    out << reason << "\n";
}

ChaosKillSpec
ChaosKillSpec::parse(const char *text)
{
    ChaosKillSpec spec;
    if (text == nullptr || text[0] == '\0')
        return spec;
    std::string s(text);
    const size_t at = s.find('@');
    if (at != std::string::npos) {
        spec.workerFilter = static_cast<int64_t>(parseUint(
            s.substr(at + 1), "ZATEL_WORKER_KILL worker id", 0, INT64_MAX));
        s = s.substr(0, at);
    }
    const size_t colon = s.find(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument(
            "ZATEL_WORKER_KILL: expected 'point:nth[@worker]', got '" +
            std::string(text) + "'");
    }
    spec.point = s.substr(0, colon);
    if (spec.point != "pre_lease" && spec.point != "mid_job" &&
        spec.point != "pre_publish") {
        throw std::invalid_argument(
            "ZATEL_WORKER_KILL: unknown point '" + spec.point +
            "' (pre_lease|mid_job|pre_publish)");
    }
    spec.nth = parseUint(s.substr(colon + 1), "ZATEL_WORKER_KILL nth", 1);
    spec.armed = true;
    return spec;
}

} // namespace zatel::dist
