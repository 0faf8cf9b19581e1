#include "service/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <climits>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "service/artifact_cache.hh"
#include "util/csv.hh"
#include "util/numbers.hh"

namespace zatel::service
{

namespace
{

std::string
trimmed(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
isSkippableLine(const std::string &line)
{
    const std::string t = trimmed(line);
    return t.empty() || t.front() == '#';
}

/** A 32-bit field: out of range is an error, never a wrapped value. */
uint32_t
parseU32(const std::string &value, const std::string &key)
{
    return static_cast<uint32_t>(parseUint(value, key, 0, UINT32_MAX));
}

/** The largest `threads` a recipe may ask for. */
constexpr uint32_t kMaxThreads = 4096;

bool
parseBool(const std::string &value, const std::string &key)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    throw CampaignError("cannot parse " + key + "='" + value +
                        "' as a boolean");
}

// ---- CSV '|' sweep expansion ----

std::vector<std::string>
splitSweepCell(const std::string &cell)
{
    std::vector<std::string> values;
    std::string value;
    std::istringstream stream(cell);
    while (std::getline(stream, value, '|'))
        values.push_back(trimmed(value));
    if (values.empty())
        values.push_back("");
    return values;
}

} // namespace

uint64_t
jobParamsHash(const CampaignJob &job)
{
    HashStream h;
    h.str("zatel.job.v1");
    h.str(job.scene);
    h.f32(job.sceneDetail);
    h.u64(job.sceneSeed);
    h.str(job.gpu);

    const core::ZatelParams &p = job.params;
    h.u32(p.width).u32(p.height).u32(p.samplesPerPixel);
    h.u8(static_cast<uint8_t>(p.partition.method))
        .u32(p.partition.chunkWidth)
        .u32(p.partition.chunkHeight);
    h.u8(static_cast<uint8_t>(p.selector.distribution))
        .u32(p.selector.blockWidth)
        .u32(p.selector.blockHeight)
        .f64(p.selector.minFraction)
        .f64(p.selector.maxFraction);
    h.boolean(p.selector.fixedFraction.has_value());
    if (p.selector.fixedFraction)
        h.f64(*p.selector.fixedFraction);
    h.u8(static_cast<uint8_t>(p.extrapolation));
    h.u64(p.regressionFractions.size());
    for (double fraction : p.regressionFractions)
        h.f64(fraction);
    h.boolean(p.downscaleGpu);
    h.boolean(p.forcedK.has_value());
    if (p.forcedK)
        h.u32(*p.forcedK);
    h.u8(static_cast<uint8_t>(p.profiler.source))
        .f64(p.profiler.timerNoise)
        .u64(p.profiler.seed);
    h.u32(p.quantizeColors);
    h.u64(p.seed);

    h.u32(job.bvh.maxLeafSize)
        .u32(job.bvh.sahBins)
        .f32(job.bvh.traversalCost)
        .f32(job.bvh.intersectionCost);
    h.boolean(job.withOracle);
    return h.digest();
}

std::string
autoJobId(const CampaignJob &job)
{
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08llx",
                  static_cast<unsigned long long>(jobParamsHash(job) &
                                                  0xFFFFFFFFull));
    std::string id = job.scene + "-" + job.gpu + "-r" +
                     std::to_string(job.params.width);
    if (job.withOracle)
        id += "-cmp";
    id += "-";
    id += hex;
    std::transform(id.begin(), id.end(), id.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return id;
}

gpusim::GpuConfig
gpuConfigFromName(const std::string &name)
{
    if (name == "soc" || name == "mobile")
        return gpusim::GpuConfig::mobileSoc();
    if (name == "rtx2060" || name == "rtx")
        return gpusim::GpuConfig::rtx2060();
    throw CampaignError("unknown GPU config '" + name +
                        "' (use soc or rtx2060)");
}

rt::SceneId
resolveSceneName(const std::string &name)
{
    std::string upper = name;
    for (char &c : upper)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    for (rt::SceneId id : rt::allScenes()) {
        if (upper == rt::sceneName(id))
            return id;
    }
    throw CampaignError("unknown scene '" + name + "'");
}

namespace
{

void
applyField(CampaignJob &job, const std::string &key,
           const std::string &value)
{
    if (key == "id") {
        job.id = value;
    } else if (key == "scene") {
        job.scene = value;
    } else if (key == "detail") {
        job.sceneDetail = static_cast<float>(
            parseDouble(value, key, -FLT_MAX, FLT_MAX));
    } else if (key == "scene_seed") {
        job.sceneSeed = parseUint(value, key);
    } else if (key == "gpu") {
        job.gpu = value;
    } else if (key == "res") {
        const uint32_t res = parseU32(value, key);
        job.params.width = res;
        job.params.height = res;
    } else if (key == "width") {
        job.params.width = parseU32(value, key);
    } else if (key == "height") {
        job.params.height = parseU32(value, key);
    } else if (key == "spp") {
        job.params.samplesPerPixel = parseU32(value, key);
    } else if (key == "seed") {
        job.params.seed = parseUint(value, key);
    } else if (key == "fraction") {
        job.params.selector.fixedFraction = parseDouble(value, key);
    } else if (key == "k") {
        job.params.forcedK = parseU32(value, key);
    } else if (key == "division") {
        if (value == "coarse")
            job.params.partition.method = core::DivisionMethod::CoarseGrained;
        else if (value == "fine")
            job.params.partition.method = core::DivisionMethod::FineGrained;
        else
            throw CampaignError("unknown division '" + value +
                                "' (fine|coarse)");
    } else if (key == "distribution") {
        if (value == "uniform")
            job.params.selector.distribution =
                core::DistributionMethod::Uniform;
        else if (value == "lintmp")
            job.params.selector.distribution =
                core::DistributionMethod::LinTemp;
        else if (value == "exptmp")
            job.params.selector.distribution =
                core::DistributionMethod::ExpTemp;
        else
            throw CampaignError("unknown distribution '" + value +
                                "' (uniform|lintmp|exptmp)");
    } else if (key == "regression") {
        job.params.extrapolation =
            parseBool(value, key)
                ? core::ExtrapolationMethod::ExponentialRegression
                : core::ExtrapolationMethod::Linear;
    } else if (key == "downscale") {
        job.params.downscaleGpu = parseBool(value, key);
    } else if (key == "profile_noise") {
        job.params.profiler.source = heatmap::ProfilingSource::HardwareTimer;
        job.params.profiler.timerNoise = parseDouble(value, key);
    } else if (key == "quantize_colors") {
        job.params.quantizeColors = parseU32(value, key);
    } else if (key == "threads") {
        job.params.numThreads = parseU32(value, key);
    } else if (key == "priority") {
        job.priority =
            static_cast<int>(parseDouble(value, key, INT_MIN, INT_MAX));
    } else if (key == "oracle") {
        job.withOracle = parseBool(value, key);
    } else {
        throw CampaignError("unknown job field '" + key + "'");
    }
}

/** A JSON string literal: the shared escaper, in quotes. */
std::string
quoted(const std::string &text)
{
    // Appended: g++ 12 raises a false -Wrestrict on `"\"" + std::string`.
    return std::string("\"").append(obs::jsonEscaped(text)).append("\"");
}

} // namespace

void
applyJobField(CampaignJob &job, const std::string &key,
              const std::string &value)
{
    if (value.empty())
        return; // empty CSV cell = keep the default
    try {
        applyField(job, key, value);
    } catch (const NumberError &err) {
        throw CampaignError(err.what());
    }
}

CampaignJob
jobFromJson(const obs::JsonValue &object)
{
    if (!object.isObject())
        throw CampaignError("expected a JSON object");
    CampaignJob job;
    for (const auto &[key, value] : object.objectValue) {
        switch (value.type) {
        case obs::JsonValue::Type::Null:
            break; // explicit null = keep the default
        case obs::JsonValue::Type::Bool:
            applyJobField(job, key, value.boolValue ? "true" : "false");
            break;
        case obs::JsonValue::Type::Number:
            applyJobField(job, key, value.numberText);
            break;
        case obs::JsonValue::Type::String:
            applyJobField(job, key, value.stringValue);
            break;
        default:
            throw CampaignError("field '" + key +
                                "' must be a string, number, boolean "
                                "or null");
        }
    }
    return job;
}

std::string
serializeJobJsonl(const CampaignJob &job)
{
    const core::ZatelParams &p = job.params;
    std::ostringstream oss;
    oss << "{\"id\":" << quoted(job.id)
        << ",\"scene\":" << quoted(job.scene)
        << ",\"detail\":" << obs::formatDouble17(job.sceneDetail)
        << ",\"scene_seed\":" << job.sceneSeed
        << ",\"gpu\":" << quoted(job.gpu)
        << ",\"width\":" << p.width << ",\"height\":" << p.height
        << ",\"spp\":" << p.samplesPerPixel << ",\"seed\":" << p.seed;
    if (p.selector.fixedFraction)
        oss << ",\"fraction\":"
            << obs::formatDouble17(*p.selector.fixedFraction);
    if (p.forcedK)
        oss << ",\"k\":" << *p.forcedK;
    oss << ",\"division\":"
        << (p.partition.method == core::DivisionMethod::CoarseGrained
                ? "\"coarse\""
                : "\"fine\"");
    const char *distribution = "uniform";
    if (p.selector.distribution == core::DistributionMethod::LinTemp)
        distribution = "lintmp";
    else if (p.selector.distribution == core::DistributionMethod::ExpTemp)
        distribution = "exptmp";
    oss << ",\"distribution\":\"" << distribution << "\"";
    oss << ",\"regression\":"
        << (p.extrapolation ==
                    core::ExtrapolationMethod::ExponentialRegression
                ? "true"
                : "false");
    oss << ",\"downscale\":" << (p.downscaleGpu ? "true" : "false");
    if (p.profiler.source == heatmap::ProfilingSource::HardwareTimer)
        oss << ",\"profile_noise\":"
            << obs::formatDouble17(p.profiler.timerNoise);
    oss << ",\"quantize_colors\":" << p.quantizeColors;
    oss << ",\"threads\":" << p.numThreads;
    oss << ",\"priority\":" << job.priority;
    oss << ",\"oracle\":" << (job.withOracle ? "true" : "false");
    oss << "}";
    const std::string line = oss.str();

    // Lossless-round-trip guarantee: a job whose state no campaign
    // field expresses (custom BVH params, a non-default profiler seed,
    // ...) must be rejected here, not silently altered on a worker.
    std::istringstream replay(line);
    std::vector<CampaignJob> reparsed = parseCampaignJsonl(replay);
    if (reparsed.size() != 1 || reparsed[0].id != job.id ||
        jobParamsHash(reparsed[0]) != jobParamsHash(job)) {
        throw CampaignError(
            "job '" + job.id +
            "' does not round-trip through campaign fields (state "
            "outside the serializable set, e.g. custom BVH build "
            "params); it cannot be dispatched to worker processes");
    }
    return line;
}

std::vector<CampaignJob>
parseCampaignJsonl(std::istream &in)
{
    std::vector<CampaignJob> jobs;
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (isSkippableLine(line))
            continue;
        try {
            jobs.push_back(jobFromJson(obs::parseJson(line)));
        } catch (const std::runtime_error &err) {
            // JsonError (syntax) or CampaignError (field value).
            throw CampaignError("line " + std::to_string(line_number) +
                                ": " + err.what());
        }
    }
    return jobs;
}

std::vector<CampaignJob>
parseCampaignCsv(std::istream &in)
{
    std::vector<CampaignJob> jobs;
    std::vector<std::string> header;
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (isSkippableLine(line))
            continue;
        if (header.empty()) {
            header = splitCsvLine(line);
            for (std::string &name : header)
                name = trimmed(name);
            continue;
        }
        std::vector<std::string> cells = splitCsvLine(line);
        if (cells.size() != header.size()) {
            throw CampaignError(
                "line " + std::to_string(line_number) + ": expected " +
                std::to_string(header.size()) + " cells, got " +
                std::to_string(cells.size()));
        }
        // Expand '|' sweep cells into the cartesian product of rows.
        std::vector<std::vector<std::string>> choices(cells.size());
        for (size_t i = 0; i < cells.size(); ++i)
            choices[i] = splitSweepCell(cells[i]);
        std::vector<size_t> index(cells.size(), 0);
        while (true) {
            CampaignJob job;
            try {
                for (size_t i = 0; i < header.size(); ++i)
                    applyJobField(job, header[i], choices[i][index[i]]);
            } catch (const CampaignError &err) {
                throw CampaignError("line " + std::to_string(line_number) +
                                    ": " + err.what());
            }
            jobs.push_back(std::move(job));
            // Odometer increment over the sweep choices.
            size_t column = 0;
            while (column < index.size()) {
                if (++index[column] < choices[column].size())
                    break;
                index[column] = 0;
                ++column;
            }
            if (column == index.size())
                break;
        }
    }
    return jobs;
}

void
checkRecipe(const CampaignJob &job)
{
    const core::ZatelParams &p = job.params;
    // Only a command-line recipe has no id here.
    const std::string where = job.id.empty() ? "" : "job '" + job.id + "': ";
    if (p.width == 0 || p.height == 0)
        throw CampaignError(where + "width and height must be at least 1");
    if (p.samplesPerPixel == 0)
        throw CampaignError(where + "spp must be at least 1");
    if (p.quantizeColors == 0)
        throw CampaignError(where + "quantize_colors must be at least 1");
    // The selector would clamp it; a 0% trace extrapolates to nonsense.
    const std::optional<double> &fraction = p.selector.fixedFraction;
    if (fraction && !(*fraction > 0.0 && *fraction <= 1.0)) {
        throw CampaignError(where + "fraction=" +
                            obs::formatDouble17(*fraction) +
                            " must lie in (0, 1]");
    }
    if (p.forcedK && *p.forcedK == 0)
        throw CampaignError(where + "k must be at least 1");
    if (p.numThreads > kMaxThreads) {
        throw CampaignError(where + "threads must be at most " +
                            std::to_string(kMaxThreads));
    }

    gpusim::GpuConfig gpu;
    try {
        gpu = gpuConfigFromName(job.gpu);
    } catch (const CampaignError &) {
        return; // fails its own job when it runs
    }
    const uint32_t k = core::effectiveK(p, gpu);
    if (p.downscaleGpu && k > 1 &&
        (gpu.numSms % k != 0 || gpu.numMemPartitions % k != 0)) {
        throw CampaignError(where + "k=" + std::to_string(k) +
                            " does not divide the " +
                            std::to_string(gpu.numSms) + " SMs and " +
                            std::to_string(gpu.numMemPartitions) +
                            " memory partitions of GPU '" + job.gpu +
                            "'");
    }
    const std::string empty_group =
        where + "a " + std::to_string(p.width) + "x" +
        std::to_string(p.height) + " image plane leaves one of its " +
        std::to_string(k) + " groups without pixels";
    if (k > static_cast<uint64_t>(p.width) * p.height ||
        core::divisionLeavesEmptyGroup(p.width, p.height, k, p.partition))
        throw CampaignError(empty_group);
}

void
finalizeCampaign(std::vector<CampaignJob> &jobs)
{
    if (jobs.empty())
        throw CampaignError("campaign contains no jobs");
    for (CampaignJob &job : jobs) {
        if (job.id.empty())
            job.id = autoJobId(job);
        checkRecipe(job);
    }
    std::set<std::string> seen;
    for (const CampaignJob &job : jobs) {
        if (!seen.insert(job.id).second) {
            throw CampaignError(
                "duplicate job id '" + job.id +
                "' (two jobs with identical parameters, or an explicit id "
                "used twice)");
        }
    }
}

void
GroupResilience::addOptions(ArgParser &args)
{
    args.addOption("group-retries", "1",
                   "retries per failed group simulation (0-100)");
    args.addOption("min-groups-fraction", "0.5",
                   "fraction of groups that must survive for a degraded "
                   "prediction (0-1)");
    args.addFlag("fail-fast", "any group failure fails the prediction");
}

GroupResilience
GroupResilience::fromArgs(const ArgParser &args)
{
    GroupResilience resilience;
    try {
        resilience.groupRetries =
            static_cast<uint32_t>(args.getUint("group-retries", 0, 100));
        resilience.minGroupsFraction =
            args.getDouble("min-groups-fraction", 0.0, 1.0);
    } catch (const NumberError &err) {
        throw CampaignError(err.what());
    }
    resilience.failFast = args.getFlag("fail-fast");
    return resilience;
}

void
GroupResilience::applyTo(core::ZatelParams &params) const
{
    params.groupRetries = groupRetries;
    params.minGroupsFraction = minGroupsFraction;
    params.failFast = failFast;
}

std::vector<CampaignJob>
loadCampaignFile(const std::string &path)
{
    // Spec loading happens once, before the scheduler exists; a bad
    // campaign file throws CampaignError and the run never starts, so
    // there is no mid-flight failure path for the resilience suite.
    // zatel-lint: allow(fault-site-coverage): pre-flight spec load
    std::ifstream in(path);
    if (!in.is_open())
        throw CampaignError("cannot open campaign file '" + path + "'");
    const bool is_csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    std::vector<CampaignJob> jobs =
        is_csv ? parseCampaignCsv(in) : parseCampaignJsonl(in);
    finalizeCampaign(jobs);
    return jobs;
}

} // namespace zatel::service
