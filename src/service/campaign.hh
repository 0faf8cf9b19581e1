/**
 * @file
 * Campaign specifications for the batch prediction service.
 *
 * A campaign is a list of prediction jobs — (scene, GPU, ZatelParams)
 * combinations — parsed from either of two on-disk formats:
 *
 *   JSONL  one flat JSON object per line, read by obs::parseJson, e.g.
 *          {"scene": "PARK", "gpu": "soc", "res": 96, "fraction": 0.4}
 *   CSV    a header row naming job fields, one job per data row; a cell
 *          may hold several '|'-separated values, in which case the row
 *          expands to the cartesian product of all such cells:
 *          scene,gpu,res
 *          PARK|BUNNY,soc|rtx2060,96     -> four jobs
 *
 * Lines starting with '#' and blank lines are ignored in both formats.
 *
 * Jobs without an explicit "id" get a deterministic auto id derived from
 * the scene/GPU/resolution plus an 8-hex-digit hash of every remaining
 * parameter, so re-parsing the same campaign always names jobs the same
 * way — the property the resumable result store (result_store.hh) relies
 * on to skip already-completed jobs across runs.
 */

#ifndef ZATEL_SERVICE_CAMPAIGN_HH
#define ZATEL_SERVICE_CAMPAIGN_HH

#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/config.hh"
#include "obs/json.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "util/arg_parser.hh"
#include "zatel/predictor.hh"

namespace zatel::service
{

/** Malformed campaign file / unknown field / bad value. */
class CampaignError : public std::runtime_error
{
  public:
    explicit CampaignError(const std::string &message)
        : std::runtime_error("campaign: " + message)
    {
    }
};

/** One prediction job of a campaign. */
struct CampaignJob
{
    /** Unique job name; empty = derive with autoJobId(). */
    std::string id;

    /** Scene-library name (PARK, BUNNY, ...; case-insensitive). */
    std::string scene = "PARK";
    /** Procedural density multiplier for scene generation. */
    float sceneDetail = 1.0f;
    /** Seed for the procedural scene generators. */
    uint64_t sceneSeed = 0xC0FFEE;

    /** Target GPU name: soc | mobile | rtx2060 | rtx. */
    std::string gpu = "soc";

    /** Full pipeline configuration. */
    core::ZatelParams params;
    /** BVH build tuning (part of the scene-pack cache key). */
    rt::BvhBuildParams bvh;

    /** Scheduling priority; higher runs earlier. */
    int priority = 0;
    /** Also run the full simulation and report prediction errors. */
    bool withOracle = false;
};

/**
 * Stable hash of every job parameter except the id (used for auto ids
 * and by tests to detect accidental parameter drift).
 */
uint64_t jobParamsHash(const CampaignJob &job);

/**
 * Deterministic id: "<scene>-<gpu>-r<width>[-cmp]-<8 hex digits>".
 * Identical parameters always produce the identical id.
 */
std::string autoJobId(const CampaignJob &job);

/**
 * Resolve a GPU name (soc | mobile | rtx2060 | rtx) to its
 * configuration: the repository's one GPU-name table, shared by
 * campaigns, /predict, the zatel CLI, the benches and perfbench.
 * @throws CampaignError for unknown names.
 */
gpusim::GpuConfig gpuConfigFromName(const std::string &name);

/**
 * Resolve a scene-library name (case-insensitive): the repository's one
 * scene-name matcher. A typo throws, so it fails one campaign job or
 * serve request, or gives the CLI an error line, never the process.
 * @throws CampaignError for unknown names.
 */
rt::SceneId resolveSceneName(const std::string &name);

/**
 * Apply one "key = value" field to @p job; an empty value keeps the
 * default. Every reader (campaign JSONL and CSV, /predict) ends here.
 * Recognized keys: id scene detail scene_seed gpu res width height spp
 * seed fraction k division distribution regression downscale
 * profile_noise quantize_colors threads priority oracle.
 * Integers are base 10; numbers must be finite and fit their field.
 * @throws CampaignError for unknown keys or unparsable values.
 */
void applyJobField(CampaignJob &job, const std::string &key,
                   const std::string &value);

/**
 * Build a job from one parsed JSON object: campaign JSONL lines and
 * /predict bodies both come through here. Members apply in document
 * order, numbers as their literal text; null keeps the default.
 * @throws CampaignError when @p object is not an object, a member is
 *         an array or object, or applyJobField() rejects a value.
 */
CampaignJob jobFromJson(const obs::JsonValue &object);

/**
 * Serialize @p job as one flat JSONL campaign line (the exact format
 * parseCampaignJsonl reads back). The distributed coordinator uses this
 * to write shard spec files, so the round trip must be lossless: the
 * function re-parses its own output and throws CampaignError when the
 * result's id or jobParamsHash differs (a job carrying state that no
 * campaign field can express, e.g. custom BVH build params).
 */
std::string serializeJobJsonl(const CampaignJob &job);

/** Parse a JSONL campaign stream (one flat JSON object per line). */
std::vector<CampaignJob> parseCampaignJsonl(std::istream &in);

/** Parse a CSV campaign stream, expanding '|' sweep cells. */
std::vector<CampaignJob> parseCampaignCsv(std::istream &in);

/**
 * Parse a campaign file, dispatching on its extension (.csv -> CSV,
 * anything else -> JSONL). Fills in auto ids and verifies id uniqueness.
 * @throws CampaignError on I/O failure or malformed content.
 */
std::vector<CampaignJob> loadCampaignFile(const std::string &path);

/**
 * Reject a recipe the predictor cannot run, before it starts: width,
 * height, spp and quantize_colors must be at least 1; a fixed fraction
 * must lie in (0, 1]; a forced k must be at least 1 and divide the
 * GPU's SM and memory-partition counts when the GPU is downscaled;
 * threads must be at most 4096; and every image-plane group
 * (core::effectiveK groups from core::divideImagePlane) must get at
 * least one pixel, which core::divisionLeavesEmptyGroup decides
 * without building the plane, so a huge image is not allocated here.
 * An unknown GPU name is left to fail its own job when it runs, like
 * an unknown scene. finalizeCampaign(), the /predict parser and the
 * zatel CLI all call this.
 * @throws CampaignError naming the job (when it has an id) and the
 *         broken rule.
 */
void checkRecipe(const CampaignJob &job);

/**
 * The group-resilience options of zatel, zatel-batch and zatel-worker
 * (docs/ROBUSTNESS.md). They belong to the process, not to a recipe:
 * zatel-batch forwards them to its workers on the command line.
 */
struct GroupResilience
{
    uint32_t groupRetries = 1;
    double minGroupsFraction = 0.5;
    bool failFast = false;

    /** Declare --group-retries, --min-groups-fraction and --fail-fast. */
    static void addOptions(ArgParser &args);
    /** Read them. @throws CampaignError for a value out of range. */
    static GroupResilience fromArgs(const ArgParser &args);
    void applyTo(core::ZatelParams &params) const;
};

/**
 * Finalize a parsed job list: derive missing ids, verify uniqueness and
 * checkRecipe() every job. Exposed separately for campaigns assembled
 * programmatically.
 * @throws CampaignError on duplicate ids, an empty list or a recipe
 *         checkRecipe() rejects.
 */
void finalizeCampaign(std::vector<CampaignJob> &jobs);

} // namespace zatel::service

#endif // ZATEL_SERVICE_CAMPAIGN_HH
