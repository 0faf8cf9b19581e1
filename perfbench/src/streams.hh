/**
 * @file
 * Seeded workload inputs. Everything a workload feeds the program comes
 * from here and depends only on the workload seed, so the same seed
 * gives the same inputs; each workload writes what it used next to its
 * results.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/campaign.hh"
#include "util/rng.hh"
#include "zatel/predictor.hh"

namespace perfbench
{

/** Pipeline seed derived from the workload seed. */
uint64_t pipelineSeed(uint64_t workload_seed);

/** predict-park: PARK on the Mobile SoC, 160x160, 1 spp, default
 *  selection (Eq. 1, fine 32x2 division), min(4, nproc) threads. */
zatel::core::ZatelParams predictParkParams(uint64_t workload_seed);

/** campaign-sweep: {PARK, BUNNY, SPRNG, BATH} x {soc, rtx2060} x
 *  fraction {0.1, 0.2, 0.4} at 160x160 with the oracle on (24 jobs),
 *  finalized. The submission order is fixed: the makespan depends on
 *  it, and a seed-dependent order would only add spread. */
std::vector<zatel::service::CampaignJob> campaignSweepJobs(
    uint64_t workload_seed);

/** One small /predict recipe of serve-mixed. */
struct Recipe
{
    std::string scene;
    double fraction = 0.0;
    uint64_t seed = 0;

    /** The request body (res 48, detail 0.3, Mobile SoC). */
    std::string body() const;
};

/**
 * serve-mixed's shared request stream. A live pool of kPoolSize recipes
 * starts with kPoolSize pre-generated ones; each request then names a
 * brand-new recipe with probability 1/kColdOneIn (replacing the oldest
 * pool entry, so later requests soon repeat it) and otherwise a uniform
 * pool member. next() is deterministic in call order; callers on
 * several threads serialize it.
 */
class RequestStream
{
  public:
    static constexpr uint32_t kPoolSize = 16;
    static constexpr uint32_t kColdOneIn = 8;

    explicit RequestStream(uint64_t workload_seed);

    /** Recipe ids of the initial pool (answered during warm-up). */
    std::vector<uint32_t> initialPool() const;

    /** Recipe id of the next request. */
    uint32_t next();

    const Recipe &recipe(uint32_t id) const { return recipes_[id]; }
    size_t recipeCount() const { return recipes_.size(); }

  private:
    uint32_t newRecipe();

    zatel::Rng rng_;
    std::vector<Recipe> recipes_;
    std::vector<uint32_t> pool_;
    uint32_t nextReplace_ = 0;
};

/** Write @p text to @p path; false on I/O failure. */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH
