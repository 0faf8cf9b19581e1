#include "streams.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench
{

namespace
{

const char *const kScenes[] = {"PARK", "BUNNY", "SPRNG", "BATH"};

} // namespace

uint64_t
pipelineSeed(uint64_t workload_seed)
{
    zatel::Rng rng(workload_seed ^ 0x5EED2A7E1ull);
    return rng.next();
}

zatel::core::ZatelParams
predictParkParams(uint64_t workload_seed)
{
    zatel::core::ZatelParams params;
    params.width = 160;
    params.height = 160;
    params.samplesPerPixel = 1;
    params.seed = pipelineSeed(workload_seed);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    params.numThreads = std::min(4u, hw);
    return params;
}

std::vector<zatel::service::CampaignJob>
campaignSweepJobs(uint64_t workload_seed)
{
    std::vector<zatel::service::CampaignJob> jobs;
    for (const char *scene : kScenes) {
        for (const char *gpu : {"soc", "rtx2060"}) {
            for (double fraction : {0.1, 0.2, 0.4}) {
                zatel::service::CampaignJob job;
                job.scene = scene;
                job.gpu = gpu;
                job.params.width = 160;
                job.params.height = 160;
                job.params.seed = pipelineSeed(workload_seed);
                job.params.selector.fixedFraction = fraction;
                job.withOracle = true;
                jobs.push_back(job);
            }
        }
    }
    zatel::service::finalizeCampaign(jobs);
    return jobs;
}

std::string
Recipe::body() const
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"scene\":\"%s\",\"gpu\":\"soc\",\"res\":48,"
                  "\"detail\":0.3,\"fraction\":%.1f,\"seed\":%llu}",
                  scene.c_str(), fraction,
                  static_cast<unsigned long long>(seed));
    return buffer;
}

RequestStream::RequestStream(uint64_t workload_seed)
    : rng_(workload_seed ^ 0x5E4BEull)
{
    for (uint32_t i = 0; i < kPoolSize; ++i)
        pool_.push_back(newRecipe());
}

std::vector<uint32_t>
RequestStream::initialPool() const
{
    std::vector<uint32_t> ids(kPoolSize);
    for (uint32_t i = 0; i < kPoolSize; ++i)
        ids[i] = i;
    return ids;
}

uint32_t
RequestStream::newRecipe()
{
    Recipe recipe;
    recipe.scene = kScenes[rng_.nextBounded(4)];
    recipe.fraction = 0.1 * static_cast<double>(1 + rng_.nextBounded(4));
    // Below 2^31 so the JSON number round-trips exactly.
    recipe.seed = 1 + rng_.nextBounded(0x7FFFFFFFull);
    recipes_.push_back(recipe);
    return static_cast<uint32_t>(recipes_.size() - 1);
}

uint32_t
RequestStream::next()
{
    if (rng_.nextBounded(kColdOneIn) == 0) {
        const uint32_t id = newRecipe();
        pool_[nextReplace_] = id;
        nextReplace_ = (nextReplace_ + 1) % kPoolSize;
        return id;
    }
    return pool_[rng_.nextBounded(kPoolSize)];
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    return static_cast<bool>(out);
}

} // namespace perfbench
