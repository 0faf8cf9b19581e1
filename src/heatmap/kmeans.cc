#include "heatmap/kmeans.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "util/logging.hh"

namespace zatel::heatmap
{

namespace
{

uint32_t
nearestCentroid(const rt::Vec3 &point,
                const std::vector<rt::Vec3> &centroids, float &best_d2)
{
    uint32_t best = 0;
    best_d2 = std::numeric_limits<float>::max();
    for (uint32_t c = 0; c < centroids.size(); ++c) {
        float d2 = lengthSquared(point - centroids[c]);
        if (d2 < best_d2) {
            best_d2 = d2;
            best = c;
        }
    }
    return best;
}

/**
 * The input's distinct points, matched by bit pattern. A point's nearest
 * centroid depends only on its bits, so the search runs once per
 * distinct point instead of once per point (a quantized heatmap has a
 * few hundred distinct colours among tens of thousands of pixels).
 */
struct DistinctPoints
{
    /** One entry per distinct bit pattern, in order of first use. */
    std::vector<rt::Vec3> values;
    /** Input index -> index into values. */
    std::vector<uint32_t> of;

    explicit DistinctPoints(const std::vector<rt::Vec3> &points)
    {
        struct BitsHash
        {
            size_t
            operator()(const std::array<uint32_t, 3> &bits) const
            {
                uint64_t h = bits[0];
                h = h * 0x9E3779B97F4A7C15ull ^ bits[1];
                h = h * 0x9E3779B97F4A7C15ull ^ bits[2];
                return static_cast<size_t>(h ^ (h >> 29));
            }
        };
        std::unordered_map<std::array<uint32_t, 3>, uint32_t, BitsHash>
            index;
        of.resize(points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            std::array<uint32_t, 3> bits;
            std::memcpy(bits.data(), &points[i].x, sizeof(float));
            std::memcpy(bits.data() + 1, &points[i].y, sizeof(float));
            std::memcpy(bits.data() + 2, &points[i].z, sizeof(float));
            auto [it, inserted] = index.try_emplace(
                bits, static_cast<uint32_t>(values.size()));
            if (inserted)
                values.push_back(points[i]);
            of[i] = it->second;
        }
    }

    /** Nearest centroid and its squared distance, per distinct point. */
    void
    nearest(const std::vector<rt::Vec3> &centroids,
            std::vector<uint32_t> &cluster, std::vector<float> &d2) const
    {
        cluster.resize(values.size());
        d2.resize(values.size());
        for (size_t d = 0; d < values.size(); ++d)
            cluster[d] = nearestCentroid(values[d], centroids, d2[d]);
    }
};

/**
 * k-means++ seeding: spread the initial centroids apart. The distance
 * total and the pick walk every point in index order, as the per-point
 * loop did, so the pick is bit-identical.
 */
std::vector<rt::Vec3>
seedPlusPlus(const std::vector<rt::Vec3> &points,
             const DistinctPoints &distinct, uint32_t k, Rng &rng)
{
    std::vector<rt::Vec3> centroids;
    centroids.reserve(k);
    centroids.push_back(points[rng.nextBounded(points.size())]);

    std::vector<uint32_t> cluster;
    std::vector<float> d2;
    while (centroids.size() < k) {
        distinct.nearest(centroids, cluster, d2);
        double total = 0.0;
        for (size_t i = 0; i < points.size(); ++i)
            total += d2[distinct.of[i]];
        if (total <= 1e-12) {
            // All points coincide with existing centroids; duplicate one.
            centroids.push_back(centroids.back());
            continue;
        }
        double pick = rng.nextDouble() * total;
        size_t chosen = points.size() - 1;
        double acc = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            acc += d2[distinct.of[i]];
            if (acc >= pick) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

} // namespace

KMeansResult
kmeans(const std::vector<rt::Vec3> &points, const KMeansParams &params,
       Rng &rng)
{
    ZATEL_ASSERT(!points.empty(), "kmeans needs at least one point");
    ZATEL_ASSERT(params.k >= 1, "kmeans needs k >= 1");

    uint32_t k = std::min<uint32_t>(params.k,
                                    static_cast<uint32_t>(points.size()));

    const DistinctPoints distinct(points);
    KMeansResult result;
    result.centroids = seedPlusPlus(points, distinct, k, rng);
    result.assignment.assign(points.size(), 0);

    std::vector<rt::Vec3> sums(k);
    std::vector<size_t> counts(k);
    std::vector<uint32_t> cluster;
    std::vector<float> d2;

    for (uint32_t iter = 0; iter < params.maxIterations; ++iter) {
        ++result.iterations;
        bool changed = false;
        std::fill(sums.begin(), sums.end(), rt::Vec3(0.0f));
        std::fill(counts.begin(), counts.end(), 0u);

        // Float sums accumulate in point order: reordering them would
        // change the centroids' bits.
        distinct.nearest(result.centroids, cluster, d2);
        for (size_t i = 0; i < points.size(); ++i) {
            uint32_t c = cluster[distinct.of[i]];
            if (c != result.assignment[i]) {
                result.assignment[i] = c;
                changed = true;
            }
            sums[c] += points[i];
            ++counts[c];
        }

        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] > 0) {
                result.centroids[c] =
                    sums[c] * (1.0f / static_cast<float>(counts[c]));
            } else {
                // Re-seed an empty cluster to the point farthest from
                // its nearest centroid (the first such point).
                distinct.nearest(result.centroids, cluster, d2);
                float worst = -1.0f;
                size_t worst_i = 0;
                for (size_t i = 0; i < points.size(); ++i) {
                    if (d2[distinct.of[i]] > worst) {
                        worst = d2[distinct.of[i]];
                        worst_i = i;
                    }
                }
                result.centroids[c] = points[worst_i];
                changed = true;
            }
        }

        if (params.earlyStop && !changed)
            break;
    }

    result.inertia = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        result.inertia += lengthSquared(
            points[i] - result.centroids[result.assignment[i]]);
    }
    return result;
}

} // namespace zatel::heatmap
