/**
 * @file
 * Tests for the K-Means color quantizer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "heatmap/kmeans.hh"

namespace zatel::heatmap
{
namespace
{

using rt::Vec3;

// ---------------------------------------------------------------------
// Reference: the naive Lloyd loop, one nearest-centroid search per point
// per pass. kmeans() searches once per distinct point and must return
// the same bits: assignment, iteration count, centroids and inertia.
// ---------------------------------------------------------------------

/** Which rare branches a reference run took. */
struct NaiveBranches
{
    uint32_t duplicatedSeeds = 0;
    uint32_t reseeds = 0;
};

uint32_t
naiveNearest(const Vec3 &point, const std::vector<Vec3> &centroids,
             float &best_d2)
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

KMeansResult
naiveKMeans(const std::vector<Vec3> &points, const KMeansParams &params,
            Rng &rng, NaiveBranches &branches)
{
    const uint32_t k =
        std::min<uint32_t>(params.k, static_cast<uint32_t>(points.size()));
    KMeansResult result;

    // k-means++ seeding.
    result.centroids.push_back(points[rng.nextBounded(points.size())]);
    std::vector<double> d2(points.size());
    while (result.centroids.size() < k) {
        double total = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            float best = 0.0f;
            naiveNearest(points[i], result.centroids, best);
            d2[i] = best;
            total += best;
        }
        if (total <= 1e-12) {
            result.centroids.push_back(result.centroids.back());
            ++branches.duplicatedSeeds;
            continue;
        }
        double pick = rng.nextDouble() * total;
        size_t chosen = points.size() - 1;
        double acc = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            acc += d2[i];
            if (acc >= pick) {
                chosen = i;
                break;
            }
        }
        result.centroids.push_back(points[chosen]);
    }

    // Lloyd iterations.
    result.assignment.assign(points.size(), 0);
    std::vector<Vec3> sums(k);
    std::vector<size_t> counts(k);
    for (uint32_t iter = 0; iter < params.maxIterations; ++iter) {
        ++result.iterations;
        bool changed = false;
        std::fill(sums.begin(), sums.end(), Vec3(0.0f));
        std::fill(counts.begin(), counts.end(), 0u);
        for (size_t i = 0; i < points.size(); ++i) {
            float dist = 0.0f;
            uint32_t c = naiveNearest(points[i], result.centroids, dist);
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
                continue;
            }
            float worst = -1.0f;
            size_t worst_i = 0;
            for (size_t i = 0; i < points.size(); ++i) {
                float dist = 0.0f;
                naiveNearest(points[i], result.centroids, dist);
                if (dist > worst) {
                    worst = dist;
                    worst_i = i;
                }
            }
            result.centroids[c] = points[worst_i];
            changed = true;
            ++branches.reseeds;
        }
        if (params.earlyStop && !changed)
            break;
    }

    for (size_t i = 0; i < points.size(); ++i) {
        result.inertia += lengthSquared(
            points[i] - result.centroids[result.assignment[i]]);
    }
    return result;
}

/** kmeans() equals the naive reference bit for bit on @p points, for
 *  three seeds; returns the branches the reference took. */
NaiveBranches
expectMatchesNaive(const std::vector<Vec3> &points, uint32_t k)
{
    NaiveBranches branches;
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " k " << k);
        KMeansParams params;
        params.k = k;
        Rng rng_naive(seed);
        Rng rng_fast(seed);
        const KMeansResult want =
            naiveKMeans(points, params, rng_naive, branches);
        const KMeansResult got = kmeans(points, params, rng_fast);
        EXPECT_EQ(want.assignment, got.assignment);
        EXPECT_EQ(want.iterations, got.iterations);
        EXPECT_EQ(want.centroids.size(), got.centroids.size());
        EXPECT_EQ(std::memcmp(want.centroids.data(), got.centroids.data(),
                              std::min(want.centroids.size(),
                                       got.centroids.size()) *
                                  sizeof(Vec3)),
                  0)
            << "centroid bits differ";
        EXPECT_EQ(std::memcmp(&want.inertia, &got.inertia, sizeof(double)),
                  0)
            << want.inertia << " vs " << got.inertia;
        // Both consumed the same random draws.
        EXPECT_EQ(rng_naive.nextBounded(1u << 30),
                  rng_fast.nextBounded(1u << 30));
    }
    return branches;
}

Vec3
randomColor(Rng &gen)
{
    return {static_cast<float>(gen.nextDouble()),
            static_cast<float>(gen.nextDouble()),
            static_cast<float>(gen.nextDouble())};
}

TEST(KMeansDistinct, HeavyDuplicatesMatchNaive)
{
    // 40 colors over 4000 points, like a heatmap's gradient palette.
    Rng gen(11);
    std::vector<Vec3> palette;
    for (int i = 0; i < 40; ++i)
        palette.push_back(randomColor(gen));
    std::vector<Vec3> points;
    for (int i = 0; i < 4000; ++i)
        points.push_back(palette[gen.nextBounded(palette.size())]);
    expectMatchesNaive(points, 8);
}

TEST(KMeansDistinct, AllDistinctMatchesNaive)
{
    Rng gen(12);
    std::vector<Vec3> points;
    for (int i = 0; i < 1500; ++i)
        points.push_back(randomColor(gen));
    expectMatchesNaive(points, 8);
}

TEST(KMeansDistinct, AllIdenticalDuplicatesCentroidsLikeNaive)
{
    std::vector<Vec3> points(300, Vec3{0.25f, 0.5f, 0.75f});
    const NaiveBranches branches = expectMatchesNaive(points, 4);
    EXPECT_GT(branches.duplicatedSeeds, 0u);
}

TEST(KMeansDistinct, EmptyClusterReseedMatchesNaive)
{
    // Three distinct colors, k = 6: seeding runs out of distinct points
    // and duplicates centroids, whose clusters then come up empty.
    std::vector<Vec3> points;
    for (int i = 0; i < 600; ++i) {
        points.push_back(i % 3 == 0   ? Vec3{0.1f, 0.2f, 0.3f}
                         : i % 3 == 1 ? Vec3{0.9f, 0.1f, 0.0f}
                                      : Vec3{0.4f, 0.8f, 0.6f});
    }
    const NaiveBranches branches = expectMatchesNaive(points, 6);
    EXPECT_GT(branches.reseeds, 0u);
}

TEST(KMeansDistinct, SignedZeroAndNaNPointsMatchNaive)
{
    // -0.0 and +0.0 differ in bits but not in distance; NaN never wins
    // a nearest-centroid comparison. Both must behave as in the naive loop.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng gen(13);
    std::vector<Vec3> points;
    for (int i = 0; i < 500; ++i) {
        if (i % 5 == 0)
            points.push_back({0.0f, 0.5f, 0.5f});
        else if (i % 5 == 1)
            points.push_back({-0.0f, 0.5f, 0.5f});
        else if (i % 5 == 2)
            points.push_back({nan, 0.5f, 0.5f});
        else
            points.push_back(randomColor(gen));
    }
    expectMatchesNaive(points, 5);
}

TEST(KMeans, SingleClusterIsMean)
{
    std::vector<Vec3> points{{0.0f, 0.0f, 0.0f},
                             {2.0f, 0.0f, 0.0f},
                             {1.0f, 3.0f, 0.0f}};
    KMeansParams params;
    params.k = 1;
    Rng rng(1);
    KMeansResult result = kmeans(points, params, rng);
    ASSERT_EQ(result.centroids.size(), 1u);
    EXPECT_NEAR(result.centroids[0].x, 1.0f, 1e-5f);
    EXPECT_NEAR(result.centroids[0].y, 1.0f, 1e-5f);
}

TEST(KMeans, SeparatedClustersFoundExactly)
{
    std::vector<Vec3> points;
    for (int i = 0; i < 20; ++i) {
        points.push_back({0.0f + 0.01f * i, 0.0f, 0.0f});
        points.push_back({10.0f + 0.01f * i, 0.0f, 0.0f});
    }
    KMeansParams params;
    params.k = 2;
    Rng rng(2);
    KMeansResult result = kmeans(points, params, rng);
    ASSERT_EQ(result.centroids.size(), 2u);
    float lo = std::min(result.centroids[0].x, result.centroids[1].x);
    float hi = std::max(result.centroids[0].x, result.centroids[1].x);
    EXPECT_NEAR(lo, 0.095f, 0.05f);
    EXPECT_NEAR(hi, 10.095f, 0.05f);

    // Assignments separate the two groups.
    for (size_t i = 0; i < points.size(); ++i) {
        bool is_high_point = points[i].x > 5.0f;
        bool assigned_high =
            result.centroids[result.assignment[i]].x > 5.0f;
        EXPECT_EQ(is_high_point, assigned_high);
    }
}

TEST(KMeans, KLargerThanPointsShrinks)
{
    std::vector<Vec3> points{{1.0f, 0.0f, 0.0f}, {2.0f, 0.0f, 0.0f}};
    KMeansParams params;
    params.k = 10;
    Rng rng(3);
    KMeansResult result = kmeans(points, params, rng);
    EXPECT_LE(result.centroids.size(), 2u);
    for (uint32_t a : result.assignment)
        EXPECT_LT(a, result.centroids.size());
}

TEST(KMeans, DeterministicForSeed)
{
    std::vector<Vec3> points;
    Rng gen(4);
    for (int i = 0; i < 200; ++i)
        points.push_back({static_cast<float>(gen.nextDouble()),
                          static_cast<float>(gen.nextDouble()),
                          static_cast<float>(gen.nextDouble())});
    KMeansParams params;
    params.k = 5;
    Rng rng_a(42), rng_b(42);
    KMeansResult a = kmeans(points, params, rng_a);
    KMeansResult b = kmeans(points, params, rng_b);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(KMeans, IdenticalPointsOneEffectiveCluster)
{
    std::vector<Vec3> points(50, Vec3{0.5f, 0.5f, 0.5f});
    KMeansParams params;
    params.k = 4;
    Rng rng(5);
    KMeansResult result = kmeans(points, params, rng);
    EXPECT_NEAR(result.inertia, 0.0, 1e-9);
    for (const Vec3 &c : result.centroids)
        EXPECT_EQ(c, Vec3(0.5f, 0.5f, 0.5f));
}

TEST(KMeans, AssignmentsAreNearest)
{
    std::vector<Vec3> points;
    Rng gen(6);
    for (int i = 0; i < 300; ++i)
        points.push_back({static_cast<float>(gen.nextDouble()),
                          static_cast<float>(gen.nextDouble()), 0.0f});
    KMeansParams params;
    params.k = 4;
    Rng rng(7);
    KMeansResult result = kmeans(points, params, rng);

    for (size_t i = 0; i < points.size(); ++i) {
        float assigned_d2 = lengthSquared(
            points[i] - result.centroids[result.assignment[i]]);
        for (const Vec3 &c : result.centroids) {
            EXPECT_LE(assigned_d2, lengthSquared(points[i] - c) + 1e-5f);
        }
    }
}

TEST(KMeans, InertiaIsSumOfSquares)
{
    std::vector<Vec3> points{{0.0f, 0.0f, 0.0f}, {1.0f, 0.0f, 0.0f}};
    KMeansParams params;
    params.k = 1;
    Rng rng(8);
    KMeansResult result = kmeans(points, params, rng);
    // Centroid at 0.5: each point contributes 0.25.
    EXPECT_NEAR(result.inertia, 0.5, 1e-5);
}

TEST(KMeans, MoreClustersNeverWorse)
{
    std::vector<Vec3> points;
    Rng gen(9);
    for (int i = 0; i < 400; ++i)
        points.push_back({static_cast<float>(gen.nextDouble() * 3.0),
                          static_cast<float>(gen.nextDouble()),
                          static_cast<float>(gen.nextDouble())});
    auto run = [&points](uint32_t k) {
        KMeansParams params;
        params.k = k;
        params.maxIterations = 100;
        Rng rng(10);
        return kmeans(points, params, rng).inertia;
    };
    // Inertia decreases substantially from 1 to 8 clusters.
    EXPECT_LT(run(8), run(1) * 0.5);
}

} // namespace
} // namespace zatel::heatmap
