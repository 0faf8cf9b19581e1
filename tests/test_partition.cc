/**
 * @file
 * Tests for image-plane division (paper Section III-D): exactly-once
 * coverage, balance, and the documented coarse/fine layouts.
 */

#include <gtest/gtest.h>

#include <set>

#include "zatel/partition.hh"

namespace zatel::core
{
namespace
{

/** Property bundle checked for every division result. */
void
checkCoverage(const std::vector<PixelGroup> &groups, uint32_t width,
              uint32_t height, uint32_t k)
{
    ASSERT_EQ(groups.size(), k);
    std::set<uint64_t> seen;
    size_t total = 0;
    for (const PixelGroup &group : groups) {
        total += group.size();
        for (const gpusim::PixelCoord &pixel : group) {
            ASSERT_LT(pixel.x, width);
            ASSERT_LT(pixel.y, height);
            uint64_t key = (static_cast<uint64_t>(pixel.y) << 32) | pixel.x;
            EXPECT_TRUE(seen.insert(key).second)
                << "pixel (" << pixel.x << "," << pixel.y
                << ") in two groups";
        }
    }
    EXPECT_EQ(total, static_cast<size_t>(width) * height);
}

struct DivisionCase
{
    uint32_t width;
    uint32_t height;
    uint32_t k;
    DivisionMethod method;
};

class DivisionCoverage : public testing::TestWithParam<DivisionCase>
{
};

TEST_P(DivisionCoverage, ExactlyOnceAndBalanced)
{
    const DivisionCase &c = GetParam();
    PartitionParams params;
    params.method = c.method;
    params.chunkWidth = 32;
    params.chunkHeight = 2;
    std::vector<PixelGroup> groups =
        divideImagePlane(c.width, c.height, c.k, params);
    checkCoverage(groups, c.width, c.height, c.k);

    // Balance: group sizes within one chunk / one grid row of each other.
    size_t min_size = groups[0].size(), max_size = groups[0].size();
    for (const PixelGroup &group : groups) {
        min_size = std::min(min_size, group.size());
        max_size = std::max(max_size, group.size());
    }
    size_t tolerance =
        c.method == DivisionMethod::FineGrained
            ? params.chunkWidth * params.chunkHeight
            : (static_cast<size_t>(c.width) * c.height) / c.k / 2 + c.width;
    EXPECT_LE(max_size - min_size, tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DivisionCoverage,
    testing::Values(
        DivisionCase{64, 64, 1, DivisionMethod::FineGrained},
        DivisionCase{64, 64, 4, DivisionMethod::FineGrained},
        DivisionCase{64, 64, 6, DivisionMethod::FineGrained},
        DivisionCase{128, 128, 6, DivisionMethod::FineGrained},
        DivisionCase{100, 60, 5, DivisionMethod::FineGrained},
        DivisionCase{33, 17, 3, DivisionMethod::FineGrained},
        DivisionCase{64, 64, 1, DivisionMethod::CoarseGrained},
        DivisionCase{64, 64, 4, DivisionMethod::CoarseGrained},
        DivisionCase{64, 64, 6, DivisionMethod::CoarseGrained},
        DivisionCase{128, 128, 6, DivisionMethod::CoarseGrained},
        DivisionCase{100, 60, 5, DivisionMethod::CoarseGrained},
        DivisionCase{33, 17, 3, DivisionMethod::CoarseGrained}));

TEST(CoarseGrid, ShapeMatchesPaperFigure5)
{
    uint32_t rows = 0, cols = 0;
    // Fig. 5: K=6 -> 3 rows x 2 columns.
    coarseGridShape(6, rows, cols);
    EXPECT_EQ(rows, 3u);
    EXPECT_EQ(cols, 2u);

    coarseGridShape(4, rows, cols);
    EXPECT_EQ(rows, 2u);
    EXPECT_EQ(cols, 2u);

    coarseGridShape(1, rows, cols);
    EXPECT_EQ(rows, 1u);
    EXPECT_EQ(cols, 1u);

    // Primes degrade to K rows x 1 column.
    coarseGridShape(5, rows, cols);
    EXPECT_EQ(rows, 5u);
    EXPECT_EQ(cols, 1u);
}

TEST(CoarseDivision, GroupsAreRectangles)
{
    PartitionParams params;
    params.method = DivisionMethod::CoarseGrained;
    std::vector<PixelGroup> groups = divideImagePlane(64, 64, 4, params);
    for (const PixelGroup &group : groups) {
        uint32_t min_x = 64, max_x = 0, min_y = 64, max_y = 0;
        for (const gpusim::PixelCoord &p : group) {
            min_x = std::min(min_x, p.x);
            max_x = std::max(max_x, p.x);
            min_y = std::min(min_y, p.y);
            max_y = std::max(max_y, p.y);
        }
        EXPECT_EQ(group.size(), static_cast<size_t>(max_x - min_x + 1) *
                                    (max_y - min_y + 1));
    }
}

TEST(FineDivision, RoundRobinChunkAssignment)
{
    // 4 chunks per row (128/32), chunk height 2, K=4. chunks_x % k == 0
    // triggers the diagonal per-row offset, so chunk (cx, cy) belongs to
    // group (cy * 4 + cx + cy) % 4 (the Fig. 6 staircase layout).
    PartitionParams params;
    params.method = DivisionMethod::FineGrained;
    params.chunkWidth = 32;
    params.chunkHeight = 2;
    std::vector<PixelGroup> groups = divideImagePlane(128, 8, 4, params);

    for (uint32_t g = 0; g < 4; ++g) {
        for (const gpusim::PixelCoord &p : groups[g]) {
            uint32_t cx = p.x / 32;
            uint32_t cy = p.y / 2;
            EXPECT_EQ((cy * 4 + cx + cy) % 4, g);
        }
    }
}

TEST(FineDivision, NonMultipleWidthKeepsPlainRoundRobin)
{
    // 5 chunks per row (160/32) with K=4: the paper's own Fig. 6 case -
    // the linear chunk index already produces the staircase.
    PartitionParams params;
    params.method = DivisionMethod::FineGrained;
    params.chunkWidth = 32;
    params.chunkHeight = 2;
    std::vector<PixelGroup> groups = divideImagePlane(160, 8, 4, params);
    for (uint32_t g = 0; g < 4; ++g) {
        for (const gpusim::PixelCoord &p : groups[g]) {
            uint32_t cx = p.x / 32;
            uint32_t cy = p.y / 2;
            EXPECT_EQ((cy * 5 + cx) % 4, g);
        }
    }
}

TEST(FineDivision, GroupSamplesWholeImage)
{
    // Every fine-grained group must touch every quadrant of the image
    // (that is the point of interleaving).
    PartitionParams params;
    params.method = DivisionMethod::FineGrained;
    std::vector<PixelGroup> groups = divideImagePlane(128, 128, 4, params);
    for (const PixelGroup &group : groups) {
        bool q[4] = {false, false, false, false};
        for (const gpusim::PixelCoord &p : group)
            q[(p.y >= 64) * 2 + (p.x >= 64)] = true;
        EXPECT_TRUE(q[0] && q[1] && q[2] && q[3]);
    }
}

TEST(FineDivision, CustomChunkSizes)
{
    PartitionParams params;
    params.method = DivisionMethod::FineGrained;
    params.chunkWidth = 8;
    params.chunkHeight = 8;
    std::vector<PixelGroup> groups = divideImagePlane(40, 24, 3, params);
    checkCoverage(groups, 40, 24, 3);
}

TEST(Division, KEqualsOneKeepsRowMajorOrder)
{
    PartitionParams params;
    params.method = DivisionMethod::CoarseGrained;
    std::vector<PixelGroup> groups = divideImagePlane(8, 4, 1, params);
    ASSERT_EQ(groups.size(), 1u);
    ASSERT_EQ(groups[0].size(), 32u);
    for (uint32_t i = 0; i < 32; ++i) {
        EXPECT_EQ(groups[0][i].x, i % 8);
        EXPECT_EQ(groups[0][i].y, i / 8);
    }
}

TEST(Division, EmptyGroupClosedFormMatchesDivision)
{
    // The recipe check's closed form against the rule that lists every
    // pixel, over every small plane and K; the chunk shapes include the
    // default, 1x1, shapes that divide neither side, and a zero width
    // the division clamps to 1.
    const std::pair<uint32_t, uint32_t> chunk_shapes[] = {
        {32, 2}, {1, 1}, {3, 2}, {7, 5}, {0, 4}};
    std::vector<PartitionParams> all_params;
    PartitionParams coarse;
    coarse.method = DivisionMethod::CoarseGrained;
    all_params.push_back(coarse);
    for (const auto &[cw, ch] : chunk_shapes) {
        PartitionParams fine;
        fine.method = DivisionMethod::FineGrained;
        fine.chunkWidth = cw;
        fine.chunkHeight = ch;
        all_params.push_back(fine);
    }
    uint64_t empty = 0, checked = 0;
    for (const PartitionParams &params : all_params) {
        for (uint32_t w = 1; w <= 40; ++w) {
            for (uint32_t h = 1; h <= 40; ++h) {
                for (uint32_t k = 1; k <= 12; ++k) {
                    const bool closed =
                        divisionLeavesEmptyGroup(w, h, k, params);
                    bool listed = true;
                    if (k <= w * h) {
                        listed = false;
                        for (const PixelGroup &group :
                             divideImagePlane(w, h, k, params))
                            listed |= group.empty();
                    }
                    ASSERT_EQ(closed, listed)
                        << divisionMethodName(params.method) << " " << w
                        << "x" << h << " k=" << k << " chunk "
                        << params.chunkWidth << "x" << params.chunkHeight;
                    empty += listed;
                    ++checked;
                }
            }
        }
    }
    // Both answers occur.
    EXPECT_GT(empty, 0u);
    EXPECT_LT(empty, checked);
}

TEST(Division, EmptyGroupClosedFormNeedsNoPlane)
{
    // A 60000x60000 plane would take tens of GB to list.
    PartitionParams params;
    EXPECT_FALSE(divisionLeavesEmptyGroup(60000, 60000, 4, params));
    params.method = DivisionMethod::CoarseGrained;
    EXPECT_FALSE(divisionLeavesEmptyGroup(60000, 60000, 4, params));
    EXPECT_TRUE(divisionLeavesEmptyGroup(60000, 1, 4, params));
}

} // namespace
} // namespace zatel::core
