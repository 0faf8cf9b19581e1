/**
 * @file
 * Image-plane division into K groups (paper Section III-D).
 *
 * Coarse-grained: the image is cut into a rows x cols grid of K
 * rectangles (Fig. 5), emphasizing ray locality within a group.
 *
 * Fine-grained: the image is tiled with small chunks (default 32x2,
 * matching the warp width) assigned round-robin to the K groups
 * (Fig. 6/7), so every group homogeneously samples the whole scene.
 */

#ifndef ZATEL_ZATEL_PARTITION_HH
#define ZATEL_ZATEL_PARTITION_HH

#include <cstdint>
#include <vector>

#include "gpusim/workload.hh"

namespace zatel::core
{

/** Scene division strategy (Section III-D). */
enum class DivisionMethod
{
    CoarseGrained,
    FineGrained,
};

const char *divisionMethodName(DivisionMethod method);

/** Division tuning. */
struct PartitionParams
{
    DivisionMethod method = DivisionMethod::FineGrained;
    /** Fine-grained chunk width; 32 matches the warp size. */
    uint32_t chunkWidth = 32;
    /** Fine-grained chunk height; 2 keeps chunks small (Section III-D). */
    uint32_t chunkHeight = 2;
};

/** One group: its pixels in launch order. */
using PixelGroup = std::vector<gpusim::PixelCoord>;

/**
 * Divide a width x height image plane into @p k groups.
 *
 * Every pixel appears in exactly one group; group sizes are equal up to
 * edge effects (coarse: +-1 row/column; fine: +-1 chunk).
 */
std::vector<PixelGroup> divideImagePlane(uint32_t width, uint32_t height,
                                         uint32_t k,
                                         const PartitionParams &params);

/**
 * True when divideImagePlane(width, height, k, params) would leave a
 * group without pixels (always so for k > width * height). Decided in
 * closed form from the division rule, without listing the plane, so a
 * recipe check costs O(k) however large the image is.
 */
bool divisionLeavesEmptyGroup(uint32_t width, uint32_t height, uint32_t k,
                              const PartitionParams &params);

/**
 * Choose the coarse grid shape for K groups: rows x cols with
 * rows >= cols and rows * cols == K (Fig. 5 uses 3x2 for K=6).
 */
void coarseGridShape(uint32_t k, uint32_t &rows, uint32_t &cols);

} // namespace zatel::core

#endif // ZATEL_ZATEL_PARTITION_HH
