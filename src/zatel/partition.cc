#include "zatel/partition.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace zatel::core
{

const char *
divisionMethodName(DivisionMethod method)
{
    switch (method) {
      case DivisionMethod::CoarseGrained: return "coarse";
      case DivisionMethod::FineGrained: return "fine";
    }
    panic("unknown DivisionMethod");
}

void
coarseGridShape(uint32_t k, uint32_t &rows, uint32_t &cols)
{
    ZATEL_ASSERT(k >= 1, "need at least one group");
    // Smallest divisor of k that is >= sqrt(k) gives the tallest
    // near-square grid (rows >= cols), matching Fig. 5's 3x2 for K=6.
    uint32_t best = k;
    for (uint32_t d = 1; d <= k; ++d) {
        if (k % d != 0)
            continue;
        if (static_cast<uint64_t>(d) * d >= k) {
            best = d;
            break;
        }
    }
    rows = best;
    cols = k / best;
}

namespace
{

std::vector<PixelGroup>
divideCoarse(uint32_t width, uint32_t height, uint32_t k)
{
    uint32_t rows = 1, cols = 1;
    coarseGridShape(k, rows, cols);

    std::vector<PixelGroup> groups(k);
    // Row/column boundaries distribute remainders evenly.
    auto boundary = [](uint32_t total, uint32_t parts, uint32_t index) {
        return static_cast<uint32_t>(
            (static_cast<uint64_t>(total) * index) / parts);
    };

    for (uint32_t r = 0; r < rows; ++r) {
        uint32_t y0 = boundary(height, rows, r);
        uint32_t y1 = boundary(height, rows, r + 1);
        for (uint32_t c = 0; c < cols; ++c) {
            uint32_t x0 = boundary(width, cols, c);
            uint32_t x1 = boundary(width, cols, c + 1);
            PixelGroup &group = groups[r * cols + c];
            group.reserve(static_cast<size_t>(y1 - y0) * (x1 - x0));
            for (uint32_t y = y0; y < y1; ++y)
                for (uint32_t x = x0; x < x1; ++x)
                    group.push_back({x, y});
        }
    }
    return groups;
}

std::vector<PixelGroup>
divideFine(uint32_t width, uint32_t height, uint32_t k,
           const PartitionParams &params)
{
    uint32_t cw = std::max(1u, params.chunkWidth);
    uint32_t ch = std::max(1u, params.chunkHeight);
    uint32_t chunks_x = (width + cw - 1) / cw;
    uint32_t chunks_y = (height + ch - 1) / ch;

    // Round-robin over the linear chunk index (Fig. 6). When the chunk
    // row width is a multiple of k the plain linear index degenerates to
    // vertical stripes (each group owns fixed columns); a per-row offset
    // restores the diagonal interleaving of the paper's figure.
    uint32_t row_offset = (k > 1 && chunks_x % k == 0) ? 1 : 0;
    std::vector<PixelGroup> groups(k);
    for (uint32_t cy = 0; cy < chunks_y; ++cy) {
        for (uint32_t cx = 0; cx < chunks_x; ++cx) {
            uint32_t chunk_linear = cy * chunks_x + cx + cy * row_offset;
            PixelGroup &group = groups[chunk_linear % k];
            uint32_t x1 = std::min(width, (cx + 1) * cw);
            uint32_t y1 = std::min(height, (cy + 1) * ch);
            for (uint32_t y = cy * ch; y < y1; ++y)
                for (uint32_t x = cx * cw; x < x1; ++x)
                    group.push_back({x, y});
        }
    }
    return groups;
}

} // namespace

bool
divisionLeavesEmptyGroup(uint32_t width, uint32_t height, uint32_t k,
                         const PartitionParams &params)
{
    ZATEL_ASSERT(width > 0 && height > 0, "empty image plane");
    ZATEL_ASSERT(k >= 1, "need at least one group");

    switch (params.method) {
      case DivisionMethod::CoarseGrained: {
        // Band i of n over t spans [floor(i t / n), floor((i + 1) t / n)),
        // which is empty for some i exactly when n > t.
        uint32_t rows = 1, cols = 1;
        coarseGridShape(k, rows, cols);
        return rows > height || cols > width;
      }
      case DivisionMethod::FineGrained: {
        // Chunks go round-robin by linear index, so the first k chunks
        // reach every group. The per-row offset applies only when a
        // chunk row is a multiple of k long, and then the first chunk
        // row alone reaches every group.
        const uint64_t cw = std::max(1u, params.chunkWidth);
        const uint64_t ch = std::max(1u, params.chunkHeight);
        const uint64_t chunks_x = (width + cw - 1) / cw;
        const uint64_t chunks_y = (height + ch - 1) / ch;
        return chunks_x * chunks_y < k;
      }
    }
    panic("unknown DivisionMethod");
}

std::vector<PixelGroup>
divideImagePlane(uint32_t width, uint32_t height, uint32_t k,
                 const PartitionParams &params)
{
    ZATEL_ASSERT(width > 0 && height > 0, "empty image plane");
    ZATEL_ASSERT(k >= 1, "need at least one group");
    ZATEL_ASSERT(k <= static_cast<uint64_t>(width) * height,
                 "more groups than pixels");

    switch (params.method) {
      case DivisionMethod::CoarseGrained:
        return divideCoarse(width, height, k);
      case DivisionMethod::FineGrained:
        return divideFine(width, height, k, params);
    }
    panic("unknown DivisionMethod");
}

} // namespace zatel::core
