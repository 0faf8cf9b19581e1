#include "rt/bvh.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/logging.hh"

namespace zatel::rt
{

void
Bvh::build(const std::vector<Triangle> &triangles, const BuildParams &params)
{
    triangles_ = &triangles;
    nodes_.clear();
    primIndices_.clear();
    stats_ = {};

    uint32_t n = static_cast<uint32_t>(triangles.size());
    if (n == 0) {
        // Single empty leaf so traversal trivially terminates.
        BvhNode node;
        node.rightOrFirstPrim = 0;
        node.primCount = 0;
        nodes_.push_back(node);
        escapes_.assign(1, kNoNode);
        stats_.nodeCount = 1;
        stats_.leafCount = 1;
        return;
    }

    std::vector<Aabb> prim_bounds(n);
    std::vector<Vec3> centroids(n);
    for (uint32_t i = 0; i < n; ++i) {
        prim_bounds[i] = triangles[i].bounds();
        centroids[i] = triangles[i].centroid();
    }

    std::vector<uint32_t> prims(n);
    std::iota(prims.begin(), prims.end(), 0u);

    nodes_.reserve(2 * n);
    buildRecursive(prims, 0, n, 1, prim_bounds, centroids, params);
    primIndices_ = std::move(prims);
    stats_.nodeCount = static_cast<uint32_t>(nodes_.size());

    // Parents precede their children in the depth-first layout, so one
    // pass in index order sees every parent's escape before its
    // children need it.
    escapes_.assign(nodes_.size(), kNoNode);
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].isLeaf())
            continue;
        escapes_[BvhNode::leftChildOf(i)] = nodes_[i].rightChild();
        escapes_[nodes_[i].rightChild()] = escapes_[i];
    }
}

uint32_t
Bvh::buildRecursive(std::vector<uint32_t> &prims, uint32_t begin,
                    uint32_t end, uint32_t depth,
                    const std::vector<Aabb> &prim_bounds,
                    const std::vector<Vec3> &centroids,
                    const BuildParams &params)
{
    constexpr uint32_t kMaxDepth = 64;

    uint32_t node_index = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();

    Aabb bounds;
    Aabb centroid_bounds;
    for (uint32_t i = begin; i < end; ++i) {
        bounds.expand(prim_bounds[prims[i]]);
        centroid_bounds.expand(centroids[prims[i]]);
    }
    nodes_[node_index].bounds = bounds;
    stats_.maxDepth = std::max(stats_.maxDepth, depth);

    uint32_t count = end - begin;
    auto make_leaf = [&]() {
        nodes_[node_index].rightOrFirstPrim = begin;
        nodes_[node_index].primCount = count;
        ++stats_.leafCount;
        stats_.maxLeafSize = std::max(stats_.maxLeafSize, count);
        return node_index;
    };

    if (count <= params.maxLeafSize || depth >= kMaxDepth)
        return make_leaf();

    // Binned SAH on the widest centroid axis.
    int axis = centroid_bounds.longestAxis();
    float axis_lo = centroid_bounds.lo[axis];
    float axis_extent = centroid_bounds.extent()[axis];
    if (axis_extent < 1e-12f) {
        // Degenerate spread (all centroids coincide): median split.
        uint32_t mid = begin + count / 2;
        nodes_[node_index].primCount = 0;
        uint32_t left = buildRecursive(prims, begin, mid, depth + 1,
                                       prim_bounds, centroids, params);
        ZATEL_ASSERT(left == node_index + 1,
                     "left child must directly follow its parent");
        uint32_t right = buildRecursive(prims, mid, end, depth + 1,
                                        prim_bounds, centroids, params);
        nodes_[node_index].rightOrFirstPrim = right;
        return node_index;
    }

    const uint32_t bins = std::max(2u, params.sahBins);
    std::vector<Aabb> bin_bounds(bins);
    std::vector<uint32_t> bin_counts(bins, 0);

    auto bin_of = [&](uint32_t prim) {
        float rel = (centroids[prim][axis] - axis_lo) / axis_extent;
        uint32_t b = static_cast<uint32_t>(rel * bins);
        return std::min(b, bins - 1);
    };

    for (uint32_t i = begin; i < end; ++i) {
        uint32_t b = bin_of(prims[i]);
        bin_bounds[b].expand(prim_bounds[prims[i]]);
        ++bin_counts[b];
    }

    // Sweep to find the cheapest split boundary.
    std::vector<float> right_area(bins, 0.0f);
    std::vector<uint32_t> right_count(bins, 0);
    Aabb acc;
    uint32_t cnt = 0;
    for (int b = static_cast<int>(bins) - 1; b >= 1; --b) {
        acc.expand(bin_bounds[b]);
        cnt += bin_counts[b];
        right_area[b] = acc.surfaceArea();
        right_count[b] = cnt;
    }

    float best_cost = std::numeric_limits<float>::max();
    uint32_t best_split = 0;
    acc = Aabb{};
    cnt = 0;
    float parent_area = std::max(bounds.surfaceArea(), 1e-12f);
    for (uint32_t b = 1; b < bins; ++b) {
        acc.expand(bin_bounds[b - 1]);
        cnt += bin_counts[b - 1];
        if (cnt == 0 || right_count[b] == 0)
            continue;
        float cost =
            params.traversalCost +
            params.intersectionCost *
                (acc.surfaceArea() * cnt + right_area[b] * right_count[b]) /
                parent_area;
        if (cost < best_cost) {
            best_cost = cost;
            best_split = b;
        }
    }

    float leaf_cost = params.intersectionCost * count;
    if (best_split == 0 ||
        (best_cost >= leaf_cost && count <= 2 * params.maxLeafSize)) {
        return make_leaf();
    }

    auto mid_iter = std::partition(
        prims.begin() + begin, prims.begin() + end,
        [&](uint32_t prim) { return bin_of(prim) < best_split; });
    uint32_t mid = static_cast<uint32_t>(mid_iter - prims.begin());
    if (mid == begin || mid == end)
        mid = begin + count / 2; // numerical fallback

    nodes_[node_index].primCount = 0;
    uint32_t left = buildRecursive(prims, begin, mid, depth + 1, prim_bounds,
                                   centroids, params);
    ZATEL_ASSERT(left == node_index + 1,
                 "left child must directly follow its parent");
    uint32_t right = buildRecursive(prims, mid, end, depth + 1, prim_bounds,
                                    centroids, params);
    nodes_[node_index].rightOrFirstPrim = right;
    return node_index;
}

} // namespace zatel::rt
