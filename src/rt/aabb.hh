/**
 * @file
 * Axis-aligned bounding box used for BVH nodes (Section II-A of the paper).
 */

#ifndef ZATEL_RT_AABB_HH
#define ZATEL_RT_AABB_HH

#include <algorithm>
#include <limits>

#include "rt/ray.hh"
#include "rt/vec3.hh"

namespace zatel::rt
{

/** Axis-aligned bounding box. Default-constructed boxes are empty. */
struct Aabb
{
    Vec3 lo{std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max()};
    Vec3 hi{std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest()};

    /** True when no point has been added. */
    bool empty() const { return lo.x > hi.x; }

    /** Grow to include @p point. */
    void
    expand(const Vec3 &point)
    {
        lo = minVec(lo, point);
        hi = maxVec(hi, point);
    }

    /** Grow to include @p other. */
    void
    expand(const Aabb &other)
    {
        lo = minVec(lo, other.lo);
        hi = maxVec(hi, other.hi);
    }

    /** Diagonal extent. */
    Vec3 extent() const { return empty() ? Vec3(0.0f) : hi - lo; }

    /** Box center. */
    Vec3 center() const { return (lo + hi) * 0.5f; }

    /** Surface area (0 for empty boxes); drives the SAH builder. */
    float surfaceArea() const;

    /** Index (0/1/2) of the widest axis. */
    int longestAxis() const;

    /** True when @p point is inside (inclusive). */
    bool contains(const Vec3 &point) const;

    /** True when this box and @p other intersect (inclusive). */
    bool overlaps(const Aabb &other) const;

    /**
     * Slab test against @p ray.
     *
     * Clamps [ray.tMin, ray.tMax] by each axis' slab in x, y, z order
     * and decides once at the end. That decides as a per-axis early exit
     * would: the entry distance only grows, the exit distance only
     * shrinks, and std::max/std::min keep a non-NaN bound when a slab
     * distance is NaN.
     * @param inv_dir Precomputed component-wise reciprocal direction.
     * @param t_hit Out: entry distance along the ray when hit.
     * @return true when the ray intersects within [ray.tMin, ray.tMax].
     */
    bool
    intersect(const Ray &ray, const Vec3 &inv_dir, float &t_hit) const
    {
        // std::min(near, far) and std::max(far, near) order each slab's
        // two distances as a swap on near > far would, NaN included.
        const float nx = (lo.x - ray.origin.x) * inv_dir.x;
        const float fx = (hi.x - ray.origin.x) * inv_dir.x;
        const float ny = (lo.y - ray.origin.y) * inv_dir.y;
        const float fy = (hi.y - ray.origin.y) * inv_dir.y;
        const float nz = (lo.z - ray.origin.z) * inv_dir.z;
        const float fz = (hi.z - ray.origin.z) * inv_dir.z;
        float t0 = std::max(ray.tMin, std::min(nx, fx));
        float t1 = std::min(ray.tMax, std::max(fx, nx));
        t0 = std::max(t0, std::min(ny, fy));
        t1 = std::min(t1, std::max(fy, ny));
        t0 = std::max(t0, std::min(nz, fz));
        t1 = std::min(t1, std::max(fz, nz));
        const bool hit = !(t0 > t1);
        if (hit)
            t_hit = t0;
        return hit;
    }
};

} // namespace zatel::rt

#endif // ZATEL_RT_AABB_HH
