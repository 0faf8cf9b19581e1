#include "rt/aabb.hh"

namespace zatel::rt
{

float
Aabb::surfaceArea() const
{
    if (empty())
        return 0.0f;
    Vec3 e = extent();
    return 2.0f * (e.x * e.y + e.y * e.z + e.z * e.x);
}

int
Aabb::longestAxis() const
{
    Vec3 e = extent();
    if (e.x >= e.y && e.x >= e.z)
        return 0;
    return e.y >= e.z ? 1 : 2;
}

bool
Aabb::contains(const Vec3 &point) const
{
    return point.x >= lo.x && point.x <= hi.x && point.y >= lo.y &&
           point.y <= hi.y && point.z >= lo.z && point.z <= hi.z;
}

bool
Aabb::overlaps(const Aabb &other) const
{
    if (empty() || other.empty())
        return false;
    return lo.x <= other.hi.x && hi.x >= other.lo.x && lo.y <= other.hi.y &&
           hi.y >= other.lo.y && lo.z <= other.hi.z && hi.z >= other.lo.z;
}

} // namespace zatel::rt
