/**
 * @file
 * Scene container: geometry, materials, lighting, camera and path budget.
 */

#ifndef ZATEL_RT_SCENE_HH
#define ZATEL_RT_SCENE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rt/camera.hh"
#include "rt/material.hh"
#include "rt/triangle.hh"
#include "rt/vec3.hh"

namespace zatel::rt
{

/** Single point light (the shading model casts one shadow ray per hit). */
struct PointLight
{
    Vec3 position;
    Vec3 intensity{1.0f, 1.0f, 1.0f};
};

/**
 * A renderable scene.
 *
 * Triangles reference materials by id; the camera and light define the
 * shading; maxBounces caps the reflection-ray recursion depth (PARK-style
 * path-traced scenes use 3, simple scenes 1).
 */
class Scene
{
  public:
    Scene() = default;
    explicit Scene(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Register a material; returns its id. */
    uint16_t addMaterial(const Material &material);

    const Material &material(uint16_t id) const;
    size_t materialCount() const { return materials_.size(); }

    /** Append triangles (takes ownership by copy/move). */
    void addTriangles(std::vector<Triangle> triangles);

    const std::vector<Triangle> &triangles() const { return triangles_; }
    size_t triangleCount() const { return triangles_.size(); }

    void setCamera(const Camera &camera) { camera_ = camera; }
    const Camera &camera() const { return camera_; }

    void setLight(const PointLight &light) { light_ = light; }
    const PointLight &light() const { return light_; }

    void setBackground(const Vec3 &color) { background_ = color; }
    const Vec3 &background() const { return background_; }

    void setMaxBounces(int bounces) { maxBounces_ = bounces; }
    int maxBounces() const { return maxBounces_; }

  private:
    std::string name_;
    std::vector<Triangle> triangles_;
    std::vector<Material> materials_;
    Camera camera_;
    PointLight light_;
    Vec3 background_{0.05f, 0.07f, 0.12f};
    int maxBounces_ = 1;
};

} // namespace zatel::rt

#endif // ZATEL_RT_SCENE_HH
