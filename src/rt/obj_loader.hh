/**
 * @file
 * Minimal Wavefront OBJ loader.
 *
 * LumiBench's scenes are real meshes; this repo's analogues are
 * procedural, but adopters evaluating their own content can load any
 * triangle/polygon OBJ here (polygons are fan-triangulated). Only
 * geometry is consumed: `v` and `f` records, with `f` accepting the
 * `v`, `v/vt`, `v//vn` and `v/vt/vn` index forms and negative
 * (relative) indices. Materials, normals and texcoords are ignored —
 * the simulator's workload depends only on geometry.
 */

#ifndef ZATEL_RT_OBJ_LOADER_HH
#define ZATEL_RT_OBJ_LOADER_HH

#include <istream>
#include <string>
#include <vector>

#include "rt/triangle.hh"

namespace zatel::rt
{

/** Outcome of an OBJ parse. */
struct ObjLoadResult
{
    std::vector<Triangle> triangles;
    size_t vertexCount = 0;
    size_t faceCount = 0;
    /** Lines that could not be parsed (skipped, not fatal). */
    size_t skippedLines = 0;
};

/**
 * Parse OBJ text from @p input.
 * @param material_id Material bound to every produced triangle.
 * @throws std::runtime_error for a face index out of range.
 */
ObjLoadResult loadObj(std::istream &input, uint16_t material_id = 0);

/**
 * Load an OBJ file from disk.
 * @throws std::runtime_error when the file cannot be opened, and as
 *         loadObj() does.
 */
ObjLoadResult loadObjFile(const std::string &path,
                          uint16_t material_id = 0);

} // namespace zatel::rt

#endif // ZATEL_RT_OBJ_LOADER_HH
