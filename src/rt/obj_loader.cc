#include "rt/obj_loader.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace zatel::rt
{

namespace
{

/**
 * Resolve an OBJ face index (1-based; negative counts from the end)
 * into a 0-based vertex slot.
 */
size_t
resolveIndex(long raw, size_t vertex_count, size_t line_number)
{
    long resolved = raw;
    if (raw < 0)
        resolved = static_cast<long>(vertex_count) + raw + 1;
    if (resolved < 1 || resolved > static_cast<long>(vertex_count)) {
        throw std::runtime_error(
            "OBJ line " + std::to_string(line_number) + ": vertex index " +
            std::to_string(raw) + " out of range (" +
            std::to_string(vertex_count) + " vertices)");
    }
    return static_cast<size_t>(resolved - 1);
}

/** Parse the leading vertex index of an `f` element like "12/3/4". */
bool
parseFaceElement(const std::string &element, long &index)
{
    if (element.empty())
        return false;
    size_t slash = element.find('/');
    std::string head =
        slash == std::string::npos ? element : element.substr(0, slash);
    if (head.empty())
        return false;
    char *end = nullptr;
    index = std::strtol(head.c_str(), &end, 10);
    return end != head.c_str() && *end == '\0' && index != 0;
}

} // namespace

ObjLoadResult
loadObj(std::istream &input, uint16_t material_id)
{
    ObjLoadResult result;
    std::vector<Vec3> vertices;

    std::string line;
    size_t line_number = 0;
    while (std::getline(input, line)) {
        ++line_number;
        // Strip comments and skip blanks.
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream tokens(line);
        std::string keyword;
        if (!(tokens >> keyword))
            continue;

        if (keyword == "v") {
            float x = 0.0f, y = 0.0f, z = 0.0f;
            if (tokens >> x >> y >> z) {
                vertices.push_back({x, y, z});
            } else {
                ++result.skippedLines;
            }
            continue;
        }

        if (keyword == "f") {
            std::vector<size_t> face;
            std::string element;
            bool ok = true;
            while (tokens >> element) {
                long raw = 0;
                if (!parseFaceElement(element, raw)) {
                    ok = false;
                    break;
                }
                face.push_back(
                    resolveIndex(raw, vertices.size(), line_number));
            }
            if (!ok || face.size() < 3) {
                ++result.skippedLines;
                continue;
            }
            ++result.faceCount;
            // Fan triangulation handles quads and n-gons.
            for (size_t i = 2; i < face.size(); ++i) {
                result.triangles.push_back({vertices[face[0]],
                                            vertices[face[i - 1]],
                                            vertices[face[i]],
                                            material_id});
            }
            continue;
        }

        // vn / vt / usemtl / o / g / s / mtllib ... : ignored geometry
        // metadata, not an error.
    }

    result.vertexCount = vertices.size();
    return result;
}

ObjLoadResult
loadObjFile(const std::string &path, uint16_t material_id)
{
    std::ifstream input(path);
    if (!input)
        throw std::runtime_error("cannot open OBJ file '" + path + "'");
    return loadObj(input, material_id);
}

} // namespace zatel::rt
