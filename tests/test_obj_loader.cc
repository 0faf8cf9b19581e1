/**
 * @file
 * Tests for the Wavefront OBJ loader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rt/obj_loader.hh"

namespace zatel::rt
{
namespace
{

ObjLoadResult
parse(const std::string &text, uint16_t material = 0)
{
    std::istringstream input(text);
    return loadObj(input, material);
}

TEST(ObjLoader, SingleTriangle)
{
    ObjLoadResult result = parse("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n");
    EXPECT_EQ(result.vertexCount, 3u);
    EXPECT_EQ(result.faceCount, 1u);
    ASSERT_EQ(result.triangles.size(), 1u);
    EXPECT_EQ(result.triangles[0].v0, Vec3(0.0f, 0.0f, 0.0f));
    EXPECT_EQ(result.triangles[0].v1, Vec3(1.0f, 0.0f, 0.0f));
    EXPECT_EQ(result.triangles[0].v2, Vec3(0.0f, 1.0f, 0.0f));
    EXPECT_EQ(result.skippedLines, 0u);
}

TEST(ObjLoader, QuadFanTriangulates)
{
    ObjLoadResult result = parse(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n");
    EXPECT_EQ(result.faceCount, 1u);
    ASSERT_EQ(result.triangles.size(), 2u);
    // Fan shares the first vertex.
    EXPECT_EQ(result.triangles[0].v0, result.triangles[1].v0);
}

TEST(ObjLoader, SlashIndexFormsAccepted)
{
    const char *text =
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "vt 0 0\nvn 0 0 1\n"
        "f 1/1 2/1 3/1\n"
        "f 1//1 2//1 3//1\n"
        "f 1/1/1 2/1/1 3/1/1\n";
    ObjLoadResult result = parse(text);
    EXPECT_EQ(result.triangles.size(), 3u);
    EXPECT_EQ(result.skippedLines, 0u);
}

TEST(ObjLoader, NegativeIndicesAreRelative)
{
    ObjLoadResult result = parse(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n");
    ASSERT_EQ(result.triangles.size(), 1u);
    EXPECT_EQ(result.triangles[0].v2, Vec3(0.0f, 1.0f, 0.0f));
}

TEST(ObjLoader, CommentsAndMetadataIgnored)
{
    const char *text =
        "# a comment\n"
        "mtllib scene.mtl\n"
        "o thing\ng part\ns off\nusemtl red\n"
        "v 0 0 0  # trailing comment\n"
        "v 1 0 0\nv 0 1 0\n"
        "\n"
        "f 1 2 3\n";
    ObjLoadResult result = parse(text);
    EXPECT_EQ(result.triangles.size(), 1u);
    EXPECT_EQ(result.skippedLines, 0u);
}

TEST(ObjLoader, MalformedLinesSkippedNotFatal)
{
    const char *text =
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "v broken\n"
        "f 1 2\n"      // too few vertices
        "f 1 2 bogus\n" // unparsable element
        "f 1 2 3\n";
    ObjLoadResult result = parse(text);
    EXPECT_EQ(result.triangles.size(), 1u);
    EXPECT_EQ(result.skippedLines, 3u);
}

TEST(ObjLoader, OutOfRangeIndexIsFatal)
{
    // Fatal to the load, not to the process: the CLI prints `error:`.
    EXPECT_THROW(parse("v 0 0 0\nf 1 2 3\n"), std::runtime_error);
    EXPECT_THROW(parse("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -4 -2 -1\n"),
                 std::runtime_error);
}

TEST(ObjLoader, MaterialIdApplied)
{
    ObjLoadResult result =
        parse("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", 7);
    ASSERT_EQ(result.triangles.size(), 1u);
    EXPECT_EQ(result.triangles[0].materialId, 7);
}

TEST(ObjLoader, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/zatel_test.obj";
    {
        std::ofstream out(path);
        out << "v 0 0 0\nv 2 0 0\nv 0 2 0\nv 2 2 0\nf 1 2 4 3\n";
    }
    ObjLoadResult result = loadObjFile(path);
    EXPECT_EQ(result.vertexCount, 4u);
    EXPECT_EQ(result.triangles.size(), 2u);
    std::remove(path.c_str());
}

TEST(ObjLoader, MissingFileIsFatal)
{
    EXPECT_THROW(loadObjFile("/nonexistent/mesh.obj"), std::runtime_error);
}

TEST(ObjLoader, LargeFanFace)
{
    std::ostringstream text;
    const int n = 10;
    for (int i = 0; i < n; ++i) {
        double angle = 2.0 * M_PI * i / n;
        text << "v " << std::cos(angle) << ' ' << std::sin(angle)
             << " 0\n";
    }
    text << "f";
    for (int i = 1; i <= n; ++i)
        text << ' ' << i;
    text << "\n";
    ObjLoadResult result = parse(text.str());
    EXPECT_EQ(result.triangles.size(), static_cast<size_t>(n - 2));
}

} // namespace
} // namespace zatel::rt
