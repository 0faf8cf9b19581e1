/**
 * @file
 * Campaign specification tests (src/service/campaign.*): field
 * application, JSONL and CSV parsing, '|' sweep-cell expansion,
 * deterministic auto job ids, and finalization rules (unique ids and
 * recipes the predictor can run).
 *
 * The auto-id determinism tests double as the contract behind --resume:
 * re-parsing the same campaign file must always name jobs identically,
 * or completedJobIds() matching breaks silently.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/campaign.hh"
#include "service/campaign_options.hh"
#include "util/arg_parser.hh"

namespace zatel::service
{
namespace
{

std::filesystem::path
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("zatel-test-" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
writeFile(const std::filesystem::path &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
    return path.string();
}

TEST(Campaign, ApplyJobFieldSetsPipelineParams)
{
    CampaignJob job;
    applyJobField(job, "id", "my-job");
    applyJobField(job, "scene", "BUNNY");
    applyJobField(job, "detail", "0.5");
    applyJobField(job, "scene_seed", "42");
    applyJobField(job, "gpu", "rtx2060");
    applyJobField(job, "res", "96");
    applyJobField(job, "spp", "2");
    applyJobField(job, "seed", "7");
    applyJobField(job, "fraction", "0.4");
    applyJobField(job, "k", "4");
    applyJobField(job, "division", "coarse");
    applyJobField(job, "distribution", "exptmp");
    applyJobField(job, "regression", "true");
    applyJobField(job, "downscale", "false");
    applyJobField(job, "profile_noise", "0.02");
    applyJobField(job, "quantize_colors", "5");
    applyJobField(job, "threads", "3");
    applyJobField(job, "priority", "9");
    applyJobField(job, "oracle", "yes");

    EXPECT_EQ(job.id, "my-job");
    EXPECT_EQ(job.scene, "BUNNY");
    EXPECT_FLOAT_EQ(job.sceneDetail, 0.5f);
    EXPECT_EQ(job.sceneSeed, 42u);
    EXPECT_EQ(job.gpu, "rtx2060");
    EXPECT_EQ(job.params.width, 96u);
    EXPECT_EQ(job.params.height, 96u);
    EXPECT_EQ(job.params.samplesPerPixel, 2u);
    EXPECT_EQ(job.params.seed, 7u);
    ASSERT_TRUE(job.params.selector.fixedFraction.has_value());
    EXPECT_DOUBLE_EQ(*job.params.selector.fixedFraction, 0.4);
    ASSERT_TRUE(job.params.forcedK.has_value());
    EXPECT_EQ(*job.params.forcedK, 4u);
    EXPECT_EQ(job.params.partition.method,
              core::DivisionMethod::CoarseGrained);
    EXPECT_EQ(job.params.selector.distribution,
              core::DistributionMethod::ExpTemp);
    EXPECT_EQ(job.params.extrapolation,
              core::ExtrapolationMethod::ExponentialRegression);
    EXPECT_FALSE(job.params.downscaleGpu);
    EXPECT_EQ(job.params.profiler.source,
              heatmap::ProfilingSource::HardwareTimer);
    EXPECT_DOUBLE_EQ(job.params.profiler.timerNoise, 0.02);
    EXPECT_EQ(job.params.quantizeColors, 5u);
    EXPECT_EQ(job.params.numThreads, 3u);
    EXPECT_EQ(job.priority, 9);
    EXPECT_TRUE(job.withOracle);
}

TEST(Campaign, ApplyJobFieldWidthHeightAreIndependent)
{
    CampaignJob job;
    applyJobField(job, "width", "64");
    applyJobField(job, "height", "32");
    EXPECT_EQ(job.params.width, 64u);
    EXPECT_EQ(job.params.height, 32u);
}

TEST(Campaign, ApplyJobFieldEmptyValueKeepsDefault)
{
    CampaignJob job;
    const uint32_t default_width = job.params.width;
    applyJobField(job, "res", "");
    EXPECT_EQ(job.params.width, default_width);
    EXPECT_FALSE(job.params.selector.fixedFraction.has_value());
    applyJobField(job, "fraction", "");
    EXPECT_FALSE(job.params.selector.fixedFraction.has_value());
}

TEST(Campaign, ApplyJobFieldRejectsBadInput)
{
    CampaignJob job;
    EXPECT_THROW(applyJobField(job, "wat", "1"), CampaignError);
    EXPECT_THROW(applyJobField(job, "res", "96px"), CampaignError);
    EXPECT_THROW(applyJobField(job, "fraction", "0.4x"), CampaignError);
    EXPECT_THROW(applyJobField(job, "oracle", "maybe"), CampaignError);
    EXPECT_THROW(applyJobField(job, "division", "diagonal"), CampaignError);
    EXPECT_THROW(applyJobField(job, "distribution", "zipf"), CampaignError);
    // Values the job cannot hold: non-finite numbers, integers wider
    // than their 32-bit field, a priority outside int, a float detail
    // outside float.
    EXPECT_THROW(applyJobField(job, "fraction", "nan"), CampaignError);
    EXPECT_THROW(applyJobField(job, "fraction", "inf"), CampaignError);
    EXPECT_THROW(applyJobField(job, "profile_noise", "-inf"),
                 CampaignError);
    EXPECT_THROW(applyJobField(job, "res", "4294967312"), CampaignError);
    EXPECT_THROW(applyJobField(job, "k", "4294967296"), CampaignError);
    EXPECT_THROW(applyJobField(job, "priority", "1e300"), CampaignError);
    EXPECT_THROW(applyJobField(job, "priority", "-3e9"), CampaignError);
    EXPECT_THROW(applyJobField(job, "detail", "1e300"), CampaignError);
    EXPECT_THROW(applyJobField(job, "seed", "0x10"), CampaignError);
    // Integers are base 10: "010" is ten, never octal 8.
    applyJobField(job, "res", "010");
    EXPECT_EQ(job.params.width, 10u);
    applyJobField(job, "res", "4294967295");
    EXPECT_EQ(job.params.width, 4294967295u);
}

TEST(Campaign, ApplyJobFieldRejectsNegativeIntegers)
{
    // std::stoull accepts a leading '-' and wraps it into the unsigned
    // range ("-1" -> 2^64-1); the parser must reject the sign instead
    // of letting a typo'd negative become an absurdly large value.
    CampaignJob job;
    EXPECT_THROW(applyJobField(job, "res", "-1"), CampaignError);
    EXPECT_THROW(applyJobField(job, "seed", "-7"), CampaignError);
    EXPECT_THROW(applyJobField(job, "scene_seed", "  -42"), CampaignError);
    EXPECT_THROW(applyJobField(job, "threads", "-1"), CampaignError);
    EXPECT_THROW(applyJobField(job, "k", "-2"), CampaignError);
    // Sanity: the same fields still accept the non-negative forms.
    applyJobField(job, "res", "96");
    applyJobField(job, "seed", "7");
    EXPECT_EQ(job.params.width, 96u);
}

TEST(Campaign, GpuConfigFromNameResolvesAliases)
{
    EXPECT_EQ(gpuConfigFromName("soc").name,
              gpuConfigFromName("mobile").name);
    EXPECT_EQ(gpuConfigFromName("rtx2060").name,
              gpuConfigFromName("rtx").name);
    EXPECT_NE(gpuConfigFromName("soc").name,
              gpuConfigFromName("rtx2060").name);
    EXPECT_THROW(gpuConfigFromName("tpu"), CampaignError);
}

TEST(Campaign, JsonlParsingSkipsCommentsAndBlankLines)
{
    std::istringstream in(
        "# campaign header comment\n"
        "\n"
        "{\"scene\": \"BUNNY\", \"gpu\": \"rtx\", \"res\": 96, "
        "\"fraction\": 0.4, \"oracle\": true}\n"
        "   \n"
        "{\"id\": \"explicit\", \"scene\": \"PARK\", \"detail\": null}\n");
    std::vector<CampaignJob> jobs = parseCampaignJsonl(in);
    ASSERT_EQ(jobs.size(), 2u);

    EXPECT_EQ(jobs[0].scene, "BUNNY");
    EXPECT_EQ(jobs[0].gpu, "rtx");
    EXPECT_EQ(jobs[0].params.width, 96u);
    ASSERT_TRUE(jobs[0].params.selector.fixedFraction.has_value());
    EXPECT_DOUBLE_EQ(*jobs[0].params.selector.fixedFraction, 0.4);
    EXPECT_TRUE(jobs[0].withOracle);

    EXPECT_EQ(jobs[1].id, "explicit");
    EXPECT_EQ(jobs[1].scene, "PARK");
    // "detail": null keeps the default.
    EXPECT_FLOAT_EQ(jobs[1].sceneDetail, 1.0f);
}

TEST(Campaign, JsonlParsingRejectsMalformedLines)
{
    const char *bad_lines[] = {
        "not json",
        "{\"scene\" \"PARK\"}",          // missing ':'
        "{\"scene\": \"PARK\"} trailing", // junk after the object
        "{\"scene\": \"PARK\"",           // unterminated object
        "{\"wat\": 1}",                   // unknown field
        "{\"res\": \"NaNpx\"}",           // unparsable value
        "{\"fraction\": nan}",            // bareword, not a number
        "{\"fraction\": \"nan\"}",        // not finite
        "{\"res\": 4294967312}",          // wider than 32 bits
        "{\"res\": 010}",                 // leading zero
        "{\"priority\": 1e300}",          // outside int
        "{\"seed\": 0x10}",               // hex
        "{\"oracle\": yes}",              // bareword
        "{\"division\": coarse}",         // bareword
        "{\"res\": 16, \"res\": 32}",     // duplicate field
        "{\"scene\": [\"PARK\"]}",        // not a scalar
        "[{\"scene\": \"PARK\"}]",        // not an object
    };
    for (const char *line : bad_lines) {
        std::istringstream in(line);
        EXPECT_THROW(parseCampaignJsonl(in), CampaignError)
            << "accepted malformed line: " << line;
    }
}

TEST(Campaign, JsonlFieldsApplyInDocumentOrderWithExactIntegers)
{
    std::istringstream in(
        "{\"res\": 32, \"height\": 16, \"seed\": 9007199254740993, "
        "\"scene_seed\": 18446744073709551615}\n"
        "{\"height\": 16, \"res\": 32}\n");
    const std::vector<CampaignJob> jobs = parseCampaignJsonl(in);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].params.width, 32u);
    EXPECT_EQ(jobs[0].params.height, 16u);
    EXPECT_EQ(jobs[0].params.seed, 9007199254740993ull);
    EXPECT_EQ(jobs[0].sceneSeed, 18446744073709551615ull);
    EXPECT_EQ(jobs[1].params.width, 32u);
    EXPECT_EQ(jobs[1].params.height, 32u);
}

TEST(Campaign, CsvRejectsNonFiniteAndOverflowingCells)
{
    for (const char *csv : {"fraction\nnan\n", "res\n4294967312\n",
                            "priority\n1e300\n", "detail\ninf\n"}) {
        std::istringstream in(csv);
        EXPECT_THROW(parseCampaignCsv(in), CampaignError) << csv;
    }
}

TEST(Campaign, CsvSweepCellsExpandToCartesianProduct)
{
    std::istringstream in(
        "# sweep over scene x gpu\n"
        "scene,gpu,res\n"
        "PARK|BUNNY,soc|rtx2060,96\n"
        "SPNZA,soc,64|128\n");
    std::vector<CampaignJob> jobs = parseCampaignCsv(in);
    ASSERT_EQ(jobs.size(), 6u);

    // First row: odometer order, leftmost column fastest.
    EXPECT_EQ(jobs[0].scene, "PARK");
    EXPECT_EQ(jobs[0].gpu, "soc");
    EXPECT_EQ(jobs[1].scene, "BUNNY");
    EXPECT_EQ(jobs[1].gpu, "soc");
    EXPECT_EQ(jobs[2].scene, "PARK");
    EXPECT_EQ(jobs[2].gpu, "rtx2060");
    EXPECT_EQ(jobs[3].scene, "BUNNY");
    EXPECT_EQ(jobs[3].gpu, "rtx2060");
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(jobs[i].params.width, 96u) << "job " << i;

    // Second row sweeps only the resolution.
    EXPECT_EQ(jobs[4].scene, "SPNZA");
    EXPECT_EQ(jobs[4].params.width, 64u);
    EXPECT_EQ(jobs[5].scene, "SPNZA");
    EXPECT_EQ(jobs[5].params.width, 128u);
}

TEST(Campaign, CsvQuotedCellsMayHoldCommas)
{
    std::istringstream in("scene,id\n"
                          "PARK,\"job, the first\"\n");
    std::vector<CampaignJob> jobs = parseCampaignCsv(in);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, "job, the first");
}

TEST(Campaign, CsvRejectsCellCountMismatch)
{
    std::istringstream in("scene,gpu,res\n"
                          "PARK,soc\n");
    EXPECT_THROW(parseCampaignCsv(in), CampaignError);
}

TEST(Campaign, AutoJobIdIsDeterministicAndParameterSensitive)
{
    CampaignJob job;
    job.scene = "PARK";
    job.gpu = "soc";
    job.params.width = 96;
    job.withOracle = true;

    const std::string id = autoJobId(job);
    EXPECT_EQ(id, autoJobId(job)) << "auto id must be stable";
    EXPECT_EQ(id.rfind("park-soc-r96-cmp-", 0), 0u) << "id was: " << id;
    EXPECT_EQ(id.size(), std::string("park-soc-r96-cmp-").size() + 8);

    CampaignJob other = job;
    other.params.selector.fixedFraction = 0.4;
    EXPECT_NE(autoJobId(other), id)
        << "parameter changes must change the id hash";

    // The explicit id is NOT part of the parameter hash.
    CampaignJob named = job;
    named.id = "custom";
    EXPECT_EQ(jobParamsHash(named), jobParamsHash(job));
}

TEST(Campaign, JobParamsHashTracksEveryKnob)
{
    const CampaignJob base;
    const uint64_t base_hash = jobParamsHash(base);

    const char *fields[][2] = {
        {"scene", "BUNNY"},     {"detail", "0.5"},
        {"scene_seed", "1"},    {"gpu", "rtx"},
        {"res", "96"},          {"spp", "2"},
        {"seed", "7"},          {"fraction", "0.4"},
        {"k", "4"},             {"division", "coarse"},
        {"distribution", "lintmp"}, {"regression", "true"},
        {"downscale", "false"}, {"profile_noise", "0.02"},
        {"quantize_colors", "5"}, {"oracle", "true"},
    };
    for (const auto &field : fields) {
        CampaignJob job;
        applyJobField(job, field[0], field[1]);
        EXPECT_NE(jobParamsHash(job), base_hash)
            << "field '" << field[0] << "' is not covered by the hash";
    }
}

TEST(Campaign, FinalizeCampaignFillsIdsAndRejectsDuplicates)
{
    std::vector<CampaignJob> empty;
    EXPECT_THROW(finalizeCampaign(empty), CampaignError);

    std::vector<CampaignJob> jobs(2);
    jobs[1].params.width = 96;
    jobs[1].params.height = 96;
    finalizeCampaign(jobs);
    EXPECT_FALSE(jobs[0].id.empty());
    EXPECT_FALSE(jobs[1].id.empty());
    EXPECT_NE(jobs[0].id, jobs[1].id);

    // Two jobs with identical parameters collide on the auto id.
    std::vector<CampaignJob> twins(2);
    EXPECT_THROW(finalizeCampaign(twins), CampaignError);

    // An explicit id used twice collides too.
    std::vector<CampaignJob> named(2);
    named[0].id = "same";
    named[1].id = "same";
    named[1].params.width = 96;
    EXPECT_THROW(finalizeCampaign(named), CampaignError);
}

/** finalizeCampaign() over a one-line JSONL campaign. */
void
finalizeLine(const std::string &line)
{
    std::istringstream in(line);
    std::vector<CampaignJob> jobs = parseCampaignJsonl(in);
    finalizeCampaign(jobs);
}

TEST(Campaign, FinalizeCampaignRejectsRecipesThePredictorCannotRun)
{
    // Each of these once aborted or fatal()ed the whole process after
    // its job started. soc downscales by K = 4 and fine division deals
    // 32x2 chunks to the groups, so a plane needs four chunks.
    std::vector<std::string> impossible;
    for (int res = 0; res <= 4; ++res) {
        impossible.push_back("{\"gpu\":\"soc\",\"res\":" +
                             std::to_string(res) + "}");
    }
    impossible.push_back(R"({"gpu":"soc","res":32,"spp":0})");
    impossible.push_back(R"({"gpu":"soc","res":32,"quantize_colors":0})");
    impossible.push_back(R"({"gpu":"soc","width":16,"height":1})");
    impossible.push_back(R"({"gpu":"soc","res":32,"k":1000})");
    impossible.push_back(R"({"gpu":"soc","res":32,"k":3})");
    // These ran: the selector clamped the fraction into [0, 1], so 0
    // and -1 extrapolated a 0% trace into an "ok" row of IPC 192, and
    // 2 ran at 100%; k 0 ran as k 1.
    impossible.push_back(R"({"gpu":"soc","res":32,"fraction":0})");
    impossible.push_back(R"({"gpu":"soc","res":32,"fraction":-1})");
    impossible.push_back(R"({"gpu":"soc","res":32,"fraction":2})");
    impossible.push_back(R"({"gpu":"soc","res":32,"fraction":1.000001})");
    impossible.push_back(R"({"gpu":"soc","res":32,"k":0})");
    impossible.push_back(
        R"({"gpu":"soc","res":32,"k":0,"downscale":false})");
    impossible.push_back(R"({"gpu":"soc","res":32,"threads":4097})");
    for (const std::string &line : impossible)
        EXPECT_THROW(finalizeLine(line), CampaignError) << line;

    // Recipes that run stay accepted: the smallest square planes with
    // four chunks, a forced k that only splits the plane because the
    // GPU is not downscaled, the ends of the fraction range and the
    // largest thread count.
    EXPECT_NO_THROW(finalizeLine(R"({"gpu":"soc","res":7})"));
    EXPECT_NO_THROW(finalizeLine(R"({"gpu":"soc","res":8})"));
    EXPECT_NO_THROW(
        finalizeLine(R"({"gpu":"soc","res":32,"k":3,"downscale":false})"));
    EXPECT_NO_THROW(finalizeLine(R"({"gpu":"soc","res":32,"fraction":1})"));
    EXPECT_NO_THROW(
        finalizeLine(R"({"gpu":"soc","res":32,"fraction":1e-9})"));
    EXPECT_NO_THROW(finalizeLine(R"({"gpu":"soc","res":32,"k":1})"));
    EXPECT_NO_THROW(
        finalizeLine(R"({"gpu":"soc","res":32,"threads":4096})"));
}

TEST(Campaign, CheckRecipeNamesTheJobOnlyWhenItHasAnId)
{
    CampaignJob job;
    applyJobField(job, "fraction", "0");
    try {
        checkRecipe(job);
        FAIL() << "fraction 0 must be rejected";
    } catch (const CampaignError &err) {
        EXPECT_STREQ(err.what(), "campaign: fraction=0 must lie in (0, 1]");
    }
    job.id = "sweep-7";
    try {
        checkRecipe(job);
        FAIL() << "fraction 0 must be rejected";
    } catch (const CampaignError &err) {
        EXPECT_STREQ(err.what(),
                     "campaign: job 'sweep-7': fraction=0 must lie in "
                     "(0, 1]");
    }
}

/** Parse @p argv (program name first) with the resilience options. */
GroupResilience
resilienceFrom(std::vector<const char *> argv)
{
    ArgParser args("test");
    GroupResilience::addOptions(args);
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()))
        << args.errorMessage();
    return GroupResilience::fromArgs(args);
}

TEST(Campaign, GroupResilienceOptionsAreRangeChecked)
{
    const GroupResilience defaults = resilienceFrom({"test"});
    const core::ZatelParams params;
    EXPECT_EQ(defaults.groupRetries, params.groupRetries);
    EXPECT_EQ(defaults.minGroupsFraction, params.minGroupsFraction);
    EXPECT_EQ(defaults.failFast, params.failFast);

    const GroupResilience set = resilienceFrom(
        {"test", "--group-retries", "100", "--min-groups-fraction", "1",
         "--fail-fast"});
    core::ZatelParams applied;
    set.applyTo(applied);
    EXPECT_EQ(applied.groupRetries, 100u);
    EXPECT_EQ(applied.minGroupsFraction, 1.0);
    EXPECT_TRUE(applied.failFast);

    const std::vector<std::vector<const char *>> bad = {
        {"test", "--group-retries", "-1"},
        {"test", "--group-retries", "101"},
        {"test", "--group-retries", "1.5"},
        {"test", "--min-groups-fraction", "-0.1"},
        {"test", "--min-groups-fraction", "1.5"},
        {"test", "--min-groups-fraction", "nan"},
    };
    for (const auto &argv : bad)
        EXPECT_THROW(resilienceFrom(argv), CampaignError) << argv[1];
}

TEST(Campaign, LoadCampaignFileDispatchesOnExtension)
{
    const std::filesystem::path dir = scratchDir("campaign-load");

    const std::string jsonl_path = writeFile(
        dir / "sweep.jsonl",
        "{\"scene\": \"PARK\", \"res\": 64}\n"
        "{\"scene\": \"PARK\", \"res\": 96}\n");
    std::vector<CampaignJob> jsonl_jobs = loadCampaignFile(jsonl_path);
    ASSERT_EQ(jsonl_jobs.size(), 2u);
    EXPECT_FALSE(jsonl_jobs[0].id.empty());

    const std::string csv_path =
        writeFile(dir / "sweep.csv", "scene,res\nPARK,64|96\n");
    std::vector<CampaignJob> csv_jobs = loadCampaignFile(csv_path);
    ASSERT_EQ(csv_jobs.size(), 2u);

    // Same sweep in either format produces the same deterministic ids.
    EXPECT_EQ(jsonl_jobs[0].id, csv_jobs[0].id);
    EXPECT_EQ(jsonl_jobs[1].id, csv_jobs[1].id);

    EXPECT_THROW(loadCampaignFile((dir / "missing.jsonl").string()),
                 CampaignError);
    std::filesystem::remove_all(dir);
}

TEST(CampaignOptions, ToArgsRoundTrips)
{
    // Every field off its default: a field toArgs() leaves off the
    // worker command line comes back as its default and fails here.
    CampaignOptions set;
    set.jobs = 3;
    set.cacheDir = "/tmp/zatel cache";
    set.cacheMb = 17;
    set.cacheDiskMb = 5;
    set.timeoutSeconds = 0.1;
    set.stallTimeoutMs = 1234.5678901234567;
    set.stageRetries = 7;
    set.resilience.groupRetries = 4;
    set.resilience.minGroupsFraction = 1.0 / 3.0;
    set.resilience.failFast = true;
    set.includeTiming = false;
    set.quiet = true;

    const std::vector<std::string> args = set.toArgs();
    std::vector<const char *> argv = {"worker"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    ArgParser parser("worker");
    CampaignOptions::addOptions(parser);
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()))
        << parser.errorMessage();
    const CampaignOptions read = CampaignOptions::fromArgs(parser);

    EXPECT_TRUE(read == set);
    // Fractions bit for bit.
    EXPECT_EQ(std::bit_cast<uint64_t>(read.timeoutSeconds),
              std::bit_cast<uint64_t>(set.timeoutSeconds));
    EXPECT_EQ(std::bit_cast<uint64_t>(read.stallTimeoutMs),
              std::bit_cast<uint64_t>(set.stallTimeoutMs));
    EXPECT_EQ(std::bit_cast<uint64_t>(read.resilience.minGroupsFraction),
              std::bit_cast<uint64_t>(set.resilience.minGroupsFraction));

    // The defaults round-trip too, and are what an empty command line
    // reads.
    ArgParser empty("worker");
    CampaignOptions::addOptions(empty);
    std::vector<const char *> none = {"worker"};
    ASSERT_TRUE(empty.parse(1, none.data()));
    EXPECT_TRUE(CampaignOptions::fromArgs(empty) == CampaignOptions{});
}

TEST(CampaignOptions, OutOfRangeValuesThrow)
{
    const std::vector<std::vector<const char *>> bad = {
        {"t", "--timeout", "inf"},       {"t", "--timeout", "1e300"},
        {"t", "--timeout", "-1"},        {"t", "--stall-timeout-ms", "nan"},
        {"t", "--stall-timeout-ms", "86400001"},
        {"t", "--cache-mb", "17592186044416"},
        {"t", "--cache-mb", "0"},        {"t", "--cache-disk-mb", "1048577"},
        {"t", "--jobs", "-1"},           {"t", "--jobs", "0x3"},
        {"t", "--jobs", "4097"},         {"t", "--stage-retries", "101"},
        {"t", "--group-retries", "0x3"}};
    for (const std::vector<const char *> &argv : bad) {
        ArgParser parser("t");
        CampaignOptions::addOptions(parser);
        ASSERT_TRUE(
            parser.parse(static_cast<int>(argv.size()), argv.data()));
        EXPECT_ANY_THROW(CampaignOptions::fromArgs(parser))
            << argv[1] << " " << argv[2];
    }
    ArgParser parser("t");
    CampaignOptions::addOptions(parser);
    std::vector<const char *> argv = {"t", "--jobs", "010", "--cache-disk-mb",
                                      "1", "--group-retries", "0"};
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    const CampaignOptions read = CampaignOptions::fromArgs(parser);
    EXPECT_EQ(read.jobs, 10u);
    EXPECT_EQ(read.cacheDiskMb, 1u);
    EXPECT_EQ(read.resilience.groupRetries, 0u);
}

} // namespace
} // namespace zatel::service
