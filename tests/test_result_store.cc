/**
 * @file
 * Result store tests (src/service/result_store.*): JSONL/CSV row
 * formats, %.17g bit-exact double round trips, resume scanning via
 * completedJobIds() (ids holding quotes, backslashes and commas
 * included), append mode, the --no-timing determinism switch and
 * thread-safe appends.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "service/result_store.hh"
#include "util/fault_injection.hh"

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

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Bit pattern of a double; distinguishes what tolerance compares hide. */
uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

ResultRow
sampleRow(const std::string &id, JobStatus status = JobStatus::Ok)
{
    ResultRow row;
    row.jobId = id;
    row.status = status;
    row.scene = "PARK";
    row.gpu = "soc";
    row.k = 4;
    row.fractionTraced = 0.1; // not exactly representable in binary
    double value = 0.5;
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        row.predicted[metric] = value;
        value += 0.125;
    }
    return row;
}

size_t
countChar(const std::string &text, char c)
{
    size_t count = 0;
    for (char t : text) {
        if (t == c)
            ++count;
    }
    return count;
}

TEST(ResultStore, JobStatusNamesAreStable)
{
    EXPECT_STREQ(jobStatusName(JobStatus::Ok), "ok");
    EXPECT_STREQ(jobStatusName(JobStatus::Failed), "failed");
    EXPECT_STREQ(jobStatusName(JobStatus::Cancelled), "cancelled");
    EXPECT_STREQ(jobStatusName(JobStatus::TimedOut), "timeout");
    EXPECT_STREQ(jobStatusName(JobStatus::Skipped), "skipped");
    EXPECT_STREQ(jobStatusName(JobStatus::Degraded), "degraded");
}

TEST(ResultStore, JsonlRowOmitsEmptyMetricBlocks)
{
    ResultStore store(""); // in-memory JSONL
    EXPECT_FALSE(store.csv());

    ResultRow row;
    row.jobId = "j";
    row.status = JobStatus::Failed;
    row.error = "boom \"quoted\"";
    const std::string line = store.formatRow(row);

    EXPECT_NE(line.find("\"job\":\"j\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(line.find("\"error\":\"boom \\\"quoted\\\"\""),
              std::string::npos)
        << line;
    // No prediction ran: no metric keys at all.
    EXPECT_EQ(line.find("\"ipc\""), std::string::npos) << line;
    EXPECT_EQ(line.find("oracle_ipc"), std::string::npos) << line;
}

TEST(ResultStore, JsonlRowCarriesPredictedAndOracleMetrics)
{
    ResultStore store("");
    ResultRow row = sampleRow("j");
    for (gpusim::Metric metric : gpusim::allMetrics())
        row.oracle[metric] = 2.0;
    const std::string line = store.formatRow(row);
    EXPECT_NE(line.find("\"ipc\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"oracle_ipc\":2"), std::string::npos) << line;
    EXPECT_NE(line.find("\"sim_s\":"), std::string::npos)
        << "timing fields default on: " << line;
    // An ok row carries no error field.
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
}

TEST(ResultStore, DoublesRoundTripBitExact)
{
    ResultStore store("");
    ResultRow row = sampleRow("j");
    row.fractionTraced = 1.0 / 3.0;
    const std::string line = store.formatRow(row);

    const std::string tag = "\"fraction_traced\":";
    const size_t pos = line.find(tag);
    ASSERT_NE(pos, std::string::npos) << line;
    const double parsed =
        std::strtod(line.c_str() + pos + tag.size(), nullptr);
    EXPECT_EQ(bitsOf(parsed), bitsOf(row.fractionTraced))
        << "%.17g output must re-parse to the identical bit pattern";
}

TEST(ResultStore, NoTimingOmitsWallClockFields)
{
    ResultStoreOptions options;
    options.includeTiming = false;
    ResultStore store("", options);
    const std::string line = store.formatRow(sampleRow("j"));
    EXPECT_EQ(line.find("preprocess_s"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"sim_s\""), std::string::npos) << line;
    EXPECT_EQ(line.find("max_group_s"), std::string::npos) << line;
    EXPECT_EQ(line.find("oracle_s"), std::string::npos) << line;
}

TEST(ResultStore, CsvHeaderMatchesRowColumnCount)
{
    const std::filesystem::path dir = scratchDir("store-csv");
    const std::string path = (dir / "out.csv").string();
    {
        ResultStore store(path);
        EXPECT_TRUE(store.csv());
        store.append(sampleRow("a"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("job,status,scene,gpu,k,fraction_traced", 0),
              0u)
        << lines[0];
    EXPECT_EQ(countChar(lines[0], ','), countChar(lines[1], ','))
        << "header and data row column counts diverge";
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, CsvQuotesErrorMessagesWithCommas)
{
    const std::filesystem::path dir = scratchDir("store-csv-error");
    const std::string path = (dir / "err.csv").string();
    {
        ResultStore store(path);
        ResultRow row;
        row.jobId = "j";
        row.status = JobStatus::Failed;
        row.error = "boom, with \"quotes\"";
        store.append(row);
        std::vector<std::string> lines = readLines(path);
        ASSERT_EQ(lines.size(), 2u);
        EXPECT_NE(lines[1].find("\"boom, with \"\"quotes\"\"\""),
                  std::string::npos)
            << lines[1];
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, CompletedJobIdsScansJsonl)
{
    const std::filesystem::path dir = scratchDir("store-resume-jsonl");
    const std::string path = (dir / "out.jsonl").string();
    {
        ResultStore store(path);
        store.append(sampleRow("good-1"));
        store.append(sampleRow("bad", JobStatus::Failed));
        store.append(sampleRow("late", JobStatus::TimedOut));
        store.append(sampleRow("good-2"));
        store.append(sampleRow("prior", JobStatus::Skipped));
    }
    std::set<std::string> completed = ResultStore::completedJobIds(path);
    EXPECT_EQ(completed,
              (std::set<std::string>{"good-1", "good-2", "prior"}))
        << "only ok/skipped rows count as completed";
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, CompletedJobIdsScansCsv)
{
    const std::filesystem::path dir = scratchDir("store-resume-csv");
    const std::string path = (dir / "out.csv").string();
    {
        ResultStore store(path);
        store.append(sampleRow("good"));
        store.append(sampleRow("bad", JobStatus::Failed));
    }
    EXPECT_EQ(ResultStore::completedJobIds(path),
              (std::set<std::string>{"good"}));
    EXPECT_TRUE(
        ResultStore::completedJobIds((dir / "missing.csv").string())
            .empty());
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, IdsWithQuotesBackslashesAndCommasSurviveAScan)
{
    // Resume and the distributed merge identify rows by the id read
    // back from the file; it must be the id that was written.
    const std::vector<std::string> ids = {"a\"b", "a\\b", "a,b"};
    for (const char *name : {"ids.jsonl", "ids.csv"}) {
        const auto dir = scratchDir("quoted-ids");
        const std::string path = (dir / name).string();
        {
            ResultStore store(path);
            for (const std::string &id : ids) {
                ResultRow row = sampleRow(id);
                row.scene = "PARK,\"x\"";
                store.append(row);
            }
            store.finalize();
        }
        EXPECT_EQ(ResultStore::completedJobIds(path),
                  std::set<std::string>(ids.begin(), ids.end()))
            << name;
        std::vector<std::string> scanned;
        for (const ScannedRow &row : ResultStore::scanRows(path))
            scanned.push_back(row.jobId);
        EXPECT_EQ(scanned, ids) << name;
    }
}

TEST(ResultStore, ScanSkipsACsvFileWithoutJobAndStatusCells)
{
    const auto dir = scratchDir("one-column-csv");
    const std::string path = (dir / "foreign.csv").string();
    {
        std::ofstream out(path);
        out << "job\nj1\n";
    }
    EXPECT_TRUE(ResultStore::scanRows(path).empty());
}

TEST(ResultStore, JsonlRowsCarryEveryByteOfTheirText)
{
    std::string text;
    for (int byte = 0; byte < 256; ++byte)
        text += static_cast<char>(byte);
    ResultRow row = sampleRow("bytes", JobStatus::Failed);
    row.error = text;
    ResultStore store("");
    const obs::JsonValue doc = obs::parseJson(store.formatRow(row));
    EXPECT_EQ(doc.at("error").stringValue, text);
}

TEST(ResultStore, AppendModeKeepsExistingRowsAndHeader)
{
    const std::filesystem::path dir = scratchDir("store-append");
    const std::string path = (dir / "out.csv").string();
    {
        ResultStore store(path);
        store.append(sampleRow("first"));
    }
    {
        ResultStoreOptions options;
        options.append = true;
        ResultStore store(path, options);
        store.append(sampleRow("second"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u) << "header + two data rows";
    size_t headers = 0;
    for (const std::string &line : lines) {
        if (line.rfind("job,status", 0) == 0)
            ++headers;
    }
    EXPECT_EQ(headers, 1u) << "append mode must not duplicate the header";
    EXPECT_EQ(lines[1].rfind("first,", 0), 0u);
    EXPECT_EQ(lines[2].rfind("second,", 0), 0u);

    // A truncating re-open starts over.
    {
        ResultStore store(path);
        store.append(sampleRow("only"));
    }
    EXPECT_EQ(readLines(path).size(), 2u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ConcurrentAppendsAreAllRecorded)
{
    ResultStore store(""); // in-memory
    constexpr int kThreads = 8;
    constexpr int kRowsPerThread = 25;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t]() {
            for (int i = 0; i < kRowsPerThread; ++i) {
                const JobStatus status =
                    (i % 2 == 0) ? JobStatus::Ok : JobStatus::Failed;
                std::string id = std::to_string(t);
                id += "-";
                id += std::to_string(i);
                store.append(sampleRow(id, status));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(store.rowCount(),
              static_cast<size_t>(kThreads * kRowsPerThread));
    EXPECT_EQ(store.countWithStatus(JobStatus::Ok),
              static_cast<size_t>(kThreads * 13));
    EXPECT_EQ(store.countWithStatus(JobStatus::Failed),
              static_cast<size_t>(kThreads * 12));

    std::set<std::string> ids;
    for (const ResultRow &row : store.rows())
        ids.insert(row.jobId);
    EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kRowsPerThread))
        << "no row lost or duplicated under concurrent appends";
}

TEST(ResultStore, DegradedJsonlRowsAppendDetailKeysAfterTheOkLayout)
{
    ResultStore store("");
    ResultRow ok = sampleRow("j-ok");
    ResultRow degraded = sampleRow("j-deg", JobStatus::Degraded);
    degraded.failedGroups = 2;
    degraded.survivorExtrapolation = 1.25;

    const std::string ok_line = store.formatRow(ok);
    const std::string degraded_line = store.formatRow(degraded);

    // Ok rows must stay byte-identical to the pre-resilience layout:
    // no degraded-only keys may leak into them.
    EXPECT_EQ(ok_line.find("failed_groups"), std::string::npos) << ok_line;
    EXPECT_EQ(ok_line.find("survivor_extrapolation"), std::string::npos);

    EXPECT_NE(degraded_line.find("\"status\":\"degraded\""),
              std::string::npos)
        << degraded_line;
    EXPECT_NE(degraded_line.find("\"failed_groups\":2"), std::string::npos)
        << degraded_line;
    EXPECT_NE(degraded_line.find("\"survivor_extrapolation\":"),
              std::string::npos)
        << degraded_line;
}

TEST(ResultStore, CompletedJobIdsIgnoresATruncatedFinalJsonlLine)
{
    // kill -9 mid-append: the final line stops mid-object. Resume must
    // not trust it — even though its status substring survived intact.
    const auto dir = scratchDir("truncated-jsonl");
    const std::string path = (dir / "results.jsonl").string();

    ResultStore fmt("");
    {
        std::ofstream out(path);
        out << fmt.formatRow(sampleRow("j1")) << "\n";
        out << fmt.formatRow(sampleRow("j2")) << "\n";
        const std::string third = fmt.formatRow(sampleRow("j3"));
        out << third.substr(0, third.size() / 2); // no closing '}'
    }

    const std::set<std::string> completed =
        ResultStore::completedJobIds(path);
    EXPECT_EQ(completed, (std::set<std::string>{"j1", "j2"}))
        << "the torn j3 row must re-execute on resume";
}

TEST(ResultStore, CompletedJobIdsIgnoresATruncatedCsvRow)
{
    const auto dir = scratchDir("truncated-csv");
    const std::string path = (dir / "results.csv").string();
    {
        ResultStore store(path);
        store.append(sampleRow("j1"));
        store.finalize();
    }
    {
        // A row the writer died in the middle of: right id and status,
        // but short of the header's column count.
        std::ofstream out(path, std::ios::app);
        out << "j2,ok,PARK";
    }

    const std::set<std::string> completed =
        ResultStore::completedJobIds(path);
    EXPECT_EQ(completed, (std::set<std::string>{"j1"}));
}

TEST(ResultStore, DegradedRowsResumeAsDoneUnlessRetryRequested)
{
    // A degraded prediction is a real, usable result: by default a
    // resumed campaign keeps it (a distributed merge synthesizes
    // Degraded rows for exhausted shards, and resuming must not retry
    // the whole campaign because of them). zatel-batch's
    // --retry-degraded opts back into re-running them via
    // degraded_as_done=false.
    const auto dir = scratchDir("degraded-resume");
    const std::string path = (dir / "results.jsonl").string();
    {
        ResultStore store(path);
        store.append(sampleRow("j-ok"));
        store.append(sampleRow("j-deg", JobStatus::Degraded));
        store.append(sampleRow("j-failed", JobStatus::Failed));
        store.finalize();
    }
    EXPECT_EQ(ResultStore::completedJobIds(path),
              (std::set<std::string>{"j-ok", "j-deg"}));
    EXPECT_EQ(
        ResultStore::completedJobIds(path, /*degraded_as_done=*/false),
        (std::set<std::string>{"j-ok"}));
}

TEST(ResultStore, FinalizeIsIdempotentAndSafeWithoutAFile)
{
    ResultStore memory("");
    memory.append(sampleRow("m"));
    memory.finalize(); // no file: must be a no-op, not a crash
    memory.finalize();

    const auto dir = scratchDir("finalize");
    const std::string path = (dir / "results.jsonl").string();
    ResultStore store(path);
    store.append(sampleRow("j1"));
    store.finalize();
    store.finalize();
    store.append(sampleRow("j2")); // appends after finalize still land
    store.finalize();
    EXPECT_EQ(readLines(path).size(), 2u);
}

TEST(ResultStore, InjectedAppendFaultKeepsTheRowInMemory)
{
    FaultRegistry::global().resetForTest();
    FaultRegistry::global().setPolicy("result.store.append",
                                      FaultPolicy::nthHit(1));

    const auto dir = scratchDir("append-fault");
    const std::string path = (dir / "results.jsonl").string();
    {
        ResultStore store(path);
        store.append(sampleRow("lost-on-disk")); // injected failure
        store.append(sampleRow("written"));
        EXPECT_EQ(store.writeFailures(), 1u);
        // Both rows survive in memory regardless of the disk outcome.
        EXPECT_EQ(store.rowCount(), 2u);
        store.finalize();
    }
    FaultRegistry::global().resetForTest();

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u)
        << "exactly the non-faulted row reaches the file";
    EXPECT_NE(lines[0].find("\"job\":\"written\""), std::string::npos);
}

} // namespace
} // namespace zatel::service
