/**
 * @file
 * Minimal CSV writer used by benches to dump reproducible result series,
 * and the quote-aware line splitter the campaign and result-store
 * readers share.
 */

#ifndef ZATEL_UTIL_CSV_HH
#define ZATEL_UTIL_CSV_HH

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace zatel
{

/**
 * Row-oriented CSV writer with RFC-4180 style quoting.
 *
 * Rows are buffered and flushed on writeTo()/toString() so a bench can
 * build its output before deciding where it goes.
 */
class CsvWriter
{
  public:
    /** Set the header row. */
    void setHeader(const std::vector<std::string> &columns);

    /** Append a fully formed row of cells. */
    void addRow(const std::vector<std::string> &cells);

    /** Convenience: append a row of doubles (formatted with %.6g). */
    void addNumericRow(const std::vector<double> &cells);

    /** Serialize all buffered rows. */
    std::string toString() const;

    /**
     * Write to @p path.
     * @return true on success.
     */
    bool writeTo(const std::string &path) const;

    size_t rowCount() const { return rows_.size(); }

    /** Quote a single cell per RFC-4180 when needed. */
    static std::string quoteCell(const std::string &cell);

    /** Format a double compactly. */
    static std::string formatDouble(double value);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Split one CSV line into cells: commas inside double quotes stay in
 * the cell, and "" inside quotes is one quote. Cells are not trimmed.
 */
std::vector<std::string> splitCsvLine(const std::string &line);

} // namespace zatel

#endif // ZATEL_UTIL_CSV_HH
