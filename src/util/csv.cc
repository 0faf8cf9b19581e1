#include "util/csv.hh"

#include <cstdio>

namespace zatel
{

void
CsvWriter::setHeader(const std::vector<std::string> &columns)
{
    header_ = columns;
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    rows_.push_back(cells);
}

void
CsvWriter::addNumericRow(const std::vector<double> &cells)
{
    std::vector<std::string> row;
    row.reserve(cells.size());
    for (double v : cells)
        row.push_back(formatDouble(v));
    rows_.push_back(std::move(row));
}

std::string
CsvWriter::quoteCell(const std::string &cell)
{
    bool needs_quotes = cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
CsvWriter::formatDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

std::string
CsvWriter::toString() const
{
    std::ostringstream oss;
    auto emit_row = [&oss](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << ',';
            oss << quoteCell(row[i]);
        }
        oss << '\n';
    };
    if (!header_.empty())
        emit_row(header_);
    for (const auto &row : rows_)
        emit_row(row);
    return oss.str();
}

bool
CsvWriter::writeTo(const std::string &path) const
{
    // Failure is the bool return; callers on fallible paths (the
    // artifact cache) already run under their own fault sites
    // (artifact.cache.write), which inject above this helper.
    // zatel-lint: allow(fault-site-coverage): bool-returning helper
    std::ofstream out(path);
    if (!out)
        return false;
    out << toString();
    return static_cast<bool>(out);
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                cell.push_back('"');
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                cell.push_back(c);
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(std::move(cell));
            cell.clear();
        } else {
            cell.push_back(c);
        }
    }
    cells.push_back(std::move(cell));
    return cells;
}

} // namespace zatel
