#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/check.hpp"

namespace poco
{

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    POCO_REQUIRE(!header_.empty(), "table must have at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    POCO_REQUIRE(row.size() == header_.size(),
                 "row arity must match header");
    rows_.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << std::left << std::setw(static_cast<int>(widths[c]))
                << row[c];
            out << (c + 1 < row.size() ? "  " : "");
        }
        out << "\n";
    };
    emit_row(header_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        rule.append(widths[c], '-');
        if (c + 1 < widths.size())
            rule.append("  ");
    }
    out << rule << "\n";
    for (const auto& row : rows_)
        emit_row(row);
    return out.str();
}

std::string
fmt(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

std::string
fmtPercent(double ratio, int precision)
{
    return fmt(ratio * 100.0, precision) + "%";
}

} // namespace poco
