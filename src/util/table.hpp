/**
 * @file
 * Text table rendering for benches and examples.
 *
 * The bench harness prints the same rows/series the paper's tables and
 * figures report; TextTable renders them as aligned console output.
 */

#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace poco
{

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TextTable t({"app", "power (W)"});
 *   t.addRow({"xapian", "154.0"});
 *   std::cout << t.render();
 * @endcode
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    std::size_t rowCount() const { return rows_.size(); }

    /** Render with ASCII separators, right-padding each column. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (default 2 digits). */
std::string fmt(double value, int precision = 2);

/** Format a strongly-typed quantity's magnitude (unit implied). */
template <typename Tag>
std::string
fmt(Quantity<Tag> value, int precision = 2)
{
    return fmt(value.value(), precision);
}

/** Format a ratio as a percentage string, e.g. 0.18 -> "18.0%". */
std::string fmtPercent(double ratio, int precision = 1);

} // namespace poco
