/**
 * @file
 * Tests for text-table rendering and the units helpers.
 */

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace poco
{
namespace
{

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"app", "power"});
    t.addRow({"xapian", "154"});
    t.addRow({"x", "9"});
    const std::string out = t.render();
    // Header, rule, two rows.
    EXPECT_NE(out.find("app     power"), std::string::npos);
    EXPECT_NE(out.find("xapian  154"), std::string::npos);
    EXPECT_NE(out.find("x       9"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, RejectsAridityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(TextTable, RejectsEmptyHeader)
{
    EXPECT_THROW(TextTable({}), FatalError);
}

TEST(Fmt, FixedPrecision)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.0, 0), "3");
    EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Fmt, PercentFormatting)
{
    EXPECT_EQ(fmtPercent(0.18), "18.0%");
    EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toSeconds(500 * kMillisecond), 0.5);
    EXPECT_EQ(fromSeconds(2.5), 2500 * kMillisecond);
    EXPECT_EQ(kMinute, 60 * kSecond);
    EXPECT_EQ(kHour, 3600 * kSecond);
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(999), "999us");
    EXPECT_EQ(formatTime(1500), "1.500ms");
    EXPECT_EQ(formatTime(2 * kSecond + 500 * kMillisecond), "2.500s");
}

} // namespace
} // namespace poco
