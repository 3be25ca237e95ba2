/**
 * @file
 * Tests for the fatal/panic error helpers: FatalError is a catchable
 * std::runtime_error carrying the message, POCO_REQUIRE and
 * POCO_CHECK throw it with their prefixes, and panic() and
 * POCO_ASSERT abort the process with a prefixed diagnostic.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace poco
{
namespace
{

TEST(Check, FatalThrowsFatalErrorWithMessage)
{
    try {
        fatal("bad knob value");
        FAIL() << "fatal() must not return";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "bad knob value");
    }
}

TEST(Check, FatalThrowsWithMessage)
{
    // POCO_CHECK, the boundary-input check, throws through fatal()
    // with the end-user prefix and no source location.
    try {
        POCO_CHECK(2 + 2 == 5, "bad configuration");
        FAIL() << "POCO_CHECK must throw";
    } catch (const FatalError& error) {
        EXPECT_STREQ(error.what(), "invalid input: bad configuration");
    }
}

TEST(Check, FatalErrorIsARuntimeError)
{
    // Callers that only know std::exception still catch it.
    EXPECT_THROW(fatal("boom"), std::runtime_error);
    EXPECT_THROW(fatal("boom"), std::exception);
}

TEST(Check, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(POCO_REQUIRE(1 + 1 == 2, "arithmetic works"));
}

TEST(Check, RequirePassesSilently)
{
    EXPECT_NO_THROW(POCO_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Check, RequireThrowsWithContext)
{
    try {
        POCO_REQUIRE(2 + 2 == 5, "arithmetic is broken");
        FAIL() << "POCO_REQUIRE must throw";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("arithmetic is broken"),
                  std::string::npos);
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("test_util_check.cpp"),
                  std::string::npos);
    }
}

TEST(Check, RequireEvaluatesConditionOnce)
{
    int calls = 0;
    POCO_REQUIRE(++calls > 0, "side effect");
    EXPECT_EQ(calls, 1);
}

TEST(Check, RequireMacroIncludesContext)
{
    // The whole diagnostic: prefix, message, condition, then location.
    try {
        const int x = 3;
        POCO_REQUIRE(x > 5, "x must exceed five");
        FAIL() << "POCO_REQUIRE must throw";
    } catch (const FatalError& error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("requirement failed: x must exceed five "
                             "[x > 5] at ",
                             0),
                  0u)
            << what;
        EXPECT_NE(what.find("test_util_check.cpp:"), std::string::npos);
    }
}

TEST(Check, AssertPassesOnTrue)
{
    POCO_ASSERT(true, "never fires");
    SUCCEED();
}

TEST(CheckDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("invariant shattered"),
                 "invariant shattered");
}

TEST(CheckDeathTest, PanicPrintsPrefix)
{
    EXPECT_DEATH(panic("invariant shattered"),
                 "panic: invariant shattered");
}

TEST(CheckDeathTest, AssertAbortsWithContext)
{
    EXPECT_DEATH(POCO_ASSERT(false, "broken invariant"),
                 "broken invariant");
}

TEST(CheckDeathTest, AssertMacroAborts)
{
    EXPECT_DEATH(POCO_ASSERT(false, "should never happen"),
                 "invariant violated: should never happen");
}

} // namespace
} // namespace poco
