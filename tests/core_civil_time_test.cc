#include "core/civil_time.h"

#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

TEST(CivilTimeTest, EpochIsThursday) {
  CivilTime t(0);
  EXPECT_EQ(t.year(), 1970);
  EXPECT_EQ(t.month(), 1);
  EXPECT_EQ(t.day(), 1);
  EXPECT_EQ(t.weekday(), Weekday::kThursday);
}

TEST(CivilTimeTest, FromCalendarRoundTrips) {
  auto t = CivilTime::FromCalendar(2020, 3, 15, 13, 45, 59);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->year(), 2020);
  EXPECT_EQ(t->month(), 3);
  EXPECT_EQ(t->day(), 15);
  EXPECT_EQ(t->hour(), 13);
  EXPECT_EQ(t->minute(), 45);
  EXPECT_EQ(t->second(), 59);
}

TEST(CivilTimeTest, StudyWindowWeekdays) {
  // 3 Jan 2020 (study start) was a Friday; 19 Sep 2021 (end) a Sunday.
  auto start = CivilTime::FromCalendar(2020, 1, 3);
  auto end = CivilTime::FromCalendar(2021, 9, 19);
  ASSERT_TRUE(start.ok());
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(start->weekday(), Weekday::kFriday);
  EXPECT_EQ(end->weekday(), Weekday::kSunday);
}

TEST(CivilTimeTest, LeapYearRules) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2021));
}

TEST(CivilTimeTest, DaysInMonthRespectsLeapYears) {
  EXPECT_EQ(DaysInMonth(2020, 2), 29);
  EXPECT_EQ(DaysInMonth(2021, 2), 28);
  EXPECT_EQ(DaysInMonth(2021, 9), 30);
  EXPECT_EQ(DaysInMonth(2021, 12), 31);
  EXPECT_EQ(DaysInMonth(2021, 13), 0);
}

TEST(CivilTimeTest, RejectsInvalidCalendarFields) {
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 2, 29).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 0, 1).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 13, 1).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 31).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 1, 24, 0, 0).ok());
  EXPECT_FALSE(CivilTime::FromCalendar(2021, 6, 1, 0, 60, 0).ok());
}

TEST(CivilTimeTest, ParseFullTimestamp) {
  auto t = CivilTime::Parse("2020-06-15 08:30:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->hour(), 8);
  EXPECT_EQ(t->minute(), 30);
}

TEST(CivilTimeTest, ParseIsoTSeparator) {
  auto t = CivilTime::Parse("2020-06-15T08:30:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->day(), 15);
}

TEST(CivilTimeTest, ParseBareDate) {
  auto t = CivilTime::Parse("2021-09-19");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->hour(), 0);
}

TEST(CivilTimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(CivilTime::Parse("not a date").ok());
  EXPECT_FALSE(CivilTime::Parse("").ok());
  EXPECT_FALSE(CivilTime::Parse("2020-13-40 99:99:99").ok());
}

TEST(CivilTimeTest, ToStringRoundTrips) {
  auto t = CivilTime::FromCalendar(2021, 12, 31, 23, 59, 58);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ToString(), "2021-12-31 23:59:58");
  auto back = CivilTime::Parse(t->ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *t);
}

TEST(CivilTimeTest, AddDaysCrossesMonthAndYear) {
  auto t = CivilTime::FromCalendar(2020, 12, 31, 12, 0, 0);
  ASSERT_TRUE(t.ok());
  CivilTime next = t->AddDays(1);
  EXPECT_EQ(next.year(), 2021);
  EXPECT_EQ(next.month(), 1);
  EXPECT_EQ(next.day(), 1);
  EXPECT_EQ(next.hour(), 12);
}

TEST(CivilTimeTest, WeekdayCyclesOverWeek) {
  auto base = CivilTime::FromCalendar(2020, 1, 6);  // a Monday
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(static_cast<int>(base->AddDays(i).weekday()), i % 7);
  }
}

TEST(CivilTimeTest, ComparisonOperators) {
  CivilTime a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_LE(a, b);
  EXPECT_GT(b, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, CivilTime(100));
}

TEST(CivilTimeTest, IsWeekendHelper) {
  EXPECT_TRUE(IsWeekend(Weekday::kSaturday));
  EXPECT_TRUE(IsWeekend(Weekday::kSunday));
  EXPECT_FALSE(IsWeekend(Weekday::kMonday));
  EXPECT_FALSE(IsWeekend(Weekday::kFriday));
}

TEST(CivilTimeTest, WeekdayNames) {
  EXPECT_STREQ(WeekdayName(Weekday::kMonday), "Mon");
  EXPECT_STREQ(WeekdayName(Weekday::kSunday), "Sun");
}

TEST(CivilTimeTest, ParseRejectsTwelveDigitMonth) {
  // sscanf's %d met this with undefined behaviour; the fixed layout rejects
  // it before any field is converted.
  auto t = CivilTime::Parse("2021-000000000009-19 08:00:00");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kDataLoss);
}

TEST(CivilTimeTest, ParseRejectsTrailingBytes) {
  auto t = CivilTime::Parse("2021-09-19 08:00:00x");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kDataLoss);
}

TEST(CivilTimeTest, ParseRejectsUnpaddedMonth) {
  auto t = CivilTime::Parse("2021-9-19");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kDataLoss);
}

TEST(CivilTimeTest, ParseRejectsFormsTheScanfParserAccepted) {
  // Each of these parsed under "%d-%d-%d%c%d:%d:%d" and is now an error.
  const char* const kLoose[] = {
      "2021-9-19 08:00:00",     // unpadded month
      "2021-09-9 08:00:00",     // unpadded day
      "2021-09-19 8:00:00",     // unpadded hour
      "2021-09-19T8:0:0",       // unpadded time fields
      "+2021-09-19",            // a sign on the year
      "-2021-09-19",            // a negative year
      "2021-+9-19",             // a sign on the month
      "12021-09-19",            // a five-digit year
      " 2021-09-19",            // a leading space
      "2021- 9-19",             // a space inside the date
      "2021-09-19  08:00:00",   // two separators
      "2021-09-19 08:00:00x",   // trailing garbage
      "2021-09-19 08:00:00 ",   // a trailing space
  };
  for (const char* text : kLoose) {
    auto t = CivilTime::Parse(text);
    ASSERT_FALSE(t.ok()) << text;
    EXPECT_EQ(t.status().code(), StatusCode::kDataLoss) << text;
  }
}

TEST(CivilTimeTest, ParseRangeErrorsAreInvalidArgument) {
  for (const char* text : {"2021-13-01", "2021-02-29", "2021-09-19 24:00:00",
                           "2021-09-19 23:60:00", "2021-09-19 23:59:60"}) {
    auto t = CivilTime::Parse(text);
    ASSERT_FALSE(t.ok()) << text;
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(CivilTimeTest, ParseReadsAViewWithoutItsTerminator) {
  const std::string buffer = "2020-06-15 08:30:00,2021-01-01";
  auto t = CivilTime::Parse(std::string_view(buffer).substr(0, 19));
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->ToString(), "2020-06-15 08:30:00");
  auto d = CivilTime::Parse(std::string_view(buffer).substr(20));
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->ToString(), "2021-01-01 00:00:00");
}

TEST(CivilTimeTest, ToStringMatchesPrintfForAnyYear) {
  // "%04d-%02d-%02d %02d:%02d:%02d", the format ToString used to print with.
  for (int64_t days : {int64_t{-719468 - 400}, int64_t{-719468}, int64_t{-1},
                       int64_t{0}, int64_t{18262}, int64_t{2932896},
                       int64_t{2932897 + 366}}) {
    const CivilTime t(days * 86400 + 3 * 3600 + 4 * 60 + 5);
    char want[64];
    std::snprintf(want, sizeof(want), "%04d-%02d-%02d %02d:%02d:%02d",
                  t.year(), t.month(), t.day(), t.hour(), t.minute(),
                  t.second());
    EXPECT_EQ(t.ToString(), want);
    std::string appended = "x";
    t.AppendTo(&appended);
    EXPECT_EQ(appended, std::string("x") + want);
  }
}

// Property sweep: DaysFromCivil and CivilFromDays are inverse over a wide
// range of dates.
class DaysRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DaysRoundTripTest, RoundTrips) {
  int64_t days = GetParam();
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  EXPECT_EQ(DaysFromCivil(y, m, d), days);
  EXPECT_GE(m, 1);
  EXPECT_LE(m, 12);
  EXPECT_GE(d, 1);
  EXPECT_LE(d, DaysInMonth(y, m));
}

INSTANTIATE_TEST_SUITE_P(WideRange, DaysRoundTripTest,
                         ::testing::Values(-719468, -1, 0, 1, 18262, 18993,
                                           20000, 365 * 100, 365 * 400 + 97,
                                           -365 * 100));

}  // namespace
}  // namespace bikegraph
