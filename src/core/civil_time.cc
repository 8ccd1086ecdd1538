#include "core/civil_time.h"

#include <charconv>

namespace bikegraph {

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);          // [0,399]
  const unsigned doy = static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);  // [0,365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;  // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* year, int* month, int* day) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0,399]
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0,365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0,11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1,31]
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;                  // [1,12]
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

const char* WeekdayName(Weekday day) {
  static const char* kNames[] = {"Mon", "Tue", "Wed", "Thu",
                                 "Fri", "Sat", "Sun"};
  return kNames[static_cast<int>(day)];
}

Result<CivilTime> CivilTime::FromCalendar(int year, int month, int day,
                                          int hour, int minute, int second) {
  if (month < 1 || month > 12) {
    return Status::InvalidArgument("month out of range: " +
                                   std::to_string(month));
  }
  if (day < 1 || day > DaysInMonth(year, month)) {
    return Status::InvalidArgument("day out of range: " + std::to_string(day));
  }
  if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
      second > 59) {
    return Status::InvalidArgument("time-of-day out of range");
  }
  int64_t days = DaysFromCivil(year, month, day);
  return CivilTime(days * 86400 + hour * 3600 + minute * 60 + second);
}

namespace {

// Reads exactly `width` ASCII digits starting at text[pos]. At most four
// digits, so the value cannot overflow.
bool ReadDigits(std::string_view text, size_t pos, size_t width, int* out) {
  int value = 0;
  for (size_t i = pos; i < pos + width; ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

// printf's "%0*d": zero-padded to `width` characters, the sign included.
void AppendZeroPadded(std::string* out, int64_t value, int width) {
  char buf[24];
  char* const end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  const char* digits = buf;
  if (value < 0) {
    out->push_back('-');
    ++digits;
    --width;
  }
  for (int pad = width - static_cast<int>(end - digits); pad > 0; --pad) {
    out->push_back('0');
  }
  out->append(digits, static_cast<size_t>(end - digits));
}

// Floor division helpers so pre-epoch timestamps behave.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t FloorMod(int64_t a, int64_t b) { return a - FloorDiv(a, b) * b; }

}  // namespace

Result<CivilTime> CivilTime::Parse(std::string_view text) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
  const bool date = (text.size() == 10 || text.size() == 19) &&
                    ReadDigits(text, 0, 4, &y) && text[4] == '-' &&
                    ReadDigits(text, 5, 2, &mo) && text[7] == '-' &&
                    ReadDigits(text, 8, 2, &d);
  const bool time = date && (text.size() == 10 ||
                             ((text[10] == ' ' || text[10] == 'T') &&
                              ReadDigits(text, 11, 2, &h) && text[13] == ':' &&
                              ReadDigits(text, 14, 2, &mi) && text[16] == ':' &&
                              ReadDigits(text, 17, 2, &s)));
  if (!time) {
    return Status::DataLoss("unparseable timestamp: '" + std::string(text) +
                            "'");
  }
  return FromCalendar(y, mo, d, h, mi, s);
}

int CivilTime::year() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return y;
}

int CivilTime::month() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return m;
}

int CivilTime::day() const {
  int y, m, d;
  CivilFromDays(FloorDiv(seconds_, 86400), &y, &m, &d);
  return d;
}

int CivilTime::hour() const {
  return static_cast<int>(FloorMod(seconds_, 86400) / 3600);
}

int CivilTime::minute() const {
  return static_cast<int>(FloorMod(seconds_, 3600) / 60);
}

int CivilTime::second() const { return static_cast<int>(FloorMod(seconds_, 60)); }

Weekday CivilTime::weekday() const {
  // 1970-01-01 was a Thursday (ISO index 3).
  int64_t days = FloorDiv(seconds_, 86400);
  return static_cast<Weekday>(FloorMod(days + 3, 7));
}

void CivilTime::AppendTo(std::string* out) const {
  const int64_t days = FloorDiv(seconds_, 86400);
  int y, mo, d;
  CivilFromDays(days, &y, &mo, &d);
  const int64_t secs = seconds_ - days * 86400;
  AppendZeroPadded(out, y, 4);
  out->push_back('-');
  AppendZeroPadded(out, mo, 2);
  out->push_back('-');
  AppendZeroPadded(out, d, 2);
  out->push_back(' ');
  AppendZeroPadded(out, secs / 3600, 2);
  out->push_back(':');
  AppendZeroPadded(out, secs % 3600 / 60, 2);
  out->push_back(':');
  AppendZeroPadded(out, secs % 60, 2);
}

std::string CivilTime::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace bikegraph
