// Golden-bad: the scanf family under src/. "%d" stores a field that does
// not fit an int with undefined behaviour, so a 12-digit month in a CSV
// timestamp was enough to reach it. The scanf-family check must flag all
// three calls (and accept this same file outside src/).

#include <cstdarg>
#include <cstdio>

namespace bikegraph {

int LooseDate(const char* text, int* y, int* m, int* d) {
  return std::sscanf(text, "%d-%d-%d", y, m, d);
}

int LooseCount(std::FILE* in, int* n) { return std::fscanf(in, "%d", n); }

int LooseForward(const char* text, const char* format, va_list args) {
  return vsscanf(text, format, args);
}

}  // namespace bikegraph
