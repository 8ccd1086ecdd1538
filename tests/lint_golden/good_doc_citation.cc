// Golden GOOD snippet for the doc-citation check. Every citation below
// resolves in the scratch tree the selftest builds:
//  - docs/GUIDE.md, from the repo root;
//  - GUIDE.md, under docs/;
//  - NOTES.md, next to this file.
/* A block comment may cite README.md at the root,
   and may span lines before it cites docs/GUIDE.md again. */

// A markdown name inside a string literal is data, not a citation.
const char* kReportName = "weekly_report.md";
