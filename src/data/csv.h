#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace bikegraph::data {

/// \brief One-pass RFC-4180-style CSV reader over an in-memory document:
/// quoted fields with embedded commas, newlines and doubled quotes; a CR
/// outside quotes is dropped, so CRLF files read like LF ones; rows that are
/// entirely empty are skipped.
///
/// The Moby data arrives as two SQL-exported tables (Rental, Location);
/// `Dataset` reads them, and any user-supplied dataset in the same schema,
/// through this reader. Fields come back as views into the document. Only
/// a field the reader has to rewrite (a doubled quote, a CR, text after a
/// closing quote) is copied, into storage the reader owns; either kind of
/// view stays valid until the next `NextRow` call.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::string_view text) : text_(text) {}

  /// Reads the next non-empty row into `fields`. Returns false at the end
  /// of the document, and also on a quoted field left open at the end of
  /// the input; `status()` is then kDataLoss.
  bool NextRow(std::vector<std::string_view>* fields);

  const Status& status() const { return status_; }

 private:
  /// Reads the field at `pos_` and leaves `pos_` on its terminator (a
  /// comma, a newline or the end of the input).
  std::string_view ReadField(size_t index);
  /// The general case of ReadField: the quoting rules applied byte by byte,
  /// copying the field into `scratch_[index]`.
  std::string_view CopyField(size_t index);

  std::string_view text_;
  size_t pos_ = 0;
  Status status_;
  /// One buffer per field position; a deque so that growing it leaves the
  /// earlier buffers, and the views into them, in place.
  std::deque<std::string> scratch_;
};

/// \brief Appends `field` to `out` in CSV form: verbatim, or quoted (with
/// doubled inner quotes) when it holds a comma, a quote, a CR or a newline.
void AppendCsvField(std::string* out, std::string_view field);

}  // namespace bikegraph::data
