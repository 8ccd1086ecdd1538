#include "data/csv.h"

namespace bikegraph::data {

bool CsvRowReader::NextRow(std::vector<std::string_view>* fields) {
  const size_t n = text_.size();
  while (pos_ < n) {
    fields->clear();
    while (true) {
      const size_t index = fields->size();
      fields->push_back(ReadField(index));
      if (!status_.ok()) return false;
      const bool comma = pos_ < n && text_[pos_] == ',';
      if (pos_ < n) ++pos_;  // past the comma or the newline
      if (!comma) break;
    }
    // Skip rows that are entirely empty (e.g. a blank line).
    if (fields->size() != 1 || !fields->front().empty()) return true;
  }
  return false;
}

std::string_view CsvRowReader::ReadField(size_t index) {
  const size_t n = text_.size();
  const size_t start = pos_;
  if (start < n && text_[start] == '"') {
    // A view of the quoted text when it holds no doubled quote and nothing
    // but CRs stands between the closing quote and the terminator.
    const size_t close = text_.find('"', start + 1);
    if (close != std::string_view::npos &&
        (close + 1 == n || text_[close + 1] != '"')) {
      size_t end = close + 1;
      while (end < n && text_[end] == '\r') ++end;
      if (end == n || text_[end] == ',' || text_[end] == '\n') {
        pos_ = end;
        return text_.substr(start + 1, close - start - 1);
      }
    }
  } else {
    size_t end = start;
    while (end < n && text_[end] != ',' && text_[end] != '\n' &&
           text_[end] != '\r') {
      ++end;
    }
    if (end == n || text_[end] != '\r') {
      pos_ = end;
      return text_.substr(start, end - start);
    }
  }
  return CopyField(index);
}

std::string_view CsvRowReader::CopyField(size_t index) {
  while (scratch_.size() <= index) scratch_.emplace_back();
  std::string& field = scratch_[index];
  field.clear();
  const size_t n = text_.size();
  bool in_quotes = false;
  bool started = false;  // a byte or an opening quote has been read
  size_t i = pos_;
  for (; i < n; ++i) {
    const char c = text_[i];
    if (in_quotes) {
      if (c != '"') {
        field.push_back(c);
      } else if (i + 1 < n && text_[i + 1] == '"') {
        field.push_back('"');  // a doubled quote stands for one
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == ',' || c == '\n') {
      break;
    } else if (c == '"' && !started) {
      in_quotes = true;
      started = true;
    } else if (c != '\r') {
      field.push_back(c);  // a quote mid-field is kept verbatim
      started = true;
    }
  }
  pos_ = i;
  if (in_quotes) {
    status_ = Status::DataLoss("unterminated quoted field at end of input");
  }
  return field;
}

void AppendCsvField(std::string* out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace bikegraph::data
