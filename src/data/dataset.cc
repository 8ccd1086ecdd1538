#include "data/dataset.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "core/string_util.h"
#include "data/csv.h"

#include "core/checked_cast.h"

namespace bikegraph::data {

Dataset::Dataset(std::vector<LocationRecord> locations,
                 std::vector<RentalRecord> rentals)
    : locations_(std::move(locations)), rentals_(std::move(rentals)) {
  RebuildIndex();
}

void Dataset::RebuildIndex() {
  location_index_.clear();
  location_index_.reserve(locations_.size());
  for (size_t i = 0; i < locations_.size(); ++i) {
    location_index_.emplace(locations_[i].id, i);
  }
}

const LocationRecord* Dataset::FindLocation(int64_t id) const {
  auto it = location_index_.find(id);
  if (it == location_index_.end()) return nullptr;
  return &locations_[it->second];
}

DatasetSummary Dataset::Summarize() const {
  DatasetSummary s;
  s.rental_count = rentals_.size();
  s.location_count = locations_.size();
  for (const auto& loc : locations_) {
    if (loc.is_station) ++s.station_count;
  }
  return s;
}

Status Dataset::Validate() const {
  std::set<int64_t> seen;
  for (const auto& loc : locations_) {
    if (loc.id == kInvalidId) {
      return Status::DataLoss("location with invalid id");
    }
    if (!seen.insert(loc.id).second) {
      return Status::DataLoss("duplicate location id " +
                              std::to_string(loc.id));
    }
  }
  for (const auto& r : rentals_) {
    if (!r.has_location_ids()) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " missing a location id");
    }
    if (!HasLocation(r.rental_location_id)) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " references unknown rental location " +
                              std::to_string(r.rental_location_id));
    }
    if (!HasLocation(r.return_location_id)) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " references unknown return location " +
                              std::to_string(r.return_location_id));
    }
    if (r.end_time < r.start_time) {
      return Status::DataLoss("rental " + std::to_string(r.id) +
                              " ends before it starts");
    }
  }
  return Status::OK();
}

namespace {

void AppendInt(std::string* out, int64_t value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// An empty field for a missing coordinate, else printf's "%.6f" text.
void AppendCoordinate(std::string* out, double value) {
  if (std::isnan(value)) return;
  // Wide enough for the fixed-point text of any finite double.
  char buf[std::numeric_limits<double>::max_exponent10 + 32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, 6)
                       .ptr);
}

// An empty field for a missing id.
void AppendId(std::string* out, int64_t id) {
  if (id != kInvalidId) AppendInt(out, id);
}

}  // namespace

std::string Dataset::LocationsCsvString() const {
  std::string out = "id,lat,lon,is_station,name\n";
  size_t names = 0;
  for (const auto& loc : locations_) names += loc.name.size();
  out.reserve(out.size() + 40 * locations_.size() + names);
  for (const auto& loc : locations_) {
    AppendInt(&out, loc.id);
    out.push_back(',');
    AppendCoordinate(&out, loc.position.lat);
    out.push_back(',');
    AppendCoordinate(&out, loc.position.lon);
    out.append(loc.is_station ? ",1," : ",0,");
    AppendCsvField(&out, loc.name);
    out.push_back('\n');
  }
  return out;
}

std::string Dataset::RentalsCsvString() const {
  std::string out =
      "id,bike_id,start_time,end_time,rental_location_id,"
      "return_location_id\n";
  out.reserve(out.size() + 64 * rentals_.size());
  for (const auto& r : rentals_) {
    AppendInt(&out, r.id);
    out.push_back(',');
    AppendInt(&out, r.bike_id);
    out.push_back(',');
    r.start_time.AppendTo(&out);
    out.push_back(',');
    r.end_time.AppendTo(&out);
    out.push_back(',');
    AppendId(&out, r.rental_location_id);
    out.push_back(',');
    AppendId(&out, r.return_location_id);
    out.push_back('\n');
  }
  return out;
}

Status Dataset::WriteCsv(const std::string& locations_path,
                         const std::string& rentals_path) const {
  auto write = [](const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::IOError("cannot open for write: " + path);
    out << content;
    if (!out) return Status::IOError("write failed: " + path);
    return Status::OK();
  };
  BIKEGRAPH_RETURN_NOT_OK(write(locations_path, LocationsCsvString()));
  return write(rentals_path, RentalsCsvString());
}

namespace {

/// How reading one table went, in two parts, because a structural fault (an
/// open quote, a row of the wrong width, an empty document) in either table
/// is reported before any content fault (a missing column, a malformed
/// value). That order fixes which error a caller sees when a document has
/// both kinds, whichever table comes first.
struct TableStatus {
  Status structure;
  Status content;
};

/// Reads one CSV table in a single pass. The header row fixes the table's
/// width, and each of `names` must be one of its columns (the first of that
/// name); `convert(row, cols)` then turns a data row into a record, with
/// cols[i] the position of names[i]. After the first content fault, and
/// throughout when `convert_rows` is false, rows are only tokenised and
/// width-checked.
template <size_t N, typename Convert>
TableStatus ReadTable(std::string_view text, const char* table,
                      const std::array<std::string_view, N>& names,
                      bool convert_rows, Convert convert) {
  TableStatus st;
  CsvRowReader reader(text);
  std::vector<std::string_view> fields;
  if (!reader.NextRow(&fields)) {
    st.structure = reader.status().ok()
                       ? Status::DataLoss("empty CSV document")
                       : reader.status();
    return st;
  }
  const size_t width = fields.size();
  std::array<size_t, N> cols{};
  for (size_t c = 0; convert_rows && c < N; ++c) {
    const auto it = std::find(fields.begin(), fields.end(), names[c]);
    if (it == fields.end()) {
      st.content = Status::DataLoss(std::string(table) +
                                    " CSV missing a required column");
      break;
    }
    cols[c] = static_cast<size_t>(it - fields.begin());
  }
  for (size_t row = 1; reader.NextRow(&fields); ++row) {
    if (fields.size() != width) {
      st.structure = Status::DataLoss(
          "row " + std::to_string(row) + " has " +
          std::to_string(fields.size()) + " fields, header has " +
          std::to_string(width));
      return st;
    }
    if (convert_rows && st.content.ok()) st.content = convert(fields, cols);
  }
  st.structure = reader.status();
  return st;
}

constexpr std::array<std::string_view, 5> kLocationColumns = {
    "id", "lat", "lon", "is_station", "name"};
constexpr std::array<std::string_view, 6> kRentalColumns = {
    "id",       "bike_id",           "start_time",
    "end_time", "rental_location_id", "return_location_id"};

/// An empty field is a missing id and leaves `*id` at kInvalidId.
Status ParseOptionalId(std::string_view field, int64_t* id) {
  if (field.empty()) return Status::OK();
  BIKEGRAPH_ASSIGN_OR_RETURN(*id, ParseInt(field));
  return Status::OK();
}

}  // namespace

Result<Dataset> Dataset::FromCsvStrings(std::string_view locations_csv,
                                        std::string_view rentals_csv) {
  using Row = std::vector<std::string_view>;
  std::vector<LocationRecord> locations;
  const TableStatus loc_status = ReadTable(
      locations_csv, "locations", kLocationColumns, true,
      [&](const Row& f, const std::array<size_t, 5>& cols) -> Status {
        const auto [id, lat, lon, station, name] = cols;
        LocationRecord& loc = locations.emplace_back();
        BIKEGRAPH_ASSIGN_OR_RETURN(loc.id, ParseInt(f[id]));
        if (!f[lat].empty() && !f[lon].empty()) {
          BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lat, ParseDouble(f[lat]));
          BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lon, ParseDouble(f[lon]));
        }
        loc.is_station = f[station] == "1";
        loc.name = f[name];
        return Status::OK();
      });
  BIKEGRAPH_RETURN_NOT_OK(loc_status.structure);

  std::vector<RentalRecord> rentals;
  const TableStatus rent_status = ReadTable(
      rentals_csv, "rentals", kRentalColumns, loc_status.content.ok(),
      [&](const Row& f, const std::array<size_t, 6>& cols) -> Status {
        const auto [id, bike, start, end, rent, ret] = cols;
        RentalRecord& r = rentals.emplace_back();
        BIKEGRAPH_ASSIGN_OR_RETURN(r.id, ParseInt(f[id]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.bike_id, ParseInt(f[bike]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.start_time, CivilTime::Parse(f[start]));
        BIKEGRAPH_ASSIGN_OR_RETURN(r.end_time, CivilTime::Parse(f[end]));
        BIKEGRAPH_RETURN_NOT_OK(ParseOptionalId(f[rent], &r.rental_location_id));
        return ParseOptionalId(f[ret], &r.return_location_id);
      });
  // Structural faults first, in either table; then content faults.
  BIKEGRAPH_RETURN_NOT_OK(rent_status.structure);
  BIKEGRAPH_RETURN_NOT_OK(loc_status.content);
  BIKEGRAPH_RETURN_NOT_OK(rent_status.content);
  return Dataset(std::move(locations), std::move(rentals));
}

Result<Dataset> Dataset::ReadCsv(const std::string& locations_path,
                                 const std::string& rentals_path) {
  auto read = [](const std::string& path) -> Result<std::string> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
  };
  BIKEGRAPH_ASSIGN_OR_RETURN(const std::string locations, read(locations_path));
  BIKEGRAPH_ASSIGN_OR_RETURN(const std::string rentals, read(rentals_path));
  return FromCsvStrings(locations, rentals);
}

}  // namespace bikegraph::data
