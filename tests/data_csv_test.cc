// The CSV layer: the one-pass reader behind Dataset::FromCsvStrings, checked
// against an oracle, plus the field quoting of the export.
//
// The oracle is the reader Dataset used before it parsed in one pass: a
// tokeniser that materialises every row as a vector of strings (CsvReader /
// CsvTable), then a second pass that converts the rows into records. It
// lives here, verbatim apart from its namespace, as the executable
// definition of the CSV grammar. It converts fields with the same
// ParseInt / ParseDouble / CivilTime::Parse as the library, so the two
// readers must agree on every input: the same Dataset, or the same failing
// StatusCode. (The timestamp and number forms those parsers stopped
// accepting are pinned in core_civil_time_test and core_string_util_test.)

#include "data/csv.h"

#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checked_cast.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "data/dataset.h"
#include "data/synthetic.h"

#include <gtest/gtest.h>

namespace bikegraph::data {
namespace oracle {

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  int ColumnIndex(const std::string& name) const {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

Result<std::vector<std::vector<std::string>>> ParseRows(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  const size_t n = text.size();
  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    if (!(row.size() == 1 && row[0].empty())) {
      rows.push_back(std::move(row));
    }
    row.clear();
  };
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        if (!field_started && field.empty()) {
          in_quotes = true;
          field_started = true;
        } else {
          field.push_back(c);
        }
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        ++i;
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field.push_back(c);
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::DataLoss("unterminated quoted field at end of input");
  }
  if (field_started || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

struct CsvReader {
  static Result<CsvTable> ParseString(const std::string& text) {
    BIKEGRAPH_ASSIGN_OR_RETURN(auto rows, ParseRows(text));
    if (rows.empty()) return Status::DataLoss("empty CSV document");
    CsvTable table;
    table.header = std::move(rows.front());
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != table.header.size()) {
        return Status::DataLoss("row " + std::to_string(r) + " has " +
                                std::to_string(rows[r].size()) +
                                " fields, header has " +
                                std::to_string(table.header.size()));
      }
      table.rows.push_back(std::move(rows[r]));
    }
    return table;
  }

  static Result<CsvTable> ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return ParseString(buffer.str());
  }
};

Result<std::vector<LocationRecord>> ParseLocations(const CsvTable& table) {
  const int id_col = table.ColumnIndex("id");
  const int lat_col = table.ColumnIndex("lat");
  const int lon_col = table.ColumnIndex("lon");
  const int station_col = table.ColumnIndex("is_station");
  const int name_col = table.ColumnIndex("name");
  if (id_col < 0 || lat_col < 0 || lon_col < 0 || station_col < 0 ||
      name_col < 0) {
    return Status::DataLoss("locations CSV missing a required column");
  }
  std::vector<LocationRecord> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    LocationRecord loc;
    BIKEGRAPH_ASSIGN_OR_RETURN(loc.id, ParseInt(row[AsIndex(id_col)]));
    if (!row[AsIndex(lat_col)].empty() && !row[AsIndex(lon_col)].empty()) {
      BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lat,
                                 ParseDouble(row[AsIndex(lat_col)]));
      BIKEGRAPH_ASSIGN_OR_RETURN(loc.position.lon,
                                 ParseDouble(row[AsIndex(lon_col)]));
    }
    loc.is_station = row[AsIndex(station_col)] == "1";
    loc.name = row[AsIndex(name_col)];
    out.push_back(std::move(loc));
  }
  return out;
}

Result<std::vector<RentalRecord>> ParseRentals(const CsvTable& table) {
  const int id_col = table.ColumnIndex("id");
  const int bike_col = table.ColumnIndex("bike_id");
  const int start_col = table.ColumnIndex("start_time");
  const int end_col = table.ColumnIndex("end_time");
  const int rent_col = table.ColumnIndex("rental_location_id");
  const int ret_col = table.ColumnIndex("return_location_id");
  if (id_col < 0 || bike_col < 0 || start_col < 0 || end_col < 0 ||
      rent_col < 0 || ret_col < 0) {
    return Status::DataLoss("rentals CSV missing a required column");
  }
  std::vector<RentalRecord> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    RentalRecord r;
    BIKEGRAPH_ASSIGN_OR_RETURN(r.id, ParseInt(row[AsIndex(id_col)]));
    BIKEGRAPH_ASSIGN_OR_RETURN(r.bike_id, ParseInt(row[AsIndex(bike_col)]));
    BIKEGRAPH_ASSIGN_OR_RETURN(r.start_time,
                               CivilTime::Parse(row[AsIndex(start_col)]));
    BIKEGRAPH_ASSIGN_OR_RETURN(r.end_time,
                               CivilTime::Parse(row[AsIndex(end_col)]));
    if (!row[AsIndex(rent_col)].empty()) {
      BIKEGRAPH_ASSIGN_OR_RETURN(r.rental_location_id,
                                 ParseInt(row[AsIndex(rent_col)]));
    }
    if (!row[AsIndex(ret_col)].empty()) {
      BIKEGRAPH_ASSIGN_OR_RETURN(r.return_location_id,
                                 ParseInt(row[AsIndex(ret_col)]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

Result<Dataset> FromCsvStrings(const std::string& locations_csv,
                               const std::string& rentals_csv) {
  BIKEGRAPH_ASSIGN_OR_RETURN(auto loc_table,
                             CsvReader::ParseString(locations_csv));
  BIKEGRAPH_ASSIGN_OR_RETURN(auto rent_table,
                             CsvReader::ParseString(rentals_csv));
  BIKEGRAPH_ASSIGN_OR_RETURN(auto locations, ParseLocations(loc_table));
  BIKEGRAPH_ASSIGN_OR_RETURN(auto rentals, ParseRentals(rent_table));
  return Dataset(std::move(locations), std::move(rentals));
}

}  // namespace oracle

namespace {

// ---------------------------------------------------------------------------
// The grammar, on the oracle.
// ---------------------------------------------------------------------------

TEST(CsvReaderTest, BasicParse) {
  auto table = oracle::CsvReader::ParseString("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "6");
}

TEST(CsvReaderTest, QuotedFieldsWithCommas) {
  auto table =
      oracle::CsvReader::ParseString("name,pos\n\"Dun Laoghaire, Pier\",x\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "Dun Laoghaire, Pier");
}

TEST(CsvReaderTest, EscapedQuotes) {
  auto table = oracle::CsvReader::ParseString("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "say \"hi\"");
}

TEST(CsvReaderTest, QuotedNewlines) {
  auto table = oracle::CsvReader::ParseString("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][0], "line1\nline2");
}

TEST(CsvReaderTest, CrLfTolerated) {
  auto table = oracle::CsvReader::ParseString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvReaderTest, MissingTrailingNewline) {
  auto table = oracle::CsvReader::ParseString("a,b\n1,2");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvReaderTest, EmptyFieldsPreserved) {
  auto table = oracle::CsvReader::ParseString("a,b,c\n,,\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvReaderTest, RowWidthMismatchIsError) {
  auto table = oracle::CsvReader::ParseString("a,b\n1,2,3\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kDataLoss);
}

TEST(CsvReaderTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(oracle::CsvReader::ParseString("a\n\"oops\n").ok());
}

TEST(CsvReaderTest, EmptyDocumentIsError) {
  EXPECT_FALSE(oracle::CsvReader::ParseString("").ok());
}

TEST(CsvReaderTest, MissingFileIsIOError) {
  auto r = oracle::CsvReader::ReadFile("/no/such/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CsvTableTest, ColumnIndexLookup) {
  auto table = oracle::CsvReader::ParseString("id,lat,lon\n1,2,3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ColumnIndex("lat"), 1);
  EXPECT_EQ(table->ColumnIndex("missing"), -1);
}

// ---------------------------------------------------------------------------
// The same cases through Dataset::FromCsvStrings.
// ---------------------------------------------------------------------------

const char kRentalsHeader[] =
    "id,bike_id,start_time,end_time,rental_location_id,return_location_id\n";
const char kOneRental[] =
    "id,bike_id,start_time,end_time,rental_location_id,return_location_id\n"
    "1,5,2020-06-01 08:00:00,2020-06-01 08:20:00,1,1\n";

/// A locations document with one row whose name column is `name_field`
/// (raw CSV text, quoting included).
std::string OneLocation(const std::string& name_field) {
  return "id,lat,lon,is_station,name\n1,53.35,-6.26,1," + name_field + "\n";
}

TEST(CsvDatasetTest, EmbeddedComma) {
  auto ds = Dataset::FromCsvStrings(OneLocation("\"Dun Laoghaire, Pier\""),
                                    kOneRental);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->locations()[0].name, "Dun Laoghaire, Pier");
}

TEST(CsvDatasetTest, DoubledQuote) {
  auto ds = Dataset::FromCsvStrings(OneLocation("\"say \"\"hi\"\"\""),
                                    kOneRental);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->locations()[0].name, "say \"hi\"");
}

TEST(CsvDatasetTest, QuotedNewline) {
  auto ds = Dataset::FromCsvStrings(OneLocation("\"line1\nline2\""),
                                    kOneRental);
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->locations().size(), 1u);
  EXPECT_EQ(ds->locations()[0].name, "line1\nline2");
}

TEST(CsvDatasetTest, CrLf) {
  auto ds = Dataset::FromCsvStrings(
      "id,lat,lon,is_station,name\r\n1,53.35,-6.26,1,\"Stn A\"\r\n"
      "2,53.36,-6.25,0,\r\n",
      "id,bike_id,start_time,end_time,rental_location_id,"
      "return_location_id\r\n"
      "1,5,2020-06-01 08:00:00,2020-06-01 08:20:00,1,2\r\n");
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->locations().size(), 2u);
  EXPECT_EQ(ds->locations()[0].name, "Stn A");
  EXPECT_EQ(ds->locations()[1].name, "");
  EXPECT_FALSE(ds->locations()[1].is_station);
  EXPECT_EQ(ds->rentals()[0].return_location_id, 2);
}

TEST(CsvDatasetTest, MissingTrailingNewline) {
  auto ds = Dataset::FromCsvStrings(
      "id,lat,lon,is_station,name\n1,53.35,-6.26,1,Stn A",
      "id,bike_id,start_time,end_time,rental_location_id,"
      "return_location_id\n1,5,2020-06-01 08:00:00,2020-06-01 08:20:00,1,1");
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_EQ(ds->locations().size(), 1u);
  EXPECT_EQ(ds->locations()[0].name, "Stn A");
  EXPECT_EQ(ds->rentals()[0].return_location_id, 1);
}

TEST(CsvDatasetTest, EmptyFields) {
  auto ds = Dataset::FromCsvStrings(
      "id,lat,lon,is_station,name\n7,,,,\n",
      std::string(kRentalsHeader) +
          "1,5,2020-06-01 08:00:00,2020-06-01 08:20:00,,7\n");
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_FALSE(ds->locations()[0].has_coordinates());
  EXPECT_FALSE(ds->locations()[0].is_station);
  EXPECT_EQ(ds->rentals()[0].rental_location_id, kInvalidId);
  EXPECT_EQ(ds->rentals()[0].return_location_id, 7);
}

TEST(CsvDatasetTest, RowWidthMismatchIsError) {
  auto ds = Dataset::FromCsvStrings(OneLocation("a,b"), kOneRental);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss);
}

TEST(CsvDatasetTest, UnterminatedQuoteIsError) {
  auto ds = Dataset::FromCsvStrings(OneLocation("\"oops"), kOneRental);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss);
}

TEST(CsvDatasetTest, EmptyDocumentIsError) {
  auto ds = Dataset::FromCsvStrings("", kOneRental);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss);
}

TEST(CsvDatasetTest, MissingColumnIsError) {
  auto ds = Dataset::FromCsvStrings("id,lat,lon,name\n1,2,3,x\n", kOneRental);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss);
}

TEST(CsvDatasetTest, ColumnsFoundByHeaderName) {
  auto ds = Dataset::FromCsvStrings(
      "name,is_station,lon,lat,id\nStn A,1,-6.26,53.35,4\n", kOneRental);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->locations()[0].id, 4);
  EXPECT_DOUBLE_EQ(ds->locations()[0].position.lat, 53.35);
}

TEST(CsvDatasetTest, NonFiniteCoordinateIsDataLoss) {
  // A non-finite lat/lon is hostile bytes, not a missing coordinate (an
  // empty field is the missing one). The oracle parses numbers with the
  // same ParseDouble, so the two readers agree.
  for (const char* row : {"1,nan,-6.26,1,x", "1,53.35,inf,1,x",
                          "1,-inf,-6.26,1,x", "1,53.35,NaN,1,x"}) {
    const std::string locations =
        std::string("id,lat,lon,is_station,name\n") + row + "\n";
    auto ds = Dataset::FromCsvStrings(locations, kOneRental);
    auto want = oracle::FromCsvStrings(locations, kOneRental);
    ASSERT_FALSE(ds.ok()) << row;
    ASSERT_FALSE(want.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kDataLoss) << row;
    EXPECT_EQ(want.status().code(), StatusCode::kDataLoss) << row;
  }
}

TEST(CsvDatasetTest, StructuralFaultOutranksContentFault) {
  // A malformed id in the locations table, a short row in the rentals
  // table: the structural fault is the one reported, as it was when both
  // tables were tokenised before any field was converted.
  const std::string locations =
      "id,lat,lon,is_station,name\n99999999999999999999,53.35,-6.26,1,x\n";
  const std::string rentals = std::string(kRentalsHeader) + "1,5\n";
  auto ds = Dataset::FromCsvStrings(locations, rentals);
  auto want = oracle::FromCsvStrings(locations, rentals);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(want.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ds.status().code(), want.status().code());
}

TEST(CsvDatasetTest, MissingFileIsIOError) {
  auto r = Dataset::ReadCsv("/no/such/locations.csv", "/no/such/rentals.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// The row reader itself.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> ReadAll(std::string_view text) {
  CsvRowReader reader(text);
  std::vector<std::string_view> fields;
  std::vector<std::vector<std::string>> rows;
  while (reader.NextRow(&fields)) {
    rows.emplace_back(fields.begin(), fields.end());
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status();
  return rows;
}

TEST(CsvRowReaderTest, MatchesOracleOnAwkwardQuoting) {
  // Each document stresses a path of the reader that copies a field
  // instead of viewing it, and the view paths next to it.
  const std::string docs[] = {
      "a,b\n\"x\"y,\"p\"\"q\"\n",        // text after a closing quote
      "a\nab\"cd\n",                     // a quote mid-field is verbatim
      "a,b\r\n\r1,\r\"2\"\r\n",          // CRs before an opening quote
      "a,b\n1\r2,\"3\r\"\n",             // a CR mid-field, one quoted
      "a\n\n\r\n\"\"\n,\n",              // blank rows and an empty quote
      "a,b\n\"1\"\r\r,\"2\" \n",         // CRs and a space after a quote
      "a,b,c\n,\"\",\"\"\"\"\n",         // empty and quote-only fields
  };
  for (const std::string& doc : docs) {
    auto want = oracle::ParseRows(doc);
    ASSERT_TRUE(want.ok()) << doc;
    EXPECT_EQ(ReadAll(doc), *want) << doc;
  }
}

TEST(CsvRowReaderTest, MatchesOracleOnRandomDocuments) {
  // Every short document over the bytes the grammar gives meaning to,
  // sampled: the same rows, or both report an open quote.
  static const char kAlphabet[] = {'a', 'b', ',', '"', '\r', '\n', ' '};
  Rng rng(99);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string doc(AsIndex(rng.NextBounded(14)), 'a');
    for (char& c : doc) c = kAlphabet[rng.NextBounded(sizeof(kAlphabet))];
    auto want = oracle::ParseRows(doc);
    CsvRowReader reader(doc);
    std::vector<std::string_view> fields;
    std::vector<std::vector<std::string>> got;
    while (reader.NextRow(&fields)) got.emplace_back(fields.begin(), fields.end());
    ASSERT_EQ(want.ok(), reader.status().ok()) << testing::PrintToString(doc);
    if (want.ok()) {
      ASSERT_EQ(got, *want) << testing::PrintToString(doc);
    }
  }
}

TEST(CsvRowReaderTest, FieldsSurviveWiderRows) {
  // Copied fields of an earlier, wider row must not move when a later row
  // needs more scratch buffers.
  const std::string doc = "\"a\"\"\",\"b\"\"\"\n\"c\"\"\",\"d\"\"\",\"e\"\"\"\n";
  CsvRowReader reader(doc);
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.NextRow(&fields));
  EXPECT_EQ(fields, (std::vector<std::string_view>{"a\"", "b\""}));
  ASSERT_TRUE(reader.NextRow(&fields));
  EXPECT_EQ(fields, (std::vector<std::string_view>{"c\"", "d\"", "e\""}));
  EXPECT_FALSE(reader.NextRow(&fields));
  EXPECT_TRUE(reader.status().ok());
}

TEST(CsvRowReaderTest, UnterminatedQuoteStopsWithDataLoss) {
  CsvRowReader reader("a\n\"oops\n");
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.NextRow(&fields));
  EXPECT_FALSE(reader.NextRow(&fields));
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(CsvFieldTest, QuotesOnlyWhenNeededAndRoundTrips) {
  const std::vector<std::string> values = {"plain", "with,comma",
                                           "with\"quote", "with\nnewline",
                                           "with\rcr", ""};
  std::string doc = "v\n";
  for (const std::string& v : values) {
    AppendCsvField(&doc, v);
    doc.push_back('\n');
  }
  EXPECT_EQ(doc.substr(0, 21), "v\nplain\n\"with,comma\"\n");
  auto table = oracle::CsvReader::ParseString(doc);
  ASSERT_TRUE(table.ok());
  // The empty value is a blank row, which both readers skip.
  ASSERT_EQ(table->rows.size(), values.size() - 1);
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_EQ(table->rows[i][0], values[i]);
  }
  auto rows = ReadAll(doc);
  rows.erase(rows.begin());
  EXPECT_EQ(rows, table->rows);
}

// ---------------------------------------------------------------------------
// Oracle equivalence on the seed exports and on mutations of them.
// ---------------------------------------------------------------------------

bool SameDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameDataset(const Dataset& want, const Dataset& got,
                       const std::string& where) {
  ASSERT_EQ(want.locations().size(), got.locations().size()) << where;
  for (size_t i = 0; i < want.locations().size(); ++i) {
    const LocationRecord& a = want.locations()[i];
    const LocationRecord& b = got.locations()[i];
    ASSERT_TRUE(a.id == b.id && SameDouble(a.position.lat, b.position.lat) &&
                SameDouble(a.position.lon, b.position.lon) &&
                a.is_station == b.is_station && a.name == b.name)
        << where << ": location row " << i;
  }
  ASSERT_EQ(want.rentals().size(), got.rentals().size()) << where;
  for (size_t i = 0; i < want.rentals().size(); ++i) {
    const RentalRecord& a = want.rentals()[i];
    const RentalRecord& b = got.rentals()[i];
    ASSERT_TRUE(a.id == b.id && a.bike_id == b.bike_id &&
                a.start_time == b.start_time && a.end_time == b.end_time &&
                a.rental_location_id == b.rental_location_id &&
                a.return_location_id == b.return_location_id)
        << where << ": rental row " << i;
  }
}

/// Both readers on the same bytes: an equal Dataset, or the same code.
void ExpectReadersAgree(const std::string& locations,
                        const std::string& rentals, const std::string& where) {
  auto want = oracle::FromCsvStrings(locations, rentals);
  auto got = Dataset::FromCsvStrings(locations, rentals);
  ASSERT_EQ(want.ok(), got.ok())
      << where << ": oracle " << want.status() << ", reader " << got.status();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code())
        << where << ": oracle " << want.status() << ", reader "
        << got.status();
    return;
  }
  ExpectSameDataset(*want, *got, where);
}

struct Export {
  std::string locations, rentals;
};

Export SeedExport(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  Dataset ds = GenerateSyntheticMoby(cfg).ValueOrDie();
  return {ds.LocationsCsvString(), ds.RentalsCsvString()};
}

/// The first `lines` lines of `text`.
std::string Head(const std::string& text, size_t lines) {
  size_t pos = 0;
  for (size_t i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return pos == std::string::npos ? text : text.substr(0, pos);
}

/// Start of a random line of `text` other than the header.
size_t RandomLineStart(const std::string& text, Rng* rng) {
  size_t pos = text.find('\n', AsIndex(rng->NextBounded(text.size())));
  if (pos == std::string::npos || pos + 1 >= text.size()) {
    pos = text.find('\n');
  }
  return pos + 1;
}

/// One seeded mutation of `text`; `kind` names it for failure messages.
std::string Mutate(const std::string& text, bool is_rentals, Rng* rng,
                   std::string* kind) {
  std::string out = text;
  const size_t at = AsIndex(rng->NextBounded(out.size()));
  static const char kBytes[] = {',', '"', '\n', '\r', ' ', '+', '-', '.',
                                '0', '9', 'e', 'x', 'T', ':', '\0'};
  switch (rng->NextBounded(6)) {
    case 0:
      *kind = "bit flip at " + std::to_string(at);
      out[at] = static_cast<char>(out[at] ^ (1 << rng->NextBounded(8)));
      break;
    case 1:
      *kind = "byte replaced at " + std::to_string(at);
      out[at] = kBytes[rng->NextBounded(sizeof(kBytes))];
      break;
    case 2:
      *kind = "truncated at " + std::to_string(at);
      out.resize(at);
      break;
    case 3: {
      // A field-count change: a comma added or removed on some line.
      const size_t line = RandomLineStart(out, rng);
      const size_t comma = out.find(',', line);
      if (rng->NextDouble() < 0.5 || comma == std::string::npos) {
        *kind = "comma inserted at " + std::to_string(line);
        out.insert(line, 1, ',');
      } else {
        *kind = "comma removed at " + std::to_string(comma);
        out.erase(comma, 1);
      }
      break;
    }
    case 4: {
      // An out-of-range number: a 12-digit month in a rental timestamp, or
      // a 20-digit id.
      const size_t line = RandomLineStart(out, rng);
      const size_t dash = out.find('-', line);
      if (is_rentals && dash != std::string::npos) {
        *kind = "12-digit month at " + std::to_string(dash);
        out.replace(dash + 1, 2, "000000000013");
      } else {
        *kind = "20-digit id at " + std::to_string(line);
        out.insert(line, "99999999999999999999");
      }
      break;
    }
    default: {
      *kind = "line duplicated at " + std::to_string(at);
      const size_t line = RandomLineStart(out, rng);
      const size_t end = out.find('\n', line);
      if (end != std::string::npos) {
        out.insert(line, out.substr(line, end - line + 1));
      }
      break;
    }
  }
  return out;
}

TEST(CsvOracleTest, SeedExportsReadIdentically) {
  for (uint64_t seed : {uint64_t{20200103}, uint64_t{1}}) {
    const Export e = SeedExport(seed);
    ExpectReadersAgree(e.locations, e.rentals, "seed " + std::to_string(seed));
    auto ds = Dataset::FromCsvStrings(e.locations, e.rentals);
    ASSERT_TRUE(ds.ok()) << ds.status();
    // The export of what was read is the export that was read.
    EXPECT_EQ(ds->LocationsCsvString(), e.locations);
    EXPECT_EQ(ds->RentalsCsvString(), e.rentals);
  }
}

TEST(CsvOracleTest, MutatedExportsFailAlikeOrReadAlike) {
  // Mutations of the first rows of both seed exports: a few hundred rows
  // keep every case fast while each mutation still meets real data.
  Rng rng(4242);
  int failed = 0;
  for (uint64_t seed : {uint64_t{20200103}, uint64_t{1}}) {
    const Export e = SeedExport(seed);
    const std::string locations = Head(e.locations, 300);
    const std::string rentals = Head(e.rentals, 300);
    for (int i = 0; i < 100; ++i) {
      const bool in_rentals = rng.NextDouble() < 0.5;
      std::string kind;
      const std::string l =
          in_rentals ? locations : Mutate(locations, false, &rng, &kind);
      const std::string r =
          in_rentals ? Mutate(rentals, true, &rng, &kind) : rentals;
      const std::string where = "seed " + std::to_string(seed) +
                                (in_rentals ? " rentals: " : " locations: ") +
                                kind;
      ExpectReadersAgree(l, r, where);
      if (!Dataset::FromCsvStrings(l, r).ok()) ++failed;
    }
  }
  // The mutations must exercise the error paths, not only benign edits.
  EXPECT_GT(failed, 50);
}

}  // namespace
}  // namespace bikegraph::data
