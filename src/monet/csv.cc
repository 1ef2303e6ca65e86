#include "monet/csv.h"

#include <strings.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blaeu::monet {

namespace {

/// Cells read as NULL, compared after trimming.
constexpr std::string_view kNullTokens[] = {"", "NA", "NULL", "null", "nan"};

/// Splits the record that starts at `*pos` into `fields` and moves `*pos`
/// past it. A record ends at an unquoted newline or at the end of `text`. A
/// quote anywhere opens or closes quoting, `""` inside quotes is one quote,
/// and a CR outside quotes is dropped. A field that holds a quote or a CR is
/// unescaped into a new string of `unescaped` (a deque, so earlier fields
/// stay put); the others are views into `text`. Returns false on an
/// unterminated quote.
bool SplitRecord(std::string_view text, size_t* pos,
                 std::vector<std::string_view>* fields,
                 std::deque<std::string>* unescaped) {
  fields->clear();
  unescaped->clear();
  size_t i = *pos;
  for (;; ++i) {  // one field per pass; the ++i steps over its comma
    const size_t start = i;
    while (i < text.size() && text[i] != ',' && text[i] != '\n' &&
           text[i] != '"' && text[i] != '\r') {
      ++i;
    }
    fields->push_back(text.substr(start, i - start));
    if (i < text.size() && (text[i] == '"' || text[i] == '\r')) {
      std::string& field = unescaped->emplace_back(fields->back());
      bool in_quotes = false;
      for (; i < text.size(); ++i) {
        const char c = text[i];
        if (!in_quotes && (c == ',' || c == '\n')) break;
        if (c == '"' && in_quotes && i + 1 < text.size() &&
            text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else if (c == '"') {
          in_quotes = !in_quotes;
        } else if (c != '\r' || in_quotes) {
          field.push_back(c);
        }
      }
      if (in_quotes) return false;
      fields->back() = field;
    }
    if (i == text.size() || text[i] == '\n') break;
  }
  *pos = i + 1;
  return true;
}

/// True if the trimmed cell `t` is "true" or "false" in any case.
bool IsBoolToken(std::string_view t) {
  return (t.size() == 4 && strncasecmp(t.data(), "true", 4) == 0) ||
         (t.size() == 5 && strncasecmp(t.data(), "false", 5) == 0);
}

/// Narrowest type that fits the trimmed, non-null cell `t`.
DataType TokenType(std::string_view t) {
  int64_t i;
  double d;
  if (IsBoolToken(t)) return DataType::kBool;
  if (ParseInt(t, &i)) return DataType::kInt64;
  if (ParseDouble(t, &d)) return DataType::kDouble;
  return DataType::kString;
}

/// Widening lattice: bool < int64 < double < string; any mix involving a
/// string becomes string; bool mixed with numbers becomes string (booleans
/// do not widen to numbers in CSV inference).
DataType WidenType(DataType a, DataType b) {
  if (a == b) return a;
  if (a == DataType::kString || b == DataType::kString) {
    return DataType::kString;
  }
  if (a == DataType::kBool || b == DataType::kBool) return DataType::kString;
  // remaining: {int64, double} mix
  return DataType::kDouble;
}

/// Appends the non-null `cell`, whose trimmed form is `t`, if it parses as
/// the column's type. String cells keep their surrounding whitespace.
bool AppendCell(Column* col, std::string_view cell, std::string_view t) {
  int64_t i;
  double d;
  switch (col->type()) {
    case DataType::kBool:
      if (!IsBoolToken(t)) return false;
      col->AppendBool(t.size() == 4);  // "true"; "false" has 5 letters
      break;
    case DataType::kInt64:
      if (!ParseInt(t, &i)) return false;
      col->AppendInt(i);
      break;
    case DataType::kDouble:
      if (!ParseDouble(t, &d)) return false;
      col->AppendDouble(d);
      break;
    case DataType::kString:
      col->AppendString(cell);
      break;
  }
  return true;
}

/// "line N", where N is the line of `text` on which offset `pos` lies.
std::string LineOf(std::string_view text, size_t pos) {
  return "line " + std::to_string(1 + std::count(text.begin(),
                                                 text.begin() + pos, '\n'));
}

/// One parse of the records from `pos` on into `columns`; returns whether
/// a column drifted. Each column starts empty with the type the previous
/// parse left it, and a null one takes the type of its first non-null cell.
/// A cell that does not parse as its column's type replaces the column with
/// an empty one of the widened type. The parse goes on to the end, so that
/// one more parse with the widened types is the last.
Result<bool> ParseRecords(std::string_view text, size_t pos,
                          std::vector<ColumnPtr>* columns) {
  // One record per line unless a quoted newline joins two.
  const size_t capacity = std::count(text.begin(), text.end(), '\n');
  auto make_column = [capacity](DataType type, size_t nulls) {
    auto col = std::make_shared<Column>(type);
    col->Reserve(capacity);
    for (size_t r = 0; r < nulls; ++r) col->AppendNull();
    return col;
  };
  for (ColumnPtr& col : *columns) {
    if (col != nullptr) col = make_column(col->type(), 0);
  }
  std::vector<std::string_view> fields;
  std::deque<std::string> unescaped;
  bool drifted = false;
  size_t rows = 0;
  for (; pos < text.size(); ++rows) {
    const size_t start = pos;
    if (!SplitRecord(text, &pos, &fields, &unescaped)) {
      return Status::IOError("unterminated quote on " + LineOf(text, start));
    }
    if (fields.size() != columns->size()) {
      return Status::IOError(LineOf(text, start) + " has " +
                             std::to_string(fields.size()) +
                             " fields, expected " +
                             std::to_string(columns->size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const std::string_view t = Trim(fields[c]);
      ColumnPtr& col = (*columns)[c];
      if (std::find(std::begin(kNullTokens), std::end(kNullTokens), t) !=
          std::end(kNullTokens)) {
        if (col != nullptr) col->AppendNull();
        continue;
      }
      if (col == nullptr) col = make_column(TokenType(t), rows);
      if (!AppendCell(col.get(), fields[c], t)) {
        col = make_column(WidenType(col->type(), TokenType(t)), 0);
        drifted = true;
      }
    }
  }
  for (ColumnPtr& col : *columns) {  // all-NULL columns are strings
    if (col == nullptr) col = make_column(DataType::kString, rows);
  }
  return drifted;
}

}  // namespace

Result<TablePtr> ReadCsv(std::string_view text) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("monet.csv.reads")->Increment();
  obs::Span span("monet.csv.read");
  // Drop trailing blank lines.
  const size_t last = text.find_last_not_of(" \t\n\v\f\r");
  if (last == std::string_view::npos) {
    return Status::IOError("empty CSV input");
  }
  text = text.substr(0, text.find('\n', last));

  std::vector<std::string_view> names;
  std::deque<std::string> unescaped;
  size_t pos = 0;
  if (!SplitRecord(text, &pos, &names, &unescaped)) {
    return Status::IOError("unterminated quote in header");
  }
  std::vector<ColumnPtr> columns(names.size());
  for (bool drifted = true; drifted;) {
    BLAEU_ASSIGN_OR_RETURN(drifted, ParseRecords(text, pos, &columns));
  }

  // A header has at least one field, so columns[0] exists.
  registry.counter("monet.csv.rows_read")
      ->Add(static_cast<int64_t>(columns[0]->size()));
  std::vector<Field> schema_fields;
  for (size_t c = 0; c < columns.size(); ++c) {
    schema_fields.push_back({std::string(Trim(names[c])), columns[c]->type()});
    if (columns[c]->type() != DataType::kString) continue;
    // Dictionary accounting for the string columns this load interned.
    const Dictionary& dict = *columns[c]->dictionary();
    registry.counter("monet.dict.entries")
        ->Add(static_cast<int64_t>(dict.size()));
    registry.counter("monet.dict.bytes")
        ->Add(static_cast<int64_t>(dict.bytes()));
    registry.counter("monet.dict.intern_hits")
        ->Add(static_cast<int64_t>(dict.intern_hits()));
  }
  return Table::Make(Schema(std::move(schema_fields)), std::move(columns));
}

Result<TablePtr> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open '" + path + "'");
  }
  // One buffer, sized up front when the file has a size (a pipe has none).
  std::string text;
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return ReadCsv(text);
}

Status WriteCsv(const Table& table, std::ostream& out) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << ',';
    out << CsvEscape(table.schema().field(c).name);
  }
  out << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ',';
      Value v = table.GetValue(r, c);
      if (!v.is_null()) out << CsvEscape(v.ToString());
    }
    out << "\n";
  }
  if (!out.good()) return Status::IOError("write failure");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteCsv(table, out);
}

}  // namespace blaeu::monet
