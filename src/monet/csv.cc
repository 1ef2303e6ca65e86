#include "monet/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blaeu::monet {

namespace {

/// Splits one CSV record, honouring double-quote escaping. Returns false on
/// an unterminated quote.
bool SplitCsvLine(const std::string& line, char delim,
                  std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields->push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // Tolerate CRLF endings.
    } else {
      cur.push_back(c);
    }
  }
  fields->push_back(std::move(cur));
  return !in_quotes;
}

bool IsNullToken(const std::string& token,
                 const std::vector<std::string>& null_tokens) {
  std::string trimmed(Trim(token));
  return std::find(null_tokens.begin(), null_tokens.end(), trimmed) !=
         null_tokens.end();
}

bool IsBoolToken(const std::string& token) {
  std::string t = ToLower(std::string(Trim(token)));
  return t == "true" || t == "false";
}

/// Narrowest type that fits a single token.
DataType TokenType(const std::string& token) {
  if (IsBoolToken(token)) return DataType::kBool;
  int64_t i;
  if (ParseInt(Trim(token), &i)) return DataType::kInt64;
  double d;
  if (ParseDouble(Trim(token), &d)) return DataType::kDouble;
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

Status AppendToken(Column* col, const std::string& token,
                   const std::vector<std::string>& null_tokens,
                   size_t line_no) {
  if (IsNullToken(token, null_tokens)) {
    col->AppendNull();
    return Status::OK();
  }
  std::string trimmed(Trim(token));
  switch (col->type()) {
    case DataType::kBool: {
      if (!IsBoolToken(trimmed)) {
        return Status::TypeError("line " + std::to_string(line_no) +
                                 ": '" + trimmed + "' is not a bool");
      }
      col->AppendBool(ToLower(trimmed) == "true");
      return Status::OK();
    }
    case DataType::kInt64: {
      int64_t v;
      if (!ParseInt(trimmed, &v)) {
        return Status::TypeError("line " + std::to_string(line_no) +
                                 ": '" + trimmed + "' is not an int64");
      }
      col->AppendInt(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v;
      if (!ParseDouble(trimmed, &v)) {
        return Status::TypeError("line " + std::to_string(line_no) +
                                 ": '" + trimmed + "' is not a double");
      }
      col->AppendDouble(v);
      return Status::OK();
    }
    case DataType::kString:
      col->AppendString(token);
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<TablePtr> ReadCsv(std::istream& in, const CsvOptions& options) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("monet.csv.reads")->Increment();
  obs::Span span("monet.csv.read");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() || !in.eof()) lines.push_back(line);
  }
  // Drop trailing blank lines.
  while (!lines.empty() && Trim(lines.back()).empty()) lines.pop_back();
  if (lines.empty()) return Status::IOError("empty CSV input");

  std::vector<std::string> fields;
  size_t first_data = 0;
  std::vector<std::string> names;
  if (options.has_header) {
    if (!SplitCsvLine(lines[0], options.delimiter, &fields)) {
      return Status::IOError("unterminated quote in header");
    }
    for (auto& f : fields) names.emplace_back(Trim(f));
    first_data = 1;
  } else {
    if (!SplitCsvLine(lines[0], options.delimiter, &fields)) {
      return Status::IOError("unterminated quote on line 1");
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      names.push_back("c" + std::to_string(i));
    }
  }
  const size_t num_cols = names.size();

  // Pass 1: infer a type per column.
  std::vector<DataType> types(num_cols, DataType::kBool);
  std::vector<bool> saw_value(num_cols, false);
  size_t scan_end = lines.size();
  if (options.inference_rows > 0) {
    scan_end = std::min(lines.size(), first_data + options.inference_rows);
  }
  for (size_t li = first_data; li < scan_end; ++li) {
    if (!SplitCsvLine(lines[li], options.delimiter, &fields)) {
      return Status::IOError("unterminated quote on line " +
                             std::to_string(li + 1));
    }
    if (fields.size() != num_cols) {
      return Status::IOError("line " + std::to_string(li + 1) + " has " +
                             std::to_string(fields.size()) +
                             " fields, expected " + std::to_string(num_cols));
    }
    for (size_t c = 0; c < num_cols; ++c) {
      if (IsNullToken(fields[c], options.null_tokens)) continue;
      DataType t = TokenType(fields[c]);
      types[c] = saw_value[c] ? WidenType(types[c], t) : t;
      saw_value[c] = true;
    }
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (!saw_value[c]) types[c] = DataType::kString;  // all-null columns
  }

  // Pass 2: build columns.
  std::vector<Field> schema_fields;
  schema_fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    schema_fields.push_back({names[c], types[c]});
  }
  std::vector<ColumnPtr> columns;
  std::vector<Column*> raw;
  for (size_t c = 0; c < num_cols; ++c) {
    auto col = std::make_shared<Column>(types[c]);
    col->Reserve(lines.size() - first_data);
    raw.push_back(col.get());
    columns.push_back(std::move(col));
  }
  for (size_t li = first_data; li < lines.size(); ++li) {
    if (!SplitCsvLine(lines[li], options.delimiter, &fields)) {
      return Status::IOError("unterminated quote on line " +
                             std::to_string(li + 1));
    }
    if (fields.size() != num_cols) {
      return Status::IOError("line " + std::to_string(li + 1) + " has " +
                             std::to_string(fields.size()) +
                             " fields, expected " + std::to_string(num_cols));
    }
    for (size_t c = 0; c < num_cols; ++c) {
      BLAEU_RETURN_NOT_OK(
          AppendToken(raw[c], fields[c], options.null_tokens, li + 1));
    }
  }
  registry.counter("monet.csv.rows_read")
      ->Add(static_cast<int64_t>(lines.size() - first_data));
  // Dictionary accounting for the string columns this load interned.
  for (const ColumnPtr& col : columns) {
    if (col->type() != DataType::kString) continue;
    const Dictionary& dict = *col->dictionary();
    registry.counter("monet.dict.entries")
        ->Add(static_cast<int64_t>(dict.size()));
    registry.counter("monet.dict.bytes")
        ->Add(static_cast<int64_t>(dict.bytes()));
    registry.counter("monet.dict.intern_hits")
        ->Add(static_cast<int64_t>(dict.intern_hits()));
  }
  return Table::Make(Schema(std::move(schema_fields)), std::move(columns));
}

Result<TablePtr> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open '" + path + "'");
  }
  return ReadCsv(in, options);
}

Status WriteCsv(const Table& table, std::ostream& out, char delimiter) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << delimiter;
    out << CsvEscape(table.schema().field(c).name, delimiter);
  }
  out << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << delimiter;
      Value v = table.GetValue(r, c);
      if (!v.is_null()) out << CsvEscape(v.ToString(), delimiter);
    }
    out << "\n";
  }
  if (!out.good()) return Status::IOError("write failure");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteCsv(table, out, delimiter);
}

}  // namespace blaeu::monet
