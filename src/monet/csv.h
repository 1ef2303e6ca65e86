// CSV import/export with type inference — the "CSV File" ingest path of
// Figure 4.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "monet/table.h"

namespace blaeu::monet {

/// Parses CSV text in one fixed dialect: comma-separated, a header row
/// (names trimmed), double-quote escaping (a quoted field may hold commas,
/// `""` and newlines), CRs outside quotes dropped, and the cells "", "NA",
/// "NULL", "null" and "nan" (after trimming) read as NULL. Each column gets
/// the narrowest of bool < int64 < double < string that fits every non-null
/// cell; bool mixed with numbers becomes string, and an all-NULL column is
/// string. A column takes its first non-null cell's type, and a later cell
/// that does not fit widens it and costs one more parse of the text.
Result<TablePtr> ReadCsv(std::string_view text);

/// Reads a CSV file from disk into one buffer and parses it as ReadCsv.
Result<TablePtr> ReadCsvFile(const std::string& path);

/// Writes `table` as RFC-4180 CSV (header + rows, fields escaped).
Status WriteCsv(const Table& table, std::ostream& out);

/// Writes `table` to a file.
Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace blaeu::monet
