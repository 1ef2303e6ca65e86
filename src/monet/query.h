// Select-Project queries: the query class Blaeu's maps quantize (§2 of the
// paper). A map state corresponds to exactly one of these.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "monet/catalog.h"
#include "monet/predicate.h"
#include "monet/table.h"

namespace blaeu::monet {

/// \brief SELECT <columns> FROM <table> WHERE <conjunction>.
struct SelectProjectQuery {
  std::string table_name;
  /// Projected column names; empty means SELECT *.
  std::vector<std::string> columns;
  Conjunction where;

  /// Renders the query as SQL text, with each name in double quotes (a `"`
  /// inside one is doubled).
  std::string ToSql() const;

  /// Executes against a catalog, materializing the result.
  Result<TablePtr> Execute(const Catalog& catalog) const;

  /// Executes against a concrete table (ignores table_name).
  Result<TablePtr> ExecuteOn(const Table& table) const;
};

}  // namespace blaeu::monet
