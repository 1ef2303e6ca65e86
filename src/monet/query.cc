#include "monet/query.h"

#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blaeu::monet {

std::string SelectProjectQuery::ToSql() const {
  std::string cols;
  if (columns.empty()) {
    cols = "*";
  } else {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) cols += ", ";
      cols += Quote(columns[i], '"');
    }
  }
  std::string sql = "SELECT " + cols + " FROM " + Quote(table_name, '"');
  if (!where.empty()) sql += " WHERE " + where.ToSql();
  return sql + ";";
}

Result<TablePtr> SelectProjectQuery::Execute(const Catalog& catalog) const {
  BLAEU_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(table_name));
  return ExecuteOn(*table);
}

Result<TablePtr> SelectProjectQuery::ExecuteOn(const Table& table) const {
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("monet.query.executions")->Increment();
  registry.counter("monet.query.rows_scanned")
      ->Add(static_cast<int64_t>(table.num_rows()));
  obs::Span span("monet.query.execute");
  BLAEU_ASSIGN_OR_RETURN(SelectionVector sel, where.Evaluate(table));
  registry.counter("monet.query.rows_returned")
      ->Add(static_cast<int64_t>(sel.size()));
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kQuery, "monet.query.execute",
      {{"sql", ToSql()},
       {"rows_scanned", std::to_string(table.num_rows())},
       {"rows_returned", std::to_string(sel.size())}});
  TablePtr filtered = table.Take(sel.rows());
  if (columns.empty()) return filtered;
  return filtered->ProjectNames(columns);
}

}  // namespace blaeu::monet
