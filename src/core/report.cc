#include "core/report.h"

#include <fstream>

#include "core/render.h"
#include "monet/csv.h"

namespace blaeu::core {

namespace {

/// Rows exported per leaf-region CSV.
constexpr size_t kRegionCsvRows = 100;
/// The DOT graph shows the edges of dependency above this.
constexpr double kDotMinWeight = 0.2;

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << content;
  if (!out.good()) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace

Status ExportSessionReport(const Session& session,
                           const std::string& directory) {
  const std::string base = directory + "/";

  // Themes (Figure 1a) and the dependency graph (Figure 2).
  BLAEU_RETURN_NOT_OK(
      WriteFile(base + "themes.txt", RenderThemeList(session.themes())));
  BLAEU_RETURN_NOT_OK(
      WriteFile(base + "themes.json", ThemesToJson(session.themes())));
  BLAEU_RETURN_NOT_OK(WriteFile(
      base + "dependency.dot",
      DependencyGraphToDot(session.themes(), kDotMinWeight)));

  // Every navigation state: map rendering, map JSON, implicit SQL.
  for (size_t i = 0; i < session.history_size(); ++i) {
    const NavState& state = session.state(i);
    std::string stem = base + "state_" + std::to_string(i);
    BLAEU_RETURN_NOT_OK(WriteFile(stem + "_map.txt",
                                  RenderMap(state.map)));
    BLAEU_RETURN_NOT_OK(WriteFile(stem + "_map.json",
                                  MapToJson(state.map)));
    monet::SelectProjectQuery q;
    q.table_name = session.table_name();
    q.columns = state.columns;
    q.where = state.where;
    BLAEU_RETURN_NOT_OK(WriteFile(stem + "_query.sql", q.ToSql() + "\n"));
  }

  // Full session log (actions, SQL, annotations).
  BLAEU_RETURN_NOT_OK(WriteFile(base + "session.json", session.ToJson()));

  // Current map's leaf contents.
  for (int leaf : session.current().map.LeafIds()) {
    BLAEU_ASSIGN_OR_RETURN(monet::TablePtr rows,
                           session.Inspect(leaf, kRegionCsvRows));
    BLAEU_RETURN_NOT_OK(monet::WriteCsvFile(
        *rows, base + "region_" + std::to_string(leaf) + ".csv"));
  }
  return Status::OK();
}

}  // namespace blaeu::core
