#include "core/render.h"

#include <algorithm>
#include <sstream>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace blaeu::core {

std::string RenderThemeList(const ThemeSet& themes) {
  std::ostringstream out;
  out << "Themes (" << themes.size() << "):\n";
  for (const Theme& t : themes.themes) {
    out << "  [" << t.id << "] " << t.Label() << "  (" << t.columns.size()
        << " columns, cohesion " << FormatDouble(t.cohesion, 3) << ")\n";
  }
  return out.str();
}

namespace {

void RenderRegion(const DataMap& map, const MapRegion& region,
                  const std::string& prefix, bool last, size_t root_count,
                  std::ostringstream* out) {
  std::string connector = region.parent < 0 ? "" : (last ? "`- " : "|- ");
  *out << prefix << connector;
  if (region.parent < 0) {
    *out << "[0] ALL  (" << region.tuple_count << " tuples)";
  } else {
    *out << "[" << region.id << "] " << region.EdgeLabel() << "  ("
         << region.tuple_count << " tuples";
    if (root_count > 0) {
      *out << ", "
           << FormatDouble(100.0 * static_cast<double>(region.tuple_count) /
                               static_cast<double>(root_count),
                           3)
           << "%";
    }
    *out << ")";
  }
  if (region.is_leaf()) {
    *out << "  <cluster " << region.cluster_label << ">";
    size_t bar = root_count > 0 ? (region.tuple_count * 24) / root_count : 0;
    *out << "  " << std::string(std::max<size_t>(bar, 1), '#');
  }
  *out << "\n";
  std::string child_prefix =
      prefix + (region.parent < 0 ? "" : (last ? "   " : "|  "));
  for (size_t i = 0; i < region.children.size(); ++i) {
    RenderRegion(map, map.region(region.children[i]), child_prefix,
                 i + 1 == region.children.size(), root_count, out);
  }
}

}  // namespace

std::string RenderMap(const DataMap& map) {
  std::ostringstream out;
  out << "Data map over {" << Join(map.active_columns, ", ") << "}\n";
  out << "  clusters: " << map.num_clusters << "  silhouette: "
      << FormatDouble(map.silhouette, 3) << "  tree fidelity: "
      << FormatDouble(map.tree_fidelity, 3) << "  algorithm: "
      << map.algorithm << "  (" << map.sample_size << "/"
      << map.total_tuples << " tuples clustered, "
      << FormatDouble(map.build_seconds * 1e3, 4) << " ms)\n";
  RenderRegion(map, map.root(), "", true, map.root().tuple_count, &out);
  return out.str();
}

std::string RenderTreemapStrip(const DataMap& map, size_t width) {
  std::vector<int> leaves = map.LeafIds();
  size_t total = map.root().tuple_count;
  if (total == 0 || leaves.empty()) return "(empty map)\n";
  std::ostringstream bar, legend;
  static const char kFill[] = "#=@%+*o.";
  size_t used = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const MapRegion& r = map.region(leaves[i]);
    size_t w = (r.tuple_count * width) / total;
    if (i + 1 == leaves.size()) w = width > used ? width - used : 0;
    w = std::max<size_t>(w, 1);
    used += w;
    bar << "[" << std::string(w, kFill[i % 8]) << "]";
    legend << "  " << std::string(1, kFill[i % 8]) << " region " << r.id
           << ": " << r.EdgeLabel() << " (" << r.tuple_count << ")\n";
  }
  return bar.str() + "\n" + legend.str();
}

std::string RenderHighlight(const HighlightResult& highlight) {
  std::ostringstream out;
  out << "Highlight '" << highlight.column << "':\n";
  for (const RegionHighlight& r : highlight.regions) {
    out << "  region " << r.region_id << " (" << r.tuple_count
        << " tuples): ";
    if (r.examples.empty()) {
      out << "(no values)";
    } else {
      out << Join(r.examples, ", ");
      if (r.stats.distinct > r.examples.size()) {
        out << ", ... (" << r.stats.distinct << " distinct)";
      }
    }
    if (r.stats.count > r.stats.null_count && r.stats.stddev >= 0 &&
        r.stats.distinct > 1 && r.stats.min != r.stats.max) {
      out << "  [mean " << FormatDouble(r.stats.mean, 4) << ", range "
          << FormatDouble(r.stats.min, 4) << ".."
          << FormatDouble(r.stats.max, 4) << "]";
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderBreadcrumbs(const Session& session) {
  std::ostringstream out;
  out << "History:\n";
  for (size_t i = 0; i < session.history_size(); ++i) {
    const NavState& s = session.state(i);
    out << "  " << (i + 1 == session.history_size() ? "*" : " ") << "[" << i
        << "] " << s.action << "  (" << s.selection.size() << " tuples, "
        << s.columns.size() << " columns)\n";
  }
  return out.str();
}

namespace {

/// Shared body of MapToJson / CanonicalMapJson. `canonical` drops the
/// timing field and adds the medoid rows (which MapToJson predates).
void WriteMapJson(const DataMap& map, bool canonical, JsonWriter* w) {
  w->BeginObject();
  w->Key("active_columns").BeginArray();
  for (const auto& c : map.active_columns) w->String(c);
  w->EndArray();
  w->KV("num_clusters", map.num_clusters)
      .KV("silhouette", map.silhouette)
      .KV("tree_fidelity", map.tree_fidelity)
      .KV("sample_size", map.sample_size)
      .KV("total_tuples", map.total_tuples)
      .KV("algorithm", map.algorithm);
  if (!canonical) w->KV("build_seconds", map.build_seconds);
  w->Key("regions").BeginArray();
  for (const MapRegion& r : map.regions) {
    w->BeginObject();
    w->KV("id", static_cast<int64_t>(r.id))
        .KV("parent", static_cast<int64_t>(r.parent))
        .KV("edge", r.EdgeLabel())
        .KV("predicate", r.predicate.ToSql())
        .KV("tuples", r.tuple_count)
        .KV("leaf", r.is_leaf())
        .KV("cluster", static_cast<int64_t>(r.cluster_label));
    if (canonical) {
      w->KV("medoid_row", r.has_medoid
                              ? static_cast<int64_t>(r.medoid_row)
                              : static_cast<int64_t>(-1));
    }
    w->Key("children").BeginArray();
    for (int c : r.children) w->Int(c);
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string MapToJson(const DataMap& map) {
  JsonWriter w;
  WriteMapJson(map, /*canonical=*/false, &w);
  return w.str();
}

std::string CanonicalMapJson(const DataMap& map) {
  JsonWriter w;
  WriteMapJson(map, /*canonical=*/true, &w);
  return w.str();
}

std::string ThemesToJson(const ThemeSet& themes) {
  JsonWriter w;
  w.BeginObject();
  w.KV("silhouette", themes.silhouette);
  w.Key("themes").BeginArray();
  for (const Theme& t : themes.themes) {
    w.BeginObject();
    w.KV("id", static_cast<int64_t>(t.id)).KV("cohesion", t.cohesion);
    w.Key("columns").BeginArray();
    for (const auto& n : t.names) w.String(n);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string DependencyGraphToDot(const ThemeSet& themes, double min_weight) {
  static const char* kPalette[] = {"lightblue",  "lightyellow", "lightpink",
                                   "lightgreen", "lavender",    "wheat",
                                   "lightcyan",  "mistyrose"};
  // A vertex takes its name from the theme that holds its column, and its
  // fill from that theme's id.
  const std::vector<std::vector<double>>& dep = themes.dependency;
  std::vector<std::string> names(dep.size());
  std::vector<const char*> fills(dep.size(), "white");
  for (const Theme& t : themes.themes) {
    for (size_t c = 0; c < t.columns.size(); ++c) {
      for (size_t v = 0; v < dep.size(); ++v) {
        if (themes.graph_columns[v] != t.columns[c]) continue;
        names[v] = BackslashEscape(t.names[c]);
        fills[v] = kPalette[t.id % 8];
      }
    }
  }
  std::ostringstream out;
  out << "graph dependency {\n  node [style=filled, shape=box];\n";
  for (size_t v = 0; v < dep.size(); ++v) {
    out << "  n" << v << " [label=\"" << names[v]
        << "\", fillcolor=" << fills[v] << "];\n";
  }
  for (size_t u = 0; u < dep.size(); ++u) {
    for (size_t v = u + 1; v < dep.size(); ++v) {
      const double w = dep[u][v];
      if (w <= min_weight) continue;
      out << "  n" << u << " -- n" << v << " [penwidth="
          << FormatDouble(0.5 + 4.0 * w, 3) << ", label=\""
          << FormatDouble(w, 2) << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace blaeu::core
