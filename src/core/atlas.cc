#include "core/atlas.h"

#include <sstream>

#include "common/string_util.h"
#include "stats/metrics.h"

namespace blaeu::core {

using monet::SelectionVector;
using monet::Table;

namespace {

/// The leaf partition of `sel` a map induces: the index, in LeafIds order,
/// of the leaf holding each row of `sel`, or -1 for a row that no leaf
/// holds (possible under NULL routing).
Result<std::vector<int>> LeafPartition(const DataMap& map, const Table& table,
                                       const SelectionVector& sel) {
  BLAEU_ASSIGN_OR_RETURN(std::vector<SelectionVector> region_rows,
                         RegionRows(table, map, sel));
  std::vector<int> labels(sel.size(), -1);
  int next = 0;
  for (int leaf : map.LeafIds()) {
    // Both row lists ascend, and the leaf's rows are a subset of sel's.
    size_t pos = 0;
    for (uint32_t r : region_rows[leaf].rows()) {
      while (sel[pos] != r) ++pos;
      labels[pos] = next;
    }
    ++next;
  }
  return labels;
}

}  // namespace

Result<double> MapStability(const Table& table, const SelectionVector& sel,
                            const std::vector<std::string>& columns,
                            const MapOptions& options, size_t replicas) {
  if (replicas < 2) return 0.0;
  std::vector<std::vector<int>> partitions;
  partitions.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    MapOptions opt = options;
    opt.seed = options.seed + 7919 * (r + 1);
    BLAEU_ASSIGN_OR_RETURN(DataMap map, BuildMap(table, sel, columns, opt));
    BLAEU_ASSIGN_OR_RETURN(std::vector<int> partition,
                           LeafPartition(map, table, sel));
    partitions.push_back(std::move(partition));
  }
  double total = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < partitions.size(); ++a) {
    for (size_t b = a + 1; b < partitions.size(); ++b) {
      total += stats::AdjustedRandIndex(partitions[a], partitions[b]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

Result<Atlas> BuildAtlas(const Table& table, const SelectionVector& sel,
                         const ThemeSet& themes, const MapOptions& options) {
  Atlas atlas;
  for (const Theme& theme : themes.themes) {
    if (theme.columns.size() < kMinThemeColumns) continue;
    AtlasEntry entry;
    entry.theme_id = theme.id;
    BLAEU_ASSIGN_OR_RETURN(entry.map,
                           BuildMap(table, sel, theme.names, options));
    atlas.entries.push_back(std::move(entry));
  }
  if (atlas.entries.empty()) {
    return Status::Invalid("no theme qualifies for the atlas");
  }
  return atlas;
}

std::string RenderAtlas(const Atlas& atlas, const ThemeSet& themes) {
  std::ostringstream out;
  out << "Atlas (" << atlas.entries.size() << " maps):\n";
  for (const AtlasEntry& entry : atlas.entries) {
    const Theme& theme = themes.theme(entry.theme_id);
    out << "  theme " << entry.theme_id << " [" << theme.Label() << "]: "
        << entry.map.num_clusters << " clusters, silhouette "
        << FormatDouble(entry.map.silhouette, 3);
    // Top-level split: the first child's edge, if any.
    if (entry.map.regions.size() > 1) {
      out << "\n      splits on " << entry.map.regions[1].EdgeLabel();
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace blaeu::core
