#include "core/navigation.h"

#include <algorithm>

#include "common/json_writer.h"
#include "obs/flight_recorder.h"
#include "stats/histogram.h"

namespace blaeu::core {

using monet::SelectionVector;
using monet::Table;
using monet::TablePtr;

namespace {

Rng MakeSamplerRng(uint64_t seed) { return Rng(seed ^ 0xb1aeb1aeULL); }

/// The session's flight recorder: the one injected through the map options,
/// else the process-global instance (same resolution as the other sinks).
obs::FlightRecorder* ResolveFlight(const SessionOptions& options) {
  return options.map.flight != nullptr ? options.map.flight
                                       : &obs::FlightRecorder::Global();
}

/// Fingerprint of every session option that can change a built map (the
/// map options plus the session seed, which also seeds the sampler).
uint64_t FingerprintSessionOptions(const SessionOptions& options) {
  return HashMix(HashMix(kFnvOffset, FingerprintMapOptions(options.map)),
                 options.seed);
}

}  // namespace

Session::Session(TablePtr table, std::string table_name,
                 SessionOptions options, ThemeSet themes)
    : table_(std::move(table)),
      table_name_(std::move(table_name)),
      options_(std::move(options)),
      themes_(std::move(themes)),
      sampler_([&] {
        Rng rng = MakeSamplerRng(options_.seed);
        return monet::MultiScaleSampler(table_->num_rows(), &rng);
      }()),
      session_id_(MapCache::NextSessionId()),
      table_fp_(FingerprintTable(*table_)),
      options_fp_(FingerprintSessionOptions(options_)) {
  if (options_.cache_enabled) {
    cache_ = options_.cache != nullptr
                 ? options_.cache
                 : std::make_shared<MapCache>(
                       MapCache::BudgetFromEnv(),
                       options_.map.metrics, options_.map.tracer,
                       options_.map.flight);
  }
}

void Session::ReleaseCacheEntries() {
  if (cache_ != nullptr) cache_->EvictSession(session_id_);
}

Result<Session> Session::Start(TablePtr table, std::string table_name,
                               const SessionOptions& options) {
  if (table == nullptr || table->num_rows() == 0) {
    return Status::Invalid("cannot start a session on an empty table");
  }
  BLAEU_ASSIGN_OR_RETURN(ThemeSet themes,
                         DetectThemes(*table, options.themes));
  Session session(std::move(table), std::move(table_name), options,
                  std::move(themes));
  BLAEU_RETURN_NOT_OK(session.SelectTheme(0));
  session.history_.front().action = "start";
  return session;
}

Result<DataMap> Session::MakeMap(const SelectionVector& sel,
                                 const std::vector<std::string>& columns) {
  MapOptions map_options = options_.map;
  const uint64_t sel_fp = sel.Fingerprint();
  const uint64_t cols_fp = FingerprintStrings(columns);
  // The map seed is a deterministic function of the navigation state
  // (session seed, selection, columns): distinct states draw distinct
  // samples, while rebuilding the SAME state cold reproduces the same
  // sample and map — the property that makes cache hits bit-identical.
  map_options.seed =
      HashMix(HashMix(HashMix(kFnvOffset, options_.seed), sel_fp), cols_fp);
  MapCacheKey key;
  key.table_name = table_name_;
  key.table_version = options_.table_version;
  key.table_fp = table_fp_;
  key.selection_fp = sel_fp;
  key.columns_fp = cols_fp;
  key.options_fp = options_fp_;
  key.seed = map_options.seed;

  if (cache_ != nullptr) {
    if (std::shared_ptr<const DataMap> hit = cache_->Lookup(key, session_id_)) {
      // The map is bit-identical to a cold build, but what THIS interaction
      // cost is not: a warm map did no sampling, no distance evaluations and
      // no counting. Report a fresh profile so resource accounting reflects
      // the work actually done (the acceptance contract of obs/resource.h).
      DataMap warm = *hit;
      warm.resources = obs::ResourceProfile{};
      warm.resources.cache_hits = 1;
      return warm;
    }
  }

  BLAEU_ASSIGN_OR_RETURN(
      DataMap map, BuildMap(*table_, sel, columns, map_options, &sampler_));
  if (cache_ != nullptr) {
    map.resources.cache_misses = 1;
    cache_->Insert(key, session_id_, std::make_shared<const DataMap>(map));
  }
  return map;
}

Status Session::SelectTheme(size_t theme_idx) {
  return MapTheme(theme_idx, "select_theme");
}

Status Session::MapTheme(size_t theme_idx, const std::string& verb) {
  if (theme_idx >= themes_.size()) {
    return Status::IndexError("theme index " + std::to_string(theme_idx) +
                              " out of range (" +
                              std::to_string(themes_.size()) + " themes)");
  }
  const Theme& theme = themes_.theme(theme_idx);
  SelectionVector sel = history_.empty()
                            ? SelectionVector::All(table_->num_rows())
                            : history_.back().selection;
  monet::Conjunction where =
      history_.empty() ? monet::Conjunction() : history_.back().where;
  BLAEU_ASSIGN_OR_RETURN(DataMap map, MakeMap(sel, theme.names));
  NavState state;
  state.selection = std::move(sel);
  state.theme_id = static_cast<int>(theme_idx);
  state.columns = theme.names;
  state.where = std::move(where);
  state.map = std::move(map);
  state.action = verb + "(" + std::to_string(theme_idx) + ")";
  ResolveFlight(options_)->Record(
      obs::FlightEventKind::kNavigation, "core.session." + verb,
      {{"theme", std::to_string(theme_idx)},
       {"rows", std::to_string(state.selection.size())},
       {"cached", state.map.resources.cache_hits > 0 ? "1" : "0"}});
  history_.push_back(std::move(state));
  return Status::OK();
}

Status Session::Zoom(int region_id) {
  const NavState& cur = current();
  BLAEU_RETURN_NOT_OK(cur.map.ValidateRegionId(region_id));
  const MapRegion& region = cur.map.region(region_id);
  if (region.parent < 0) {
    return Status::Invalid("cannot zoom into the root region");
  }
  BLAEU_ASSIGN_OR_RETURN(SelectionVector sub,
                         region.predicate.EvaluateOn(*table_, cur.selection));
  if (sub.empty()) {
    return Status::Invalid("region " + std::to_string(region_id) +
                           " covers no tuples");
  }
  BLAEU_ASSIGN_OR_RETURN(DataMap map, MakeMap(sub, cur.columns));
  NavState state;
  state.selection = std::move(sub);
  state.theme_id = cur.theme_id;
  state.columns = cur.columns;
  state.where = cur.where.And(region.predicate);
  state.map = std::move(map);
  state.action = "zoom(" + std::to_string(region_id) + ")";
  ResolveFlight(options_)->Record(
      obs::FlightEventKind::kNavigation, "core.session.zoom",
      {{"region", std::to_string(region_id)},
       {"rows", std::to_string(state.selection.size())},
       {"cached", state.map.resources.cache_hits > 0 ? "1" : "0"}});
  history_.push_back(std::move(state));
  return Status::OK();
}

Status Session::Project(size_t theme_idx) {
  return MapTheme(theme_idx, "project");
}

Result<HighlightResult> Session::Highlight(const std::string& column) const {
  const NavState& cur = current();
  BLAEU_ASSIGN_OR_RETURN(size_t col_idx,
                         table_->schema().RequireFieldIndex(column));
  BLAEU_ASSIGN_OR_RETURN(
      std::vector<SelectionVector> region_rows,
      RegionRows(*table_, cur.map, cur.selection, options_.map.num_threads));
  HighlightResult out;
  out.column = column;
  for (int leaf_id : cur.map.LeafIds()) {
    const SelectionVector& rows = region_rows[leaf_id];
    RegionHighlight h;
    h.region_id = leaf_id;
    h.tuple_count = rows.size();
    h.stats = monet::ComputeColumnStats(*table_->column(col_idx), rows);
    for (size_t i = 0; i < h.stats.top_values.size() && i < 5; ++i) {
      h.examples.push_back(h.stats.top_values[i].first);
    }
    out.regions.push_back(std::move(h));
  }
  return out;
}

Result<HighlightDetailResult> Session::HighlightDetail(
    const std::string& column, size_t bins) const {
  const NavState& cur = current();
  BLAEU_ASSIGN_OR_RETURN(size_t col_idx,
                         table_->schema().RequireFieldIndex(column));
  const monet::Column& col = *table_->column(col_idx);
  BLAEU_ASSIGN_OR_RETURN(
      std::vector<SelectionVector> region_rows,
      RegionRows(*table_, cur.map, cur.selection, options_.map.num_threads));
  HighlightDetailResult out;
  out.column = column;
  out.numeric = col.type() != monet::DataType::kString;
  for (int leaf_id : cur.map.LeafIds()) {
    const SelectionVector& rows = region_rows[leaf_id];
    RegionDetail detail;
    detail.region_id = leaf_id;
    detail.tuple_count = rows.size();
    if (out.numeric) {
      BLAEU_ASSIGN_OR_RETURN(stats::Histogram h,
                             stats::NumericHistogram(col, rows, bins));
      detail.rendering = h.ToAscii();
    } else {
      detail.rendering = stats::CategoricalFrequencies(col, rows).ToAscii();
    }
    out.regions.push_back(std::move(detail));
  }
  return out;
}

Result<ScatterDetailResult> Session::ScatterDetail(
    const std::string& x_column, const std::string& y_column) const {
  const NavState& cur = current();
  BLAEU_ASSIGN_OR_RETURN(size_t x_idx,
                         table_->schema().RequireFieldIndex(x_column));
  BLAEU_ASSIGN_OR_RETURN(size_t y_idx,
                         table_->schema().RequireFieldIndex(y_column));
  BLAEU_ASSIGN_OR_RETURN(
      std::vector<SelectionVector> region_rows,
      RegionRows(*table_, cur.map, cur.selection, options_.map.num_threads));
  ScatterDetailResult out;
  out.x_column = x_column;
  out.y_column = y_column;
  for (int leaf_id : cur.map.LeafIds()) {
    const SelectionVector& rows = region_rows[leaf_id];
    BLAEU_ASSIGN_OR_RETURN(
        stats::BinnedScatter scatter,
        stats::BivariateScatter(*table_->column(x_idx),
                                *table_->column(y_idx), rows));
    RegionDetail detail;
    detail.region_id = leaf_id;
    detail.tuple_count = rows.size();
    detail.rendering = scatter.ToAscii();
    out.regions.push_back(std::move(detail));
  }
  return out;
}

Status Session::Annotate(int region_id, std::string note) {
  NavState& cur = history_.back();
  BLAEU_RETURN_NOT_OK(cur.map.ValidateRegionId(region_id));
  cur.annotations[region_id] = std::move(note);
  return Status::OK();
}

std::string Session::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("table", table_name_)
      .KV("rows", table_->num_rows())
      .KV("columns", table_->num_columns())
      .KV("num_themes", themes_.size());
  w.Key("states").BeginArray();
  for (size_t i = 0; i < history_.size(); ++i) {
    const NavState& s = history_[i];
    monet::SelectProjectQuery q;
    q.table_name = table_name_;
    q.columns = s.columns;
    q.where = s.where;
    w.BeginObject();
    w.KV("index", i)
        .KV("action", s.action)
        .KV("theme", static_cast<int64_t>(s.theme_id))
        .KV("selection_size", s.selection.size())
        .KV("sql", q.ToSql())
        .KV("clusters", s.map.num_clusters)
        .KV("silhouette", s.map.silhouette)
        .KV("algorithm", s.map.algorithm);
    w.Key("annotations").BeginArray();
    for (const auto& [region, note] : s.annotations) {
      w.BeginObject();
      w.KV("region", static_cast<int64_t>(region)).KV("note", note);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status Session::Rollback() {
  if (history_.size() <= 1) {
    return Status::Invalid("already at the initial state");
  }
  history_.pop_back();
  ResolveFlight(options_)->Record(
      obs::FlightEventKind::kNavigation, "core.session.rollback",
      {{"depth", std::to_string(history_.size() - 1)}});
  return Status::OK();
}

Status Session::RollbackTo(size_t index) {
  if (index >= history_.size()) {
    return Status::IndexError("state index " + std::to_string(index) +
                              " out of range");
  }
  history_.resize(index + 1);
  ResolveFlight(options_)->Record(
      obs::FlightEventKind::kNavigation, "core.session.rollback_to",
      {{"index", std::to_string(index)}});
  return Status::OK();
}

monet::SelectProjectQuery Session::CurrentQuery() const {
  const NavState& cur = current();
  monet::SelectProjectQuery q;
  q.table_name = table_name_;
  q.columns = cur.columns;
  q.where = cur.where;
  return q;
}

Result<TablePtr> Session::Inspect(int region_id, size_t max_rows) const {
  const NavState& cur = current();
  BLAEU_RETURN_NOT_OK(cur.map.ValidateRegionId(region_id));
  BLAEU_ASSIGN_OR_RETURN(
      SelectionVector rows,
      cur.map.region(region_id).predicate.EvaluateOn(*table_, cur.selection));
  std::vector<uint32_t> head(rows.rows().begin(),
                             rows.rows().begin() +
                                 std::min(max_rows, rows.size()));
  return table_->Take(head);
}

}  // namespace blaeu::core
