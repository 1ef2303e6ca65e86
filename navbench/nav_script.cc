#include "nav_script.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/map_cache.h"
#include "core/render.h"

namespace navbench {

using blaeu::Rng;
using blaeu::Status;
using blaeu::core::Explorer;
using blaeu::core::HashMix;
using blaeu::core::Session;

const char* ActionName(Action action) {
  switch (action) {
    case Action::kLoad:
      return "load";
    case Action::kOpen:
      return "open";
    case Action::kSelectTheme:
      return "select_theme";
    case Action::kZoom:
      return "zoom";
    case Action::kProject:
      return "project";
    case Action::kHighlight:
      return "highlight";
    case Action::kHighlightDetail:
      return "highlight_detail";
    case Action::kInspect:
      return "inspect";
    case Action::kRollback:
      return "rollback";
    case Action::kClose:
      return "close";
  }
  return "unknown";
}

bool IsMapAction(Action action) {
  return action == Action::kOpen || action == Action::kSelectTheme ||
         action == Action::kZoom || action == Action::kProject;
}

namespace {

void MixInto(uint64_t* h, const std::string& s) {
  *h = HashMix(*h, s.size());
  for (unsigned char c : s) *h = HashMix(*h, c);
}

/// Excursions per round. Round 0 walks one fresh path per theme; later
/// rounds replay those paths (cache hits) and project onto other themes.
constexpr size_t kRound = 4;

/// Draws made per excursion: the row quantiles of the three zooms (one set
/// per path) and of the Inspect, and the highlighted column.
enum DrawKind { kZoom0, kZoom1, kZoom2, kInspect, kColumn, kDrawKinds };
/// Weyl-sequence steps (fractional parts of irrationals), one per kind, so
/// the draws of a run's excursions are equidistributed in [0, 1).
constexpr double kDrawStep[kDrawKinds] = {
    0.6180339887498949,  // (sqrt(5) - 1) / 2
    0.4142135623730951,  // sqrt(2) - 1
    0.7320508075688772,  // sqrt(3) - 1
    0.2360679774997897,  // sqrt(5) - 2
    0.3027756377319946,  // (sqrt(13) - 3) / 2
};

/// One session's replay state.
class SessionRun {
 public:
  SessionRun(Explorer* explorer, const ScriptOptions& options, size_t index,
             ReplayLog* log)
      : explorer_(explorer),
        options_(options),
        log_(log),
        first_path_(index * kRound),
        first_draw_(index * kExcursions) {
    Rng rng(HashMix(blaeu::core::kFnvOffset, options.seed));
    for (double& u : offset_) u = rng.NextDouble();
    theme_start_ = static_cast<size_t>(rng.NextBounded(4)) + index;
  }

  SessionRecord Run();

 private:
  /// Times `call` as `action` (under a bench.<action> root span when
  /// tracing), counts its Status and appends `label` to the trail. Returns
  /// whether the call succeeded.
  template <typename Call>
  bool Timed(Action action, const std::string& label, Call&& call);

  /// Output checks and digest for the map the last map action produced.
  void CheckMap(const std::string& label, bool cold);

  /// The leaf of the current map that holds the row at quantile `q` when
  /// the selection's rows are ordered leaf by leaf: leaves are weighted by
  /// their tuple counts, so nearby quantiles pick the same leaf and a
  /// quasi-random sequence of quantiles visits leaves in proportion to their
  /// rows. -1 when no leaf holds a row.
  int PickLeaf(double q);

  /// The g-th draw of `kind` in the run: u + g * step (mod 1), with u
  /// drawn from the seed.
  double Draw(int kind, size_t g) const {
    const double q = offset_[kind] + static_cast<double>(g) * kDrawStep[kind];
    return q - std::floor(q);
  }

  bool Excursion(size_t e);

  void Fail(const std::string& what) { log_->errors.push_back(what); }

  Explorer* explorer_;
  const ScriptOptions& options_;
  ReplayLog* log_;
  Session* session_ = nullptr;
  SessionRecord record_;
  const size_t first_path_;  ///< run-wide index of this session's path 0
  const size_t first_draw_;  ///< run-wide index of this session's excursion 0
  double offset_[kDrawKinds] = {};
  size_t theme_start_ = 0;
  size_t num_themes_ = 1;
};

template <typename Call>
bool SessionRun::Timed(Action action, const std::string& label, Call&& call) {
  ActionRecord rec;
  rec.action = action;
  Status status;
  {
    blaeu::obs::Span span(options_.tracer,
                          std::string("bench.") + ActionName(action));
    const auto start = std::chrono::steady_clock::now();
    status = call();
    rec.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    if (status.ok() && IsMapAction(action)) {
      rec.cold = session_->current().map.resources.cache_hits == 0;
      rec.selection_rows = session_->current().selection.size();
      span.SetAttr("selection_rows", rec.selection_rows);
      span.SetAttr("cold", rec.cold ? 1 : 0);
    }
  }
  log_->attempted++;
  log_->trail.push_back(label);
  MixInto(&log_->digest, label);
  if (!status.ok()) {
    log_->failed++;
    Fail(label + " failed: " + status.ToString());
    return false;
  }
  record_.actions.push_back(rec);
  record_.wait_s += rec.ms / 1e3;
  if (options_.tracer != nullptr && explorer_->cache() != nullptr) {
    log_->cache_bytes_max =
        std::max(log_->cache_bytes_max, explorer_->cache()->stats().bytes);
  }
  if (IsMapAction(action)) CheckMap(label, rec.cold);
  return true;
}

void SessionRun::CheckMap(const std::string& label, bool cold) {
  const blaeu::core::NavState& cur = session_->current();
  const blaeu::core::DataMap& map = cur.map;
  if (map.root().tuple_count != cur.selection.size()) {
    Fail(label + ": root tuple_count " +
         std::to_string(map.root().tuple_count) + " != selection size " +
         std::to_string(cur.selection.size()));
  }
  MixInto(&log_->digest, blaeu::core::CanonicalMapJson(map));
  if (!cold) return;
  log_->cold_maps++;
  if (map.regions.size() == 1) log_->trivial_maps++;
  size_t in_leaves = 0;
  for (int leaf : map.LeafIds()) in_leaves += map.region(leaf).tuple_count;
  if (in_leaves < map.root().tuple_count) {
    log_->rows_outside_leaves +=
        static_cast<int64_t>(map.root().tuple_count - in_leaves);
  }
}

int SessionRun::PickLeaf(double q) {
  const blaeu::core::DataMap& map = session_->current().map;
  const std::vector<int> leaves = map.LeafIds();
  size_t total = 0;
  for (int leaf : leaves) total += map.region(leaf).tuple_count;
  if (total == 0) return -1;
  const double target = q * static_cast<double>(total);
  size_t covered = 0;
  for (int leaf : leaves) {
    covered += map.region(leaf).tuple_count;
    if (target < static_cast<double>(covered)) return leaf;
  }
  return leaves.back();
}

bool SessionRun::Excursion(size_t e) {
  const size_t path = e % kRound;
  const size_t theme = (theme_start_ + path) % num_themes_;
  const size_t project_theme = (theme + 1 + e / kRound) % num_themes_;
  if (!Timed(Action::kSelectTheme,
             "select_theme(" + std::to_string(theme) + ")",
             [&] { return session_->SelectTheme(theme); })) {
    return false;
  }
  for (int z = 0; z < 3; ++z) {
    const int leaf = PickLeaf(Draw(kZoom0 + z, first_path_ + path));
    if (leaf <= 0) {  // a single-region map has nothing to zoom into
      log_->trail.push_back("zoom(none)");
      break;
    }
    const blaeu::core::NavState& cur = session_->current();
    const size_t expected = cur.map.region(leaf).tuple_count;
    if (options_.tracer != nullptr) {
      blaeu::obs::Span span(options_.tracer, "monet.predicate.eval");
      const auto start = std::chrono::steady_clock::now();
      auto view = session_->table().ProjectNames(cur.columns);
      if (view.ok()) {
        auto rows =
            cur.map.region(leaf).predicate.EvaluateOn(**view, cur.selection);
        if (!rows.ok()) Fail("predicate eval: " + rows.status().ToString());
      }
      log_->predicate_eval_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
      log_->predicate_rows_in += static_cast<int64_t>(cur.selection.size());
      span.SetAttr("rows_in", cur.selection.size());
    }
    const std::string label = "zoom(" + std::to_string(leaf) + ")";
    if (!Timed(Action::kZoom, label, [&] { return session_->Zoom(leaf); })) {
      return false;
    }
    if (session_->current().selection.size() != expected) {
      Fail(label + ": selection size " +
           std::to_string(session_->current().selection.size()) +
           " != region tuple_count " + std::to_string(expected));
    }
  }
  if (!Timed(Action::kProject,
             "project(" + std::to_string(project_theme) + ")",
             [&] { return session_->Project(project_theme); })) {
    return false;
  }
  // Highlight a non-key column: the columns the themes were built from.
  const std::vector<size_t>& columns = session_->themes().graph_columns;
  const std::string column =
      session_->table()
          .schema()
          .field(columns[static_cast<size_t>(Draw(kColumn, first_draw_ + e) * columns.size())])
          .name;
  if (!Timed(Action::kHighlight, "highlight(" + column + ")",
             [&] { return session_->Highlight(column).status(); }) ||
      !Timed(Action::kHighlightDetail, "highlight_detail(" + column + ")",
             [&] { return session_->HighlightDetail(column).status(); })) {
    return false;
  }
  const int leaf = std::max(PickLeaf(Draw(kInspect, first_draw_ + e)), 0);
  if (!Timed(Action::kInspect, "inspect(" + std::to_string(leaf) + ")",
             [&] { return session_->Inspect(leaf).status(); })) {
    return false;
  }
  return Timed(Action::kRollback, "rollback(0)",
               [&] { return session_->RollbackTo(0); });
}

SessionRecord SessionRun::Run() {
  if (!options_.csv_path.empty() &&
      !Timed(Action::kLoad, "load", [&] {
        return explorer_->LoadCsv(options_.csv_path, kTableName);
      })) {
    return std::move(record_);
  }
  const bool opened = Timed(Action::kOpen, "open", [&]() -> Status {
    auto session = explorer_->OpenSession(kTableName);
    if (!session.ok()) return session.status();
    session_ = *session;
    return Status::OK();
  });
  if (!opened) return std::move(record_);

  // Paths walk the first four themes from a seeded start that moves by one
  // each session, so every theme pairs evenly with the run's row draws.
  num_themes_ = std::min<size_t>(4, session_->themes().size());
  for (size_t e = 0; e < kExcursions; ++e) {
    if (!Excursion(e)) break;
  }
  Timed(Action::kClose, "close", [&] {
    session_ = nullptr;
    return explorer_->CloseSession(kTableName);
  });
  return std::move(record_);
}

}  // namespace

SessionRecord RunSession(Explorer* explorer, const ScriptOptions& options,
                         size_t index, ReplayLog* log) {
  return SessionRun(explorer, options, index, log).Run();
}

}  // namespace navbench
