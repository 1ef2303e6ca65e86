#include "core/map_builder.h"

#include <algorithm>

#include "cluster/clara.h"
#include "cluster/clustering.h"
#include "cluster/kselect.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "monet/sampling.h"
#include "tree/cart.h"

namespace blaeu::core {

using monet::SelectionVector;
using monet::Table;
using monet::TablePtr;

namespace {

/// The description tree: depth 4 keeps a map readable, and each leaf holds
/// at least 8 sampled rows.
constexpr tree::CartOptions kTreeOptions{/*max_depth=*/4,
                                         /*min_samples_leaf=*/8};

/// The map's clustering (paper §3): a CLARA k sweep over k in
/// [2, min(k_max, n - 1)], or over [fixed_k, fixed_k], with each candidate
/// scored by the medoid silhouette of its final assignment over the whole
/// sample, which costs no distance beyond CLARA's own. Unlike
/// SelectKWithPam, a degenerate partition is not forced to -1: that rule
/// would change which k wins. `features` has at least 4 rows (fewer make a
/// trivial map).
Result<cluster::KSelectResult> RunClustering(const stats::Matrix& features,
                                             const MapOptions& options,
                                             int64_t* evals) {
  const size_t n = features.rows();
  const size_t lo = options.fixed_k > 0 ? options.fixed_k : 2;
  const size_t hi =
      options.fixed_k > 0 ? options.fixed_k : std::min(options.k_max, n - 1);
  for (size_t k = lo; k <= hi; ++k) *evals += cluster::ClaraDistanceCount(n, k);
  return cluster::SweepK(
      lo, hi,
      [&](size_t k) { return cluster::Clara(features, k, options.seed); },
      [](size_t, const cluster::ClusteringResult& r) {
        return r.medoid_silhouette;
      },
      options.num_threads);
}

/// Builds map regions from the CART tree: one region per tree node, with
/// edge predicates from the branch conditions.
void BuildRegions(const tree::CartModel& model, const tree::CartNode& node,
                  int parent_id, const monet::Conjunction& path,
                  DataMap* map) {
  MapRegion region;
  region.id = static_cast<int>(map->regions.size());
  region.parent = parent_id;
  region.predicate = path;
  if (parent_id >= 0) {
    map->regions[parent_id].children.push_back(region.id);
  }
  int id = region.id;
  if (node.is_leaf) {
    region.cluster_label = node.label;
    map->regions.push_back(std::move(region));
    return;
  }
  map->regions.push_back(std::move(region));
  monet::Condition left_cond = model.BranchCondition(node, true);
  monet::Condition right_cond = model.BranchCondition(node, false);
  {
    monet::Conjunction left_path = path;
    left_path.Add(left_cond);
    monet::Conjunction left_edge;
    left_edge.Add(left_cond);
    size_t child_pos = map->regions.size();
    BuildRegions(model, *node.left, id, left_path, map);
    map->regions[child_pos].edge = left_edge;
  }
  {
    monet::Conjunction right_path = path;
    right_path.Add(right_cond);
    monet::Conjunction right_edge;
    right_edge.Add(right_cond);
    size_t child_pos = map->regions.size();
    BuildRegions(model, *node.right, id, right_path, map);
    map->regions[child_pos].edge = right_edge;
  }
}

/// Builds the map and fills its ResourceProfile; the public BuildMap wraps
/// this with the flight-recorder events (success and error alike).
Result<DataMap> BuildMapImpl(const Table& table, const SelectionVector& sel,
                             const std::vector<std::string>& columns,
                             const MapOptions& options,
                             const monet::MultiScaleSampler* sampler) {
  if (columns.empty()) return Status::Invalid("no active columns");
  if (sel.empty()) return Status::Invalid("empty selection");

  obs::Tracer* tracer =
      options.tracer != nullptr ? options.tracer : &obs::Tracer::Global();
  obs::MetricsRegistry* metrics = options.metrics != nullptr
                                      ? options.metrics
                                      : &obs::MetricsRegistry::Global();
  obs::Span build_span(tracer, "core.map.build", metrics);
  build_span.SetAttr("selection_rows", sel.size());
  build_span.SetAttr("columns", columns.size());
  const size_t threads = EffectiveNumThreads(options.num_threads);
  build_span.SetAttr("threads", threads);
  metrics->counter("core.map.builds")->Increment();

  // Resource accounting for this one build (obs/resource.h): the profile
  // travels with the map and aggregates into the registry at the end.
  obs::ResourceProfile res;
  auto finalize = [&](DataMap* m) {
    res.cart_nodes = static_cast<int64_t>(m->regions.size());
    m->build_seconds = build_span.ElapsedSeconds();
    m->resources = res;
    res.ReportTo(metrics);
  };

  BLAEU_ASSIGN_OR_RETURN(TablePtr view, table.ProjectNames(columns));

  // 1. Sample the selection (paper: a few thousand tuples per map). A
  // session's sampler first narrows a large selection to 4 x sample_size
  // rows of its shared permutation.
  Rng rng(options.seed);
  SelectionVector sample;
  {
    obs::Span span(tracer, "core.map.sample", metrics);
    const size_t k = options.sample_size;
    if (sampler != nullptr && k > 0 && sel.size() > 4 * k) {
      sample = monet::SampleFromSelection(sampler->SampleAtMost(sel, 4 * k),
                                          k, &rng);
    } else if (k > 0 && sel.size() > k) {
      sample = monet::SampleFromSelection(sel, k, &rng);
    } else {
      sample = sel;
    }
    span.SetAttr("rows_in", sel.size());
    span.SetAttr("rows_sampled", sample.size());
  }
  res.rows_scanned = static_cast<int64_t>(sample.size());

  // 2. Preprocess into vectors. A selection whose columns are all constant
  // (e.g. after zooming into a single-category region) yields a trivial
  // one-region map instead of an error: the user can still highlight,
  // inspect and roll back.
  Result<PreprocessedData> pre_or = [&]() -> Result<PreprocessedData> {
    obs::Span span(tracer, "core.map.preprocess", metrics);
    span.SetAttr("threads", threads);
    auto result = Preprocess(*view, sample, options.num_threads);
    if (result.ok()) {
      span.SetAttr("feature_rows", result.ValueOrDie().features.rows());
      span.SetAttr("feature_cols", result.ValueOrDie().features.cols());
    }
    return result;
  }();
  DataMap map;
  map.active_columns = columns;
  map.total_tuples = sel.size();
  if (!pre_or.ok()) {
    MapRegion root;
    root.id = 0;
    root.tuple_count = sel.size();
    root.cluster_label = 0;
    map.regions.push_back(std::move(root));
    map.num_clusters = 1;
    map.sample_size = sample.size();
    map.algorithm = "trivial";
    finalize(&map);
    return map;
  }
  PreprocessedData pre = std::move(pre_or).ValueOrDie();
  map.sample_size = pre.features.rows();
  res.cells_materialized =
      static_cast<int64_t>(pre.features.rows() * pre.features.cols());
  // The feature matrix lives until the end of the build.
  res.peak_scratch_bytes = res.cells_materialized *
                           static_cast<int64_t>(sizeof(double));

  // Degenerate inputs (too few distinct tuples to split) yield a one-region
  // map rather than an error: the user can still highlight and inspect.
  if (pre.features.rows() < 4) {
    MapRegion root;
    root.id = 0;
    root.tuple_count = sel.size();
    root.cluster_label = 0;
    if (!pre.rows.empty()) {
      root.medoid_row = pre.rows[0];
      root.has_medoid = true;
    }
    map.regions.push_back(std::move(root));
    map.num_clusters = 1;
    map.algorithm = "trivial";
    finalize(&map);
    return map;
  }

  // 3. Cluster the vectors.
  cluster::KSelectResult swept;
  {
    obs::Span span(tracer, "core.map.cluster", metrics);
    span.SetAttr("threads", threads);
    BLAEU_ASSIGN_OR_RETURN(swept,
                           RunClustering(pre.features, options,
                                         &res.distance_evaluations));
    span.SetAttr("k", swept.best.num_clusters());
    span.SetAttr("silhouette", swept.best_score);
  }
  const cluster::ClusteringResult& clustering = swept.best;
  map.num_clusters = clustering.num_clusters();
  map.silhouette = swept.best_score;
  map.algorithm = "clara";
  metrics->histogram("core.map.silhouette")->Observe(swept.best_score);

  // 4. Describe the clusters with a decision tree on the original columns.
  Result<tree::CartModel> model_or = [&]() -> Result<tree::CartModel> {
    obs::Span span(tracer, "core.map.describe", metrics);
    span.SetAttr("threads", threads);
    BLAEU_ASSIGN_OR_RETURN(
        tree::CartModel model,
        tree::CartModel::Train(*view, pre.rows, clustering.labels,
                               kTreeOptions, options.num_threads));
    map.tree_fidelity = model.fidelity();
    span.SetAttr("fidelity", map.tree_fidelity);
    return model;
  }();
  if (!model_or.ok()) return model_or.status();
  const tree::CartModel& model = *model_or;

  // 5. Assemble the region hierarchy from the tree.
  {
    obs::Span span(tracer, "core.map.assemble", metrics);
    BuildRegions(model, model.root(), -1, monet::Conjunction(), &map);
    span.SetAttr("regions", map.regions.size());
  }

  // 6. Tuple counts over the FULL selection (RegionRows).
  {
    obs::Span span(tracer, "core.map.count", metrics);
    span.SetAttr("threads", threads);
    BLAEU_ASSIGN_OR_RETURN(std::vector<SelectionVector> region_rows,
                           RegionRows(*view, map, sel, options.num_threads));
    for (MapRegion& region : map.regions) {
      region.tuple_count = region_rows[region.id].size();
      // region_rows lives beside the feature matrix until this block ends.
      res.peak_scratch_bytes += static_cast<int64_t>(
          region.tuple_count * sizeof(uint32_t));
      // Each non-root region evaluated its edge over its parent's row set.
      if (region.parent >= 0) {
        res.rows_counted +=
            static_cast<int64_t>(region_rows[region.parent].size());
      }
    }
    span.SetAttr("rows_counted", sel.size());
  }

  // 7. Attach cluster medoids to leaves.
  for (MapRegion& region : map.regions) {
    if (!region.is_leaf() || region.cluster_label < 0) continue;
    size_t c = static_cast<size_t>(region.cluster_label);
    if (c < clustering.medoids.size()) {
      region.medoid_row = pre.rows[clustering.medoids[c]];
      region.has_medoid = true;
    }
  }
  finalize(&map);
  return map;
}

}  // namespace

Result<std::vector<SelectionVector>> RegionRows(const Table& table,
                                                const DataMap& map,
                                                const SelectionVector& sel,
                                                size_t num_threads) {
  std::vector<SelectionVector> rows(map.regions.size());
  std::vector<Status> status(map.regions.size());
  std::vector<int> level;  // the region ids of one tree level
  for (const MapRegion& region : map.regions) {
    if (region.parent < 0) {
      rows[region.id] = sel;
      level.push_back(region.id);
    }
  }
  while (!level.empty()) {
    std::vector<int> next;
    for (int id : level) {
      const std::vector<int>& children = map.regions[id].children;
      next.insert(next.end(), children.begin(), children.end());
    }
    // The regions of one level read only their parents' rows and write
    // disjoint slots.
    ParallelFor(
        0, next.size(), 1,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            const MapRegion& region = map.regions[next[i]];
            auto edge_rows = region.edge.EvaluateOn(table, rows[region.parent]);
            if (!edge_rows.ok()) {
              status[region.id] = edge_rows.status();
              continue;
            }
            rows[region.id] = std::move(edge_rows).ValueOrDie();
          }
        },
        num_threads);
    for (int id : next) BLAEU_RETURN_NOT_OK(status[id]);
    level = std::move(next);
  }
  return rows;
}

Result<DataMap> BuildMap(const Table& table, const SelectionVector& sel,
                         const std::vector<std::string>& columns,
                         const MapOptions& options,
                         const monet::MultiScaleSampler* sampler) {
  Result<DataMap> result = BuildMapImpl(table, sel, columns, options, sampler);
  obs::FlightRecorder* flight = options.flight != nullptr
                                    ? options.flight
                                    : &obs::FlightRecorder::Global();
  if (!result.ok()) {
    flight->Record(obs::FlightEventKind::kError, "core.map.build",
                   {{"status", result.status().ToString()},
                    {"rows", std::to_string(sel.size())}});
    return result;
  }
  const DataMap& map = *result;
  flight->Record(
      obs::FlightEventKind::kMapBuilt, "core.map.build",
      {{"rows", std::to_string(map.total_tuples)},
       {"sample", std::to_string(map.sample_size)},
       {"k", std::to_string(map.num_clusters)},
       {"algorithm", map.algorithm},
       {"ms", std::to_string(map.build_seconds * 1e3)}});
  return result;
}

Result<DataMap> BuildMap(const Table& table, const MapOptions& options) {
  std::vector<std::string> columns;
  for (const auto& f : table.schema().fields()) columns.push_back(f.name);
  return BuildMap(table, SelectionVector::All(table.num_rows()), columns,
                  options);
}

}  // namespace blaeu::core
