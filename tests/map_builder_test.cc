// Unit tests for the map builder (Figure 3 pipeline + Figure 1b model).
#include "core/map_builder.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/rng.h"
#include "core/theme.h"
#include "monet/sampling.h"
#include "stats/metrics.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"

namespace blaeu::core {
namespace {

using monet::SelectionVector;

workloads::Dataset Mixture(size_t rows, size_t k, uint64_t seed) {
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = k;
  spec.dims = 4;
  spec.separation = 8.0;
  spec.seed = seed;
  return workloads::MakeGaussianMixture(spec);
}

std::vector<std::string> ColumnNames(const monet::Table& t) {
  std::vector<std::string> names;
  for (const auto& f : t.schema().fields()) names.push_back(f.name);
  return names;
}

TEST(MapBuilderTest, RecoversPlantedClustersThroughLeafRegions) {
  auto data = Mixture(600, 3, 1);
  MapOptions opt;
  opt.fixed_k = 3;
  auto map = *BuildMap(*data.table, opt);
  EXPECT_EQ(map.num_clusters, 3u);
  // Assign each row to its leaf region; compare against planted truth.
  std::vector<int> predicted(600, -1);
  for (int leaf : map.LeafIds()) {
    const MapRegion& region = map.region(leaf);
    auto sel = *region.predicate.Evaluate(*data.table);
    for (uint32_t r : sel.rows()) predicted[r] = leaf;
  }
  EXPECT_GT(stats::AdjustedRandIndex(predicted, data.truth.row_clusters),
            0.9);
}

TEST(MapBuilderTest, RegionsFormATree) {
  auto data = Mixture(400, 3, 2);
  auto map = *BuildMap(*data.table);
  ASSERT_FALSE(map.regions.empty());
  EXPECT_EQ(map.root().parent, -1);
  for (const MapRegion& r : map.regions) {
    for (int child : r.children) {
      EXPECT_EQ(map.region(child).parent, r.id);
    }
    // Internal nodes have exactly two children (binary CART splits).
    if (!r.is_leaf()) {
      EXPECT_EQ(r.children.size(), 2u);
    }
  }
}

TEST(MapBuilderTest, ChildCountsPartitionParent) {
  auto data = Mixture(500, 3, 3);
  MapOptions opt;
  opt.sample_size = 0;  // exact counts: no sampling noise
  opt.fixed_k = 3;
  auto map = *BuildMap(*data.table, opt);
  for (const MapRegion& r : map.regions) {
    if (r.is_leaf()) continue;
    size_t child_total = 0;
    for (int c : r.children) child_total += map.region(c).tuple_count;
    EXPECT_EQ(child_total, r.tuple_count)
        << "region " << r.id << " children do not partition it";
  }
  EXPECT_EQ(map.root().tuple_count, 500u);
}

TEST(MapBuilderTest, LeafAreasMatchFigureOneSemantics) {
  // "The area of the leaves shows the number of tuples covered": leaf
  // counts must sum to the selection size.
  auto data = Mixture(450, 4, 4);
  MapOptions opt;
  opt.sample_size = 0;
  auto map = *BuildMap(*data.table, opt);
  size_t total = 0;
  for (int leaf : map.LeafIds()) total += map.region(leaf).tuple_count;
  EXPECT_EQ(total, 450u);
}

TEST(MapBuilderTest, EdgePredicatesComposeIntoPathPredicate) {
  auto data = Mixture(300, 3, 5);
  auto map = *BuildMap(*data.table);
  for (const MapRegion& r : map.regions) {
    if (r.parent < 0) continue;
    // predicate == parent.predicate AND edge
    monet::Conjunction expected =
        map.region(r.parent).predicate.And(r.edge);
    EXPECT_EQ(r.predicate.ToSql(), expected.ToSql());
  }
}

TEST(MapBuilderTest, SamplingKeepsAccuracy) {
  // Experiment C2 in miniature: a sampled map recovers the same structure.
  auto data = Mixture(4000, 3, 6);
  MapOptions sampled;
  sampled.sample_size = 400;
  sampled.fixed_k = 3;
  auto map = *BuildMap(*data.table, sampled);
  EXPECT_EQ(map.sample_size, 400u);
  EXPECT_EQ(map.total_tuples, 4000u);
  std::vector<int> predicted(4000, -1);
  for (int leaf : map.LeafIds()) {
    auto sel = *map.region(leaf).predicate.Evaluate(*data.table);
    for (uint32_t r : sel.rows()) predicted[r] = leaf;
  }
  EXPECT_GT(stats::AdjustedRandIndex(predicted, data.truth.row_clusters),
            0.85);
}

TEST(MapBuilderTest, MedoidsAttachedToLeaves) {
  auto data = Mixture(300, 3, 7);
  MapOptions opt;
  opt.fixed_k = 3;
  auto map = *BuildMap(*data.table, opt);
  std::set<int> leaf_clusters;
  for (int leaf : map.LeafIds()) {
    const MapRegion& r = map.region(leaf);
    EXPECT_GE(r.cluster_label, 0);
    leaf_clusters.insert(r.cluster_label);
    if (r.has_medoid) {
      EXPECT_LT(r.medoid_row, 300u);
    }
  }
  EXPECT_EQ(leaf_clusters.size(), 3u);
}

TEST(MapBuilderTest, TreeFidelityHighOnSeparatedData) {
  auto data = Mixture(500, 3, 8);
  auto map = *BuildMap(*data.table);
  EXPECT_GT(map.tree_fidelity, 0.9);
  EXPECT_GT(map.silhouette, 0.4);
}

TEST(MapBuilderTest, SelectionRestrictsMap) {
  auto data = Mixture(400, 3, 12);
  SelectionVector sel = SelectionVector::All(200);
  auto map = *BuildMap(*data.table, sel, ColumnNames(*data.table));
  EXPECT_EQ(map.total_tuples, 200u);
  EXPECT_EQ(map.root().tuple_count, 200u);
}

TEST(MapBuilderTest, DegenerateTinySelectionYieldsTrivialMap) {
  auto data = Mixture(100, 2, 13);
  SelectionVector sel({0, 1});
  auto map = *BuildMap(*data.table, sel, ColumnNames(*data.table));
  EXPECT_EQ(map.regions.size(), 1u);
  EXPECT_EQ(map.algorithm, "trivial");
  EXPECT_EQ(map.root().tuple_count, 2u);
}

TEST(MapBuilderTest, InvalidInputsRejected) {
  auto data = Mixture(100, 2, 14);
  obs::MetricsRegistry metrics;
  MapOptions opt;
  opt.metrics = &metrics;
  EXPECT_FALSE(
      BuildMap(*data.table, SelectionVector::All(100), {}, opt).ok());
  EXPECT_FALSE(BuildMap(*data.table, SelectionVector(),
                        ColumnNames(*data.table), opt)
                   .ok());
  EXPECT_FALSE(
      BuildMap(*data.table, SelectionVector::All(100), {"ghost"}, opt).ok());
  // The unknown column fails after the build span opened: that build is
  // counted and timed alike.
  EXPECT_EQ(metrics.counter("core.map.builds")->value(), 1);
  EXPECT_EQ(metrics.histogram("core.map.build_seconds")->Snapshot().count,
            static_cast<uint64_t>(metrics.counter("core.map.builds")->value()));
}

TEST(MapBuilderTest, KSweepPicksPlantedK) {
  auto data = Mixture(500, 3, 15);
  MapOptions opt;
  opt.k_max = 6;
  auto map = *BuildMap(*data.table, opt);
  EXPECT_EQ(map.num_clusters, 3u);
}

TEST(MapBuilderTest, EmptyKRangeIsRejectedOnSmallAndLargeSelections) {
  // With k_max = 1 the range [2, k_max] is empty; the build must say so
  // instead of building from an empty sweep.
  auto small = Mixture(300, 3, 23);
  auto large = Mixture(2000, 3, 24);
  for (const workloads::Dataset* data : {&small, &large}) {
    SCOPED_TRACE(std::to_string(data->table->num_rows()) + " rows");
    MapOptions opt;
    opt.k_max = 1;
    auto map = BuildMap(*data->table, opt);
    ASSERT_FALSE(map.ok());
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(map.status().message().find("empty k range"),
              std::string::npos)
        << map.status().ToString();
  }
}

TEST(MapBuilderTest, ClaraBuildRunsOneKSweep) {
  // A default build sweeps k = 2..6 once, through SweepK, so the global
  // kselect counters see it, and the sweep's and each CLARA run's spans
  // observe their histograms there.
  auto data = Mixture(2000, 3, 25);
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  auto observations = [&](const char* name) {
    return global.histogram(name)->Snapshot().count;
  };
  const int64_t sweeps = global.counter("cluster.kselect.sweeps")->value();
  const int64_t candidates =
      global.counter("cluster.kselect.candidates")->value();
  const uint64_t sweep_seconds = observations("cluster.kselect.sweep_seconds");
  const uint64_t clara_seconds = observations("cluster.clara.run_seconds");
  auto map = *BuildMap(*data.table);
  EXPECT_EQ(map.algorithm, "clara");
  EXPECT_EQ(global.counter("cluster.kselect.sweeps")->value() - sweeps, 1);
  EXPECT_EQ(
      global.counter("cluster.kselect.candidates")->value() - candidates, 5);
  EXPECT_EQ(observations("cluster.kselect.sweep_seconds") - sweep_seconds, 1u);
  EXPECT_EQ(observations("cluster.clara.run_seconds") - clara_seconds, 5u);
}

TEST(MapBuilderTest, ScoringEachKCostsNoDistance) {
  // A default build's distance evaluations are its CLARA runs alone. Each
  // k in 2..6 draws 5 samples of 40 + 2k rows; each sample costs its
  // C(40 + 2k, 2) triangle and an n x k assignment of all n sampled rows,
  // and that assignment also scores k: 118,300 at n = 900 and 228,300 at
  // n = 2,000.
  const DataMap hollywood = *BuildMap(*workloads::MakeHollywood().table);
  EXPECT_EQ(hollywood.sample_size, 900u);
  EXPECT_EQ(hollywood.resources.distance_evaluations, 118300);
  workloads::LofarSpec spec;
  spec.rows = 8000;
  const DataMap lofar = *BuildMap(*workloads::MakeLofar(spec).table);
  EXPECT_EQ(lofar.sample_size, 2000u);
  EXPECT_EQ(lofar.resources.distance_evaluations, 228300);
}

TEST(MapBuilderTest, ClaraRunsAWholeSetSampleOnce) {
  // A sub-sample of min(40 + 2k, n) rows that is all n rows runs once, not
  // five times. At 40 rows that holds for every k in 2..6, so each k costs
  // one C(40, 2) triangle and a 40 x k assignment: 5 x 780 + 40 x 20 =
  // 4,700. At 50 rows it holds for k = 5 and 6 only: k = 2..4 still draw 5
  // samples of 44, 46 and 48 rows, 5 x (946 + 100 + 1,035 + 150 + 1,128 +
  // 200) = 17,795, and k = 5, 6 add 1,225 + 250 + 1,225 + 300 = 3,000.
  const DataMap forty = *BuildMap(*Mixture(40, 3, 26).table);
  EXPECT_EQ(forty.sample_size, 40u);
  EXPECT_EQ(forty.resources.distance_evaluations, 4700);
  const DataMap fifty = *BuildMap(*Mixture(50, 3, 27).table);
  EXPECT_EQ(fifty.sample_size, 50u);
  EXPECT_EQ(fifty.resources.distance_evaluations, 20795);
}

TEST(MapBuilderTest, SixteenRowsRarelyChooseTheLargestK) {
  // On 16 rows every k up to 6 clusters all of them. A medoid's own
  // silhouette term is 1 whatever the partition, so a mean that counted
  // the medoids would favour the largest k: it chose k = 6 on 16 of these
  // 60 Hollywood maps.
  const workloads::Dataset data = workloads::MakeHollywood();
  const monet::Table& table = *data.table;
  const ThemeSet themes = *DetectThemes(table);
  ASSERT_GE(themes.size(), 2u);
  size_t maps = 0, largest_k = 0;
  for (size_t t = 0; t < 2; ++t) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      Rng rng(seed);
      const SelectionVector sel = monet::SampleFromSelection(
          SelectionVector::All(table.num_rows()), 16, &rng);
      MapOptions opt;
      opt.seed = seed;
      const DataMap map = *BuildMap(table, sel, themes.theme(t).names, opt);
      ++maps;
      if (map.num_clusters == opt.k_max) ++largest_k;
    }
  }
  EXPECT_EQ(maps, 60u);
  EXPECT_LE(largest_k, 4u);
}

TEST(MapBuilderTest, BuildRecordsStageSpans) {
  auto data = Mixture(500, 3, 20);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  MapOptions opt;
  opt.fixed_k = 3;
  opt.sample_size = 200;
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  auto map = *BuildMap(*data.table, monet::SelectionVector::All(500),
                       ColumnNames(*data.table), opt);
  ASSERT_EQ(map.num_clusters, 3u);

  // The pipeline must record one root span with the four paper stages
  // (sample -> preprocess -> cluster -> describe) as its children, each
  // closed with a non-zero duration.
  auto spans = tracer.Finished();
  int build_id = -1;
  for (const auto& s : spans) {
    if (s.name == "core.map.build") build_id = s.id;
  }
  ASSERT_GE(build_id, 0);
  for (const char* stage :
       {"core.map.sample", "core.map.preprocess", "core.map.cluster",
        "core.map.describe"}) {
    bool found = false;
    for (const auto& s : spans) {
      if (s.name != stage) continue;
      found = true;
      EXPECT_EQ(s.parent, build_id) << stage;
      EXPECT_GT(s.duration_ns, 0) << stage;
    }
    EXPECT_TRUE(found) << "missing stage span " << stage;
  }
  // Cluster stage carries the chosen k as an attribute.
  for (const auto& s : spans) {
    if (s.name != "core.map.cluster") continue;
    bool has_k = false;
    for (const auto& [key, value] : s.attrs) {
      if (key == "k") {
        has_k = true;
        EXPECT_EQ(value, "3");
      }
    }
    EXPECT_TRUE(has_k);
  }
  // And the injected registry saw exactly this build.
  EXPECT_EQ(metrics.counter("core.map.builds")->value(), 1);
  EXPECT_EQ(metrics.histogram("core.map.build_seconds")->Snapshot().count,
            1u);
  // Chrome-trace export of a real build stays loadable (shape check).
  std::string trace = tracer.ToChromeTrace();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("core.map.cluster"), std::string::npos);
}

/// Field-by-field equality of two maps, with readable failure messages.
/// Everything the user can observe must match: regions, predicates, counts,
/// medoids and quality scores.
void ExpectMapsIdentical(const DataMap& a, const DataMap& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.silhouette, b.silhouette);  // bit-identical, not approximate
  EXPECT_EQ(a.tree_fidelity, b.tree_fidelity);
  EXPECT_EQ(a.sample_size, b.sample_size);
  EXPECT_EQ(a.total_tuples, b.total_tuples);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const MapRegion& ra = a.regions[i];
    const MapRegion& rb = b.regions[i];
    EXPECT_EQ(ra.parent, rb.parent) << "region " << i;
    EXPECT_EQ(ra.children, rb.children) << "region " << i;
    EXPECT_EQ(ra.predicate.ToSql(), rb.predicate.ToSql()) << "region " << i;
    EXPECT_EQ(ra.edge.ToSql(), rb.edge.ToSql()) << "region " << i;
    EXPECT_EQ(ra.tuple_count, rb.tuple_count) << "region " << i;
    EXPECT_EQ(ra.cluster_label, rb.cluster_label) << "region " << i;
    EXPECT_EQ(ra.has_medoid, rb.has_medoid) << "region " << i;
    if (ra.has_medoid && rb.has_medoid) {
      EXPECT_EQ(ra.medoid_row, rb.medoid_row) << "region " << i;
    }
  }
}

TEST(MapBuilderTest, ThreadCountDoesNotChangeTheMapOnGaussian) {
  // The parallel layer's core promise: 1 thread and 8 threads produce the
  // same map, bit for bit. Gaussian path: the CLARA k sweep over all 600
  // rows, whose k tasks run concurrently.
  auto data = Mixture(600, 3, 21);
  MapOptions serial;
  serial.num_threads = 1;
  MapOptions parallel = serial;
  parallel.num_threads = 8;
  auto map1 = *BuildMap(*data.table, serial);
  auto map8 = *BuildMap(*data.table, parallel);
  ExpectMapsIdentical(map1, map8);
}

TEST(MapBuilderTest, ThreadCountDoesNotChangeTheMapOnLofar) {
  // LOFAR path at a scaled-down operating point: sampling, CLARA k sweep
  // scored by the medoid silhouette, CART description, incremental region
  // counting.
  workloads::LofarSpec spec;
  spec.rows = 8000;
  spec.seed = 5;
  auto data = workloads::MakeLofar(spec);
  MapOptions serial;
  serial.sample_size = 2000;
  serial.seed = 99;
  serial.num_threads = 1;
  MapOptions parallel = serial;
  parallel.num_threads = 8;
  auto sel = SelectionVector::All(data.table->num_rows());
  auto columns = ColumnNames(*data.table);
  auto map1 = *BuildMap(*data.table, sel, columns, serial);
  auto map8 = *BuildMap(*data.table, sel, columns, parallel);
  EXPECT_EQ(map1.algorithm, "clara");
  ExpectMapsIdentical(map1, map8);
}

TEST(MapBuilderTest, RegionRowsEqualEachPredicateOnLofarAtPaperScale) {
  // LOFAR at 200k rows: about 2,000 NULLs in each of the 12 flux columns,
  // and theme 1 splits on the string column source_class at the root. For
  // the root map of each of the first 4 themes and one zoom into its
  // largest non-root region, every region's rows must equal its full
  // predicate run over the selection, at 1 and 4 threads.
  const workloads::Dataset data = workloads::MakeLofar();
  const monet::Table& table = *data.table;
  const ThemeSet themes = *DetectThemes(table);
  ASSERT_GE(themes.themes.size(), 4u);
  const SelectionVector all = SelectionVector::All(table.num_rows());
  MapOptions opt;
  opt.num_threads = 1;
  for (size_t t = 0; t < 4; ++t) {
    const std::vector<std::string>& columns = themes.themes[t].names;
    const DataMap root = *BuildMap(table, all, columns, opt);
    const std::vector<SelectionVector> root_rows =
        *RegionRows(table, root, all, 1);
    int largest = -1;
    for (const MapRegion& region : root.regions) {
      if (region.parent >= 0 &&
          (largest < 0 ||
           region.tuple_count > root.region(largest).tuple_count)) {
        largest = region.id;
      }
    }
    ASSERT_GE(largest, 0) << "theme " << t;
    if (t == 1) {
      const MapRegion& first = root.region(root.root().children.at(0));
      EXPECT_EQ(first.edge.conditions().at(0).column, "source_class");
    }
    const SelectionVector& zoomed = root_rows[largest];
    const DataMap zoom = *BuildMap(table, zoomed, columns, opt);
    for (const auto& [map, sel] :
         {std::pair(&root, &all), std::pair(&zoom, &zoomed)}) {
      for (size_t threads : {1, 4}) {
        const std::vector<SelectionVector> rows =
            *RegionRows(table, *map, *sel, threads);
        for (const MapRegion& region : map->regions) {
          EXPECT_EQ(rows[region.id].rows(),
                    region.predicate.EvaluateOn(table, *sel)->rows())
              << "theme " << t << ", " << sel->size() << " rows, region "
              << region.id << ": " << region.predicate.ToSql() << ", "
              << threads << " threads";
        }
      }
    }
  }
}

TEST(MapBuilderTest, ValidateRegionId) {
  auto data = Mixture(200, 2, 16);
  auto map = *BuildMap(*data.table);
  EXPECT_TRUE(map.ValidateRegionId(0).ok());
  EXPECT_FALSE(map.ValidateRegionId(-1).ok());
  EXPECT_FALSE(
      map.ValidateRegionId(static_cast<int>(map.regions.size())).ok());
}

}  // namespace
}  // namespace blaeu::core
