// Golden-map regression suite: canonical map JSON for fixed-seed workloads
// is pinned in tests/golden/ and compared byte-for-byte. Any change to the
// sampling, preprocessing, clustering, tree or seed-derivation code that
// moves a map shows up here as a readable JSON diff instead of a silent
// behaviour shift.
//
// Regenerating (after an INTENTIONAL map change):
//   BLAEU_REGEN_GOLDEN=1 ./build/golden_map_test
// then review the tests/golden/*.json diff and commit it with the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/navigation.h"
#include "core/render.h"
#include "monet/column_stats.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"

namespace blaeu::core {
namespace {

#ifndef BLAEU_TESTS_DIR
#error "BLAEU_TESTS_DIR must be defined by the build (see CMakeLists.txt)"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(BLAEU_TESTS_DIR) + "/golden/" + name;
}

bool RegenMode() {
  const char* env = std::getenv("BLAEU_REGEN_GOLDEN");
  return env != nullptr && *env != '\0';
}

/// Compares `actual` against the fixture (or rewrites it in regen mode).
void CheckGolden(const std::string& fixture, const std::string& actual) {
  const std::string path = GoldenPath(fixture);
  if (RegenMode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (run with BLAEU_REGEN_GOLDEN=1 to create it)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  // Fixtures end with a trailing newline; the canonical JSON does not.
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(expected, actual)
      << "map drifted from " << path
      << " — if intentional, regenerate with BLAEU_REGEN_GOLDEN=1";
}

SessionOptions FixedOptions() {
  SessionOptions opt;
  opt.map.sample_size = 400;
  opt.map.k_max = 4;
  opt.seed = 42;
  return opt;
}

/// The leaf below the root holding the most tuples (-1 if the map is a
/// single region).
int LargestLeaf(const DataMap& map) {
  int biggest = -1;
  size_t biggest_count = 0;
  for (int leaf : map.LeafIds()) {
    const MapRegion& r = map.region(leaf);
    if (r.parent >= 0 && r.tuple_count > biggest_count) {
      biggest = leaf;
      biggest_count = r.tuple_count;
    }
  }
  return biggest;
}

/// What the highlight action shows on the current map: the highlight of
/// every non-key column, then the per-region frequency bars of every
/// string column, in the REPL's `detail` layout.
std::string HighlightDump(const Session& s, const monet::Table& table) {
  const std::vector<size_t> keys = monet::DetectPrimaryKeyColumns(table);
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (std::find(keys.begin(), keys.end(), c) != keys.end()) continue;
    auto h = s.Highlight(table.schema().field(c).name);
    EXPECT_TRUE(h.ok());
    if (h.ok()) out += RenderHighlight(*h);
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const monet::Field& field = table.schema().field(c);
    if (field.type != monet::DataType::kString) continue;
    auto d = s.HighlightDetail(field.name);
    EXPECT_TRUE(d.ok());
    if (!d.ok()) continue;
    out += "Detail '" + field.name + "':\n";
    for (const RegionDetail& r : d->regions) {
      out += "-- region " + std::to_string(r.region_id) + " (" +
             std::to_string(r.tuple_count) + " tuples) --\n" + r.rendering;
    }
  }
  return out;
}

TEST(GoldenMapTest, GaussianMixtureInitialMap) {
  workloads::MixtureSpec spec;
  spec.rows = 600;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  spec.seed = 42;
  auto data = workloads::MakeGaussianMixture(spec);
  auto session = Session::Start(data.table, "mixture", FixedOptions());
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  CheckGolden("gaussian_map.json", CanonicalMapJson(s.current().map));
}

TEST(GoldenMapTest, GaussianMixtureZoomSequence) {
  // Locks in the whole navigation path, including the state-derived map
  // seeds: zoom into the largest leaf, then the map after rollback.
  workloads::MixtureSpec spec;
  spec.rows = 1200;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  spec.seed = 42;
  auto data = workloads::MakeGaussianMixture(spec);
  auto session = Session::Start(data.table, "mixture", FixedOptions());
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  const int biggest = LargestLeaf(s.current().map);
  ASSERT_GE(biggest, 0);
  ASSERT_TRUE(s.Zoom(biggest).ok());
  CheckGolden("gaussian_zoom_map.json", CanonicalMapJson(s.current().map));
  ASSERT_TRUE(s.Rollback().ok());
  // After rollback the current map is the initial one again, bit-identical.
  CheckGolden("gaussian_rollback_map.json",
              CanonicalMapJson(s.current().map));
}

TEST(GoldenMapTest, LofarInitialMap) {
  workloads::LofarSpec spec;
  spec.rows = 4000;  // small slice of the paper's catalog, fixed seed
  spec.seed = 42;
  auto data = workloads::MakeLofar(spec);
  auto session = Session::Start(data.table, "lofar", FixedOptions());
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  CheckGolden("lofar_map.json", CanonicalMapJson(s.current().map));
}

TEST(GoldenMapTest, HollywoodInitialMap) {
  auto data = workloads::MakeHollywood();
  auto session = Session::Start(data.table, "hollywood", FixedOptions());
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  CheckGolden("hollywood_map.json", CanonicalMapJson(s.current().map));
}

TEST(GoldenMapTest, HighlightRenderings) {
  // Pins every per-value count the highlight action shows (the most
  // frequent values, distinct counts, moments and frequency bars of each
  // column type) at the root and after zooming into the largest leaf.
  workloads::LofarSpec lofar;
  lofar.rows = 4000;
  lofar.seed = 42;
  const std::pair<std::string, monet::TablePtr> tables[] = {
      {"hollywood", workloads::MakeHollywood().table},
      {"lofar", workloads::MakeLofar(lofar).table}};
  std::string dump;
  for (const auto& [name, table] : tables) {
    auto session = Session::Start(table, name, FixedOptions());
    ASSERT_TRUE(session.ok());
    Session s = std::move(session).ValueOrDie();
    dump += "== " + name + " root ==\n" + HighlightDump(s, *table);
    const int biggest = LargestLeaf(s.current().map);
    ASSERT_GE(biggest, 0);
    ASSERT_TRUE(s.Zoom(biggest).ok());
    dump += "== " + name + " zoom " + std::to_string(biggest) + " ==\n" +
            HighlightDump(s, *table);
  }
  CheckGolden("highlight.txt", dump);
}

TEST(GoldenMapTest, CanonicalJsonExcludesTimingFields) {
  DataMap map;
  MapRegion root;
  root.id = 0;
  root.tuple_count = 1;
  map.regions.push_back(root);
  map.build_seconds = 123.456;
  std::string canonical = CanonicalMapJson(map);
  EXPECT_EQ(canonical.find("build_seconds"), std::string::npos);
  EXPECT_NE(canonical.find("medoid_row"), std::string::npos);
  // The non-canonical renderer keeps the timing field.
  EXPECT_NE(MapToJson(map).find("build_seconds"), std::string::npos);
}

}  // namespace
}  // namespace blaeu::core
