// Unit tests for the atlas (per-theme map overview) and map stability.
#include "core/atlas.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/theme.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

using monet::SelectionVector;

TEST(AtlasTest, OneEntryPerQualifyingTheme) {
  auto data = workloads::MakeTwoThemeMixture(600, 4, 3, 3, 1);
  auto themes = *DetectThemes(*data.table);
  MapOptions opt;
  opt.sample_size = 600;
  auto atlas = *BuildAtlas(*data.table,
                           SelectionVector::All(600), themes, opt);
  EXPECT_EQ(atlas.entries.size(), themes.size());
  for (const AtlasEntry& entry : atlas.entries) {
    EXPECT_GE(entry.map.num_clusters, 1u);
    EXPECT_EQ(entry.map.total_tuples, 600u);
  }
}

TEST(AtlasTest, MinColumnsFilters) {
  // Themes of fewer than kMinThemeColumns columns get no map, so an atlas
  // of single-column themes has nothing to show.
  auto data = workloads::MakeTwoThemeMixture(400, 3, 2, 2, 2);
  ThemeSet themes;
  for (size_t c = 0; c < data.table->num_columns(); ++c) {
    Theme theme;
    theme.id = static_cast<int>(c);
    theme.columns = {c};
    theme.names = {data.table->schema().field(c).name};
    themes.themes.push_back(theme);
  }
  auto atlas = BuildAtlas(*data.table, SelectionVector::All(400), themes,
                          MapOptions());
  EXPECT_FALSE(atlas.ok());
}

TEST(AtlasTest, StabilityHighOnSeparatedData) {
  workloads::MixtureSpec spec;
  spec.rows = 1200;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.separation = 10.0;
  auto data = workloads::MakeGaussianMixture(spec);
  std::vector<std::string> cols;
  for (const auto& f : data.table->schema().fields()) cols.push_back(f.name);
  MapOptions opt;
  opt.sample_size = 300;  // force real sampling variation
  opt.fixed_k = 3;
  double stability = *MapStability(*data.table,
                                   SelectionVector::All(1200), cols, opt, 3);
  EXPECT_GT(stability, 0.9);
}

TEST(AtlasTest, StabilityLowOnNoise) {
  // Pure noise: maps from different samples disagree.
  workloads::MixtureSpec spec;
  spec.rows = 1200;
  spec.num_clusters = 1;
  spec.dims = 4;
  auto data = workloads::MakeGaussianMixture(spec);
  std::vector<std::string> cols;
  for (const auto& f : data.table->schema().fields()) cols.push_back(f.name);
  MapOptions opt;
  opt.sample_size = 300;
  opt.fixed_k = 3;  // forced spurious clusters
  double stability = *MapStability(*data.table,
                                   SelectionVector::All(1200), cols, opt, 3);
  EXPECT_LT(stability, 0.9);
}

TEST(AtlasTest, StabilityDisabledReturnsZero) {
  workloads::MixtureSpec spec;
  spec.rows = 200;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  std::vector<std::string> cols;
  for (const auto& f : data.table->schema().fields()) cols.push_back(f.name);
  EXPECT_DOUBLE_EQ(*MapStability(*data.table, SelectionVector::All(200),
                                 cols, {}, 1),
                   0.0);
}

TEST(AtlasTest, StabilityValuesArePinned) {
  // MapStability's values on the tables above, bit for bit: the separated
  // mixture over all rows, the noise over every third row, and a mixture
  // with NULL cells, where rows that no leaf claims take label -1.
  auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  auto columns = [](const monet::Table& table) {
    std::vector<std::string> cols;
    for (const auto& f : table.schema().fields()) cols.push_back(f.name);
    return cols;
  };
  MapOptions fixed;
  fixed.sample_size = 300;
  fixed.fixed_k = 3;

  workloads::MixtureSpec separated;
  separated.rows = 1200;
  separated.num_clusters = 3;
  separated.dims = 4;
  separated.separation = 10.0;
  auto a = workloads::MakeGaussianMixture(separated);
  EXPECT_EQ(bits(*MapStability(*a.table, SelectionVector::All(1200),
                               columns(*a.table), fixed, 3)),
            0x3fed43afca4a95fbull);  // 0.9145...

  workloads::MixtureSpec noise;
  noise.rows = 1200;
  noise.num_clusters = 1;
  noise.dims = 4;
  auto b = workloads::MakeGaussianMixture(noise);
  SelectionVector thirds;
  for (uint32_t r = 0; r < 1200; r += 3) thirds.push_back(r);
  EXPECT_EQ(
      bits(*MapStability(*b.table, thirds, columns(*b.table), fixed, 3)),
      0x3fc22d8657f372f4ull);  // 0.1420...

  workloads::MixtureSpec nulls;
  nulls.rows = 600;
  nulls.dims = 4;
  nulls.null_rate = 0.1;
  nulls.with_categorical = true;
  auto c = workloads::MakeGaussianMixture(nulls);
  MapOptions sweep;
  sweep.sample_size = 200;
  EXPECT_EQ(bits(*MapStability(*c.table, SelectionVector::All(600),
                               columns(*c.table), sweep, 4)),
            0x3fe43f5a1af3ae25ull);  // 0.6327...
}

TEST(AtlasTest, RenderMentionsEveryTheme) {
  auto data = workloads::MakeTwoThemeMixture(500, 4, 3, 2, 3);
  auto themes = *DetectThemes(*data.table);
  MapOptions opt;
  opt.sample_size = 500;
  auto atlas = *BuildAtlas(*data.table, SelectionVector::All(500), themes,
                           opt);
  std::string text = RenderAtlas(atlas, themes);
  EXPECT_NE(text.find("Atlas ("), std::string::npos);
  for (const AtlasEntry& entry : atlas.entries) {
    EXPECT_NE(
        text.find("theme " + std::to_string(entry.theme_id)),
        std::string::npos);
  }
  EXPECT_NE(text.find("splits on"), std::string::npos);
}

}  // namespace
}  // namespace blaeu::core
