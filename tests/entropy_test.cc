// The hash-map estimator of entropy and mutual information, kept here as the
// oracle of stats::DependencyMatrix: every count goes through an
// unordered_map, and each pair recounts both marginals. Tests of the oracle
// itself, then a randomized differential of the product kernel against it,
// then the themes of the benchmark tables under both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_map>

#include "cluster/kselect.h"
#include "common/rng.h"
#include "core/theme.h"
#include "monet/column_stats.h"
#include "monet/sampling.h"
#include "monet/table.h"
#include "stats/column_dependency.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

namespace blaeu::stats {
namespace {

// ---------------------------------------------------------------------------
// The oracle.
// ---------------------------------------------------------------------------

double EntropyFromCounts(const std::unordered_map<uint64_t, size_t>& counts,
                         size_t n) {
  if (n == 0) return 0.0;
  double h = 0.0;
  const double dn = static_cast<double>(n);
  for (const auto& [_, c] : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / dn;
    h -= p * std::log(p);
  }
  return h;
}

/// Shannon entropy (nats) of a label sequence.
double Entropy(const std::vector<uint32_t>& labels) {
  std::unordered_map<uint64_t, size_t> counts;
  for (uint32_t l : labels) ++counts[l];
  return EntropyFromCounts(counts, labels.size());
}

/// Joint entropy H(X, Y). The sequences must have equal length.
double JointEntropy(const std::vector<uint32_t>& xs,
                    const std::vector<uint32_t>& ys) {
  std::unordered_map<uint64_t, size_t> counts;
  for (size_t i = 0; i < xs.size(); ++i) {
    ++counts[(uint64_t{xs[i]} << 32) | ys[i]];
  }
  return EntropyFromCounts(counts, xs.size());
}

/// MI I(X;Y) = H(X) + H(Y) - H(X, Y), clamped at >= 0.
double MutualInformation(const std::vector<uint32_t>& xs,
                         const std::vector<uint32_t>& ys) {
  double mi = Entropy(xs) + Entropy(ys) - JointEntropy(xs, ys);
  return mi > 0.0 ? mi : 0.0;
}

/// MI normalized to [0, 1] by sqrt(H(X) * H(Y)); 0 when either marginal
/// entropy is 0.
double NormalizedMutualInformation(const std::vector<uint32_t>& xs,
                                   const std::vector<uint32_t>& ys) {
  double hx = Entropy(xs);
  double hy = Entropy(ys);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double nmi = MutualInformation(xs, ys) / std::sqrt(hx * hy);
  return std::clamp(nmi, 0.0, 1.0);
}

size_t SupportSize(const std::vector<uint32_t>& labels) {
  std::unordered_map<uint64_t, size_t> counts;
  for (uint32_t l : labels) ++counts[l];
  return counts.size();
}

/// Miller-Madow MI: plug-in MI minus (Kx - 1)(Ky - 1) / 2n, clamped at 0.
double MutualInformationMM(const std::vector<uint32_t>& xs,
                           const std::vector<uint32_t>& ys) {
  const size_t n = xs.size();
  if (n == 0) return 0.0;
  double mi = MutualInformation(xs, ys);
  double kx = static_cast<double>(SupportSize(xs));
  double ky = static_cast<double>(SupportSize(ys));
  double bias = (kx - 1.0) * (ky - 1.0) / (2.0 * static_cast<double>(n));
  double corrected = mi - bias;
  return corrected > 0.0 ? corrected : 0.0;
}

/// Normalized Miller-Madow MI in [0, 1] (plug-in marginal entropies).
double NormalizedMutualInformationMM(const std::vector<uint32_t>& xs,
                                     const std::vector<uint32_t>& ys) {
  double hx = Entropy(xs);
  double hy = Entropy(ys);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double nmi = MutualInformationMM(xs, ys) / std::sqrt(hx * hy);
  return std::clamp(nmi, 0.0, 1.0);
}

/// The bins DependencyMatrix gives a numeric column.
constexpr size_t kNumBins = 5;

/// DependencyMatrix by the oracle: the same sampled rows and codes, each
/// pair through NormalizedMutualInformationMM.
std::vector<std::vector<double>> OracleMatrix(const monet::Table& table,
                                              const DependencyOptions& opt) {
  std::vector<uint32_t> rows;
  if (opt.sample_rows > 0 && table.num_rows() > opt.sample_rows) {
    Rng rng(kDependencySeed);
    rows = monet::UniformSampleIndices(table.num_rows(), opt.sample_rows,
                                       &rng)
               .rows();
  } else {
    for (uint32_t r = 0; r < table.num_rows(); ++r) rows.push_back(r);
  }
  const size_t m = table.num_columns();
  std::vector<std::vector<uint32_t>> codes;
  for (size_t i = 0; i < m; ++i) {
    codes.push_back(EncodeColumnDiscrete(*table.column(i), rows, kNumBins));
  }
  std::vector<std::vector<double>> dep(m, std::vector<double>(m, 0.0));
  for (size_t i = 0; i < m; ++i) {
    dep[i][i] = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      dep[i][j] = dep[j][i] =
          NormalizedMutualInformationMM(codes[i], codes[j]);
    }
  }
  return dep;
}

/// Asserts the product kernel agrees with the oracle on every entry.
void ExpectMatchesOracle(const monet::Table& table,
                         const DependencyOptions& opt) {
  auto dep = DependencyMatrix(table, opt);
  ASSERT_TRUE(dep.ok()) << dep.status().ToString();
  const auto oracle = OracleMatrix(table, opt);
  ASSERT_EQ(dep->size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_NEAR((*dep)[i][j], oracle[i][j], 1e-12)
          << table.schema().field(i).name << " x "
          << table.schema().field(j).name;
    }
  }
}

// ---------------------------------------------------------------------------
// The oracle's own properties.
// ---------------------------------------------------------------------------

TEST(EntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Entropy({1, 1, 1, 1}), 0.0);
  EXPECT_NEAR(Entropy({0, 1}), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({0, 1, 2, 3}), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

TEST(JointEntropyTest, IndependentAddsUp) {
  // Perfectly crossed design: H(X,Y) = H(X) + H(Y).
  std::vector<uint32_t> xs, ys;
  for (uint32_t x = 0; x < 2; ++x) {
    for (uint32_t y = 0; y < 3; ++y) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  EXPECT_NEAR(JointEntropy(xs, ys), Entropy(xs) + Entropy(ys), 1e-12);
  EXPECT_NEAR(MutualInformation(xs, ys), 0.0, 1e-12);
}

TEST(MutualInformationTest, PerfectDependence) {
  std::vector<uint32_t> xs = {0, 1, 2, 0, 1, 2};
  std::vector<uint32_t> ys = {5, 7, 9, 5, 7, 9};  // bijection of xs
  EXPECT_NEAR(MutualInformation(xs, ys), Entropy(xs), 1e-12);
  EXPECT_NEAR(NormalizedMutualInformation(xs, ys), 1.0, 1e-12);
}

TEST(MutualInformationTest, NonNegativeAndSymmetric) {
  Rng rng(1);
  std::vector<uint32_t> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(static_cast<uint32_t>(rng.NextBounded(4)));
    ys.push_back(static_cast<uint32_t>(rng.NextBounded(4)));
  }
  double mi_xy = MutualInformation(xs, ys);
  double mi_yx = MutualInformation(ys, xs);
  EXPECT_GE(mi_xy, 0.0);
  EXPECT_NEAR(mi_xy, mi_yx, 1e-12);
  // Independent draws: MI close to 0.
  EXPECT_LT(NormalizedMutualInformation(xs, ys), 0.1);
}

TEST(NmiTest, ConstantColumnScoresZero) {
  std::vector<uint32_t> xs = {0, 0, 0, 0};
  std::vector<uint32_t> ys = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(NormalizedMutualInformation(xs, ys), 0.0);
}

TEST(NmiTest, FullWidthLabelsSupported) {
  // Labels are hashed, not indexed: any 32-bit value is one label.
  std::vector<uint32_t> xs = {0xFFFFFFFFu, 0, 1, 0xFFFFFFFFu, 0, 1};
  std::vector<uint32_t> ys = {2, 3, 4, 2, 3, 4};
  EXPECT_NEAR(NormalizedMutualInformation(xs, ys), 1.0, 1e-12);
}

TEST(MillerMadowTest, ShrinksIndependentMIToZero) {
  Rng rng(2);
  std::vector<uint32_t> xs, ys;
  for (int i = 0; i < 800; ++i) {
    xs.push_back(static_cast<uint32_t>(rng.NextBounded(8)));
    ys.push_back(static_cast<uint32_t>(rng.NextBounded(8)));
  }
  // Plug-in MI of independent 8x8 variables on 800 samples is visibly
  // positive; the corrected estimator should be near zero and smaller.
  double plugin = MutualInformation(xs, ys);
  double corrected = MutualInformationMM(xs, ys);
  EXPECT_GT(plugin, 0.02);
  EXPECT_LT(corrected, plugin);
  EXPECT_LT(corrected, 0.01);
}

TEST(MillerMadowTest, PreservesStrongDependence) {
  std::vector<uint32_t> xs, ys;
  for (uint32_t i = 0; i < 600; ++i) {
    xs.push_back(i % 4);
    ys.push_back((i % 4) + 10);
  }
  EXPECT_NEAR(MutualInformationMM(xs, ys), MutualInformation(xs, ys),
              0.02);
  EXPECT_GT(NormalizedMutualInformationMM(xs, ys), 0.95);
}

TEST(MillerMadowTest, NeverNegative) {
  std::vector<uint32_t> xs = {0, 1, 0, 1};
  std::vector<uint32_t> ys = {2, 2, 3, 3};
  EXPECT_GE(MutualInformationMM(xs, ys), 0.0);
  EXPECT_GE(NormalizedMutualInformationMM(xs, ys), 0.0);
}

// ---------------------------------------------------------------------------
// DependencyMatrix against the oracle.
// ---------------------------------------------------------------------------

using monet::DataType;
using monet::Schema;
using monet::TableBuilder;
using monet::TablePtr;
using monet::Value;

/// A table of every column kind the kernel codes differently, driven by two
/// latent factors so that pairs range from independent to determined:
/// NULL-heavy, constant and all-NULL doubles, a tie-heavy int, a bool, a
/// low-cardinality string, and two high-cardinality strings (>= 1,000
/// distinct values in a 4,000-row sample), placed first and last so that
/// each is the bucketed and the counted side of a pair.
TablePtr MixedTable(size_t rows, uint64_t seed) {
  TableBuilder b(Schema({{"wide_a", DataType::kString},
                         {"x", DataType::kDouble},
                         {"x_sparse", DataType::kDouble},
                         {"constant", DataType::kDouble},
                         {"all_null", DataType::kDouble},
                         {"level", DataType::kInt64},
                         {"flag", DataType::kBool},
                         {"group", DataType::kString},
                         {"noise", DataType::kDouble},
                         {"all_null_str", DataType::kString},
                         {"wide_b", DataType::kString}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const double u = rng.NextGaussian();
    const double v = rng.NextGaussian();
    const int id = static_cast<int>(rng.NextBounded(1200));
    auto maybe = [&](double rate, Value value) {
      return rng.NextBernoulli(rate) ? Value::Null() : value;
    };
    EXPECT_TRUE(
        b.AppendRow(
             {Value::Str("a" + std::to_string(id)),
              maybe(0.05, Value::Double(u)),
              maybe(0.8, Value::Double(u * u + 0.1 * v)),
              Value::Double(3.0),
              Value::Null(),
              maybe(0.1, Value::Int(static_cast<int64_t>(std::floor(v)))),
              maybe(0.2, Value::Boolean(u + v > 0)),
              maybe(0.3, Value::Str(u > 0.5 ? "hi" : u < -0.5 ? "lo" : "mid")),
              Value::Double(rng.NextUniform(0.0, 1.0)),
              Value::Null(),
              maybe(0.1, Value::Str("b" + std::to_string(id + (v > 0))))})
            .ok());
  }
  return *b.Finish();
}

TEST(DependencyOracleTest, RandomMixedTablesMatchTheOracle) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    TablePtr t = MixedTable(5000, seed);
    ExpectMatchesOracle(*t, DependencyOptions{});  // 4,000 sampled rows
    DependencyOptions sampled;
    sampled.sample_rows = 700;
    ExpectMatchesOracle(*t, sampled);
  }
}

TEST(DependencyOracleTest, HighCardinalityStringsRunBothCountingPaths) {
  TablePtr t = MixedTable(5000, 4);
  Rng rng(kDependencySeed);
  const std::vector<uint32_t> rows =
      monet::UniformSampleIndices(t->num_rows(), 4000, &rng).rows();
  // 1,000 to 1,332 codes, NULL included: paired with the 6 codes of x (5
  // bins and NULL), a wide string has more cells than the 4,000 sampled
  // rows and is counted by bucket; paired with the 3 codes of flag, it has
  // fewer and takes the flat table.
  for (size_t c : {size_t{0}, t->num_columns() - 1}) {
    const std::vector<uint32_t> codes =
        EncodeColumnDiscrete(*t->column(c), rows, kNumBins);
    const size_t k = std::set<uint32_t>(codes.begin(), codes.end()).size();
    EXPECT_GE(k, 1000u) << t->schema().field(c).name;
    EXPECT_LE(k * 3, 4000u) << t->schema().field(c).name;
  }
  ExpectMatchesOracle(*t, DependencyOptions{});
}

TEST(DependencyOracleTest, AllRowsMatchTheOracle) {
  DependencyOptions all_rows;
  all_rows.sample_rows = 0;
  ExpectMatchesOracle(*MixedTable(1500, 5), all_rows);
  ExpectMatchesOracle(*MixedTable(6000, 6), all_rows);
}

TEST(DependencyOracleTest, TinyTablesMatchTheOracle) {
  for (size_t rows : {1, 2, 3, 7}) {
    SCOPED_TRACE(rows);
    ExpectMatchesOracle(*MixedTable(rows, 7), DependencyOptions{});
  }
}

// ---------------------------------------------------------------------------
// The same themes on the benchmark tables.
// ---------------------------------------------------------------------------

/// What DetectThemes returns, with the oracle's matrix: PAM on
/// 1 - dependency over the non-key columns, k by silhouette, themes ranked
/// by cohesion.
std::vector<core::Theme> OracleThemes(const monet::Table& table) {
  const core::ThemeOptions opt;
  std::vector<size_t> columns;
  const std::vector<size_t> keys = monet::DetectPrimaryKeyColumns(table);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      columns.push_back(c);
    }
  }
  const auto dep = OracleMatrix(*table.Project(columns), opt.dependency);
  const size_t m = columns.size();
  DistanceMatrix dist(m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) dist.Set(i, j, 1.0 - dep[i][j]);
  }
  auto result =
      cluster::SelectKWithPam(dist, std::min(opt.max_themes, m - 1));
  EXPECT_TRUE(result.ok());
  const cluster::ClusteringResult& best = result->best;

  std::vector<core::Theme> themes(best.medoids.size());
  std::vector<std::vector<size_t>> members(themes.size());
  for (size_t t = 0; t < themes.size(); ++t) {
    themes[t].id = static_cast<int>(t);
    themes[t].medoid_column = columns[best.medoids[t]];
  }
  for (size_t i = 0; i < m; ++i) {
    themes[best.labels[i]].columns.push_back(columns[i]);
    members[best.labels[i]].push_back(i);
  }
  for (size_t t = 0; t < themes.size(); ++t) {
    double total = 0.0;
    size_t pairs = 0;
    for (size_t a = 0; a < members[t].size(); ++a) {
      for (size_t b = a + 1; b < members[t].size(); ++b) {
        total += dep[members[t][a]][members[t][b]];
        ++pairs;
      }
    }
    themes[t].cohesion = pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
  }
  std::sort(themes.begin(), themes.end(),
            [](const core::Theme& a, const core::Theme& b) {
              if (a.cohesion != b.cohesion) return a.cohesion > b.cohesion;
              return a.id < b.id;
            });
  return themes;
}

TEST(DependencyOracleTest, SameThemesOnTheBenchmarkTables) {
  workloads::HollywoodSpec hollywood_32k;
  hollywood_32k.rows = 32000;
  workloads::OecdSpec oecd;  // >= 100 columns, at ctest size
  oecd.rows = 3000;
  oecd.indicator_columns = 100;
  const std::vector<std::pair<std::string, TablePtr>> tables = {
      {"hollywood", workloads::MakeHollywood().table},
      {"hollywood-32k", workloads::MakeHollywood(hollywood_32k).table},
      {"lofar", workloads::MakeLofar().table},
      {"oecd-100", workloads::MakeOecd(oecd).table}};
  for (const auto& [name, table] : tables) {
    SCOPED_TRACE(name);
    auto themes = core::DetectThemes(*table);
    ASSERT_TRUE(themes.ok());
    const std::vector<core::Theme> oracle = OracleThemes(*table);
    ASSERT_EQ(themes->size(), oracle.size());
    for (size_t t = 0; t < oracle.size(); ++t) {
      EXPECT_EQ(themes->theme(t).columns, oracle[t].columns) << "theme " << t;
      EXPECT_EQ(themes->theme(t).medoid_column, oracle[t].medoid_column)
          << "theme " << t;
    }
  }
}

}  // namespace
}  // namespace blaeu::stats
