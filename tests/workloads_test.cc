// Unit tests for the synthetic demo-dataset generators: they must match the
// dimensions the paper reports and carry coherent ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/metrics.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

namespace blaeu::workloads {
namespace {

/// Pearson correlation of two equal-length sequences.
double Pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const double n = static_cast<double>(xs.size());
  double mean_x = 0, mean_y = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0, var_x = 0, var_y = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - mean_x) * (ys[i] - mean_y);
    var_x += (xs[i] - mean_x) * (xs[i] - mean_x);
    var_y += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  return cov / std::sqrt(var_x * var_y);
}

TEST(GaussianTest, ShapeAndTruth) {
  MixtureSpec spec;
  spec.rows = 500;
  spec.num_clusters = 4;
  spec.dims = 5;
  Dataset d = MakeGaussianMixture(spec);
  EXPECT_EQ(d.table->num_rows(), 500u);
  EXPECT_EQ(d.table->num_columns(), 5u);
  EXPECT_EQ(d.truth.row_clusters.size(), 500u);
  std::set<int> labels(d.truth.row_clusters.begin(),
                       d.truth.row_clusters.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(GaussianTest, DeterministicGivenSeed) {
  MixtureSpec spec;
  spec.rows = 100;
  Dataset a = MakeGaussianMixture(spec);
  Dataset b = MakeGaussianMixture(spec);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(a.table->GetValue(r, 0), b.table->GetValue(r, 0));
  }
  EXPECT_EQ(a.truth.row_clusters, b.truth.row_clusters);
}

TEST(GaussianTest, NullRateApplied) {
  MixtureSpec spec;
  spec.rows = 2000;
  spec.dims = 2;
  spec.null_rate = 0.1;
  Dataset d = MakeGaussianMixture(spec);
  size_t nulls = d.table->column(0)->null_count() +
                 d.table->column(1)->null_count();
  EXPECT_NEAR(static_cast<double>(nulls), 400.0, 80.0);
}

TEST(GaussianTest, OptionalColumns) {
  MixtureSpec spec;
  spec.rows = 50;
  spec.with_id = true;
  spec.with_categorical = true;
  Dataset d = MakeGaussianMixture(spec);
  EXPECT_EQ(d.table->schema().field(0).name, "row_id");
  EXPECT_EQ(d.table->schema()
                .field(d.table->num_columns() - 1)
                .name,
            "group");
  EXPECT_EQ(d.truth.column_themes.front(), -1);
}

TEST(TwoThemeTest, ColumnsSplitIntoGroups) {
  Dataset d = MakeTwoThemeMixture(300, 4, 2, 3, 1);
  EXPECT_EQ(d.table->num_columns(), 8u);
  EXPECT_EQ(d.truth.num_themes, 2u);
  for (size_t c = 0; c < 4; ++c) EXPECT_EQ(d.truth.column_themes[c], 0);
  for (size_t c = 4; c < 8; ++c) EXPECT_EQ(d.truth.column_themes[c], 1);
}

TEST(HollywoodTest, MatchesPaperDimensions) {
  Dataset d = MakeHollywood();
  EXPECT_EQ(d.table->num_rows(), 900u);   // "900 Hollywood movies"
  EXPECT_EQ(d.table->num_columns(), 12u); // "12 columns"
  // Years 2007-2013.
  auto year = *d.table->ColumnByName("year");
  for (size_t r = 0; r < 900; r += 50) {
    int64_t y = year->ints()[r];
    EXPECT_GE(y, 2007);
    EXPECT_LE(y, 2013);
  }
}

TEST(HollywoodTest, ProfitabilityConsistentWithGross) {
  Dataset d = MakeHollywood();
  auto budget = *d.table->ColumnByName("budget_musd");
  auto gross = *d.table->ColumnByName("worldwide_gross_musd");
  auto profit = *d.table->ColumnByName("profitability");
  for (size_t r = 0; r < 900; r += 97) {
    EXPECT_NEAR(gross->doubles()[r] / budget->doubles()[r],
                profit->doubles()[r], 1e-9);
  }
}

TEST(HollywoodTest, PlantedProfilesAreSeparable) {
  Dataset d = MakeHollywood();
  // Blockbusters (cluster 0) out-budget critical darlings (cluster 1).
  auto budget = *d.table->ColumnByName("budget_musd");
  double sum0 = 0, sum1 = 0;
  size_t n0 = 0, n1 = 0;
  for (size_t r = 0; r < 900; ++r) {
    if (d.truth.row_clusters[r] == 0) {
      sum0 += budget->doubles()[r];
      ++n0;
    } else if (d.truth.row_clusters[r] == 1) {
      sum1 += budget->doubles()[r];
      ++n1;
    }
  }
  ASSERT_GT(n0, 0u);
  ASSERT_GT(n1, 0u);
  EXPECT_GT(sum0 / n0, 4.0 * (sum1 / n1));
}

TEST(OecdTest, MatchesPaperDimensions) {
  OecdSpec spec;  // defaults reproduce the paper
  spec.rows = 1000;  // keep the test fast; column count is the claim
  Dataset d = MakeOecd(spec);
  EXPECT_EQ(d.table->num_columns(), 378u);  // "378 columns"
  EXPECT_EQ(d.table->num_rows(), 1000u);
  // 31 countries.
  std::set<std::string> countries;
  auto country = *d.table->ColumnByName("country");
  for (size_t r = 0; r < 1000; ++r) {
    countries.insert(country->StringAt(r));
  }
  EXPECT_EQ(countries.size(), 31u);
}

TEST(OecdTest, LeadIndicatorsFollowProfiles) {
  OecdSpec spec;
  spec.rows = 3000;
  spec.indicator_columns = 20;
  Dataset d = MakeOecd(spec);
  auto hours = *d.table->ColumnByName("pct_employees_working_long_hours");
  auto income = *d.table->ColumnByName("average_income_kusd");
  double hours_balance = 0, hours_long = 0, income_balance = 0,
         income_unemp = 0;
  size_t n_balance = 0, n_long = 0, n_unemp = 0;
  for (size_t r = 0; r < 3000; ++r) {
    if (hours->IsNull(r) || income->IsNull(r)) continue;
    switch (d.truth.row_clusters[r]) {
      case 0:
        hours_balance += hours->doubles()[r];
        income_balance += income->doubles()[r];
        ++n_balance;
        break;
      case 1:
        hours_long += hours->doubles()[r];
        ++n_long;
        break;
      case 2:
        income_unemp += income->doubles()[r];
        ++n_unemp;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(n_balance, 0u);
  ASSERT_GT(n_long, 0u);
  ASSERT_GT(n_unemp, 0u);
  // Figure 1 structure: long-hours cluster well above 20%, balance cluster
  // well below; balance income above 22k, unemployment cluster below.
  EXPECT_GT(hours_long / n_long, 20.0);
  EXPECT_LT(hours_balance / n_balance, 20.0);
  EXPECT_GT(income_balance / n_balance, 22.0);
  EXPECT_LT(income_unemp / n_unemp, 22.0);
}

TEST(OecdTest, ThemeColumnsAreMutuallyDependent) {
  OecdSpec spec;
  spec.rows = 2000;
  spec.indicator_columns = 16;
  Dataset d = MakeOecd(spec);
  // Two unemployment indicators should correlate strongly; an
  // unemployment and an environment indicator should not.
  auto u1 = *d.table->ColumnByName("unemployment_rate");
  auto u2 = *d.table->ColumnByName("long_term_unemployment_rate");
  std::vector<double> x, y;
  for (size_t r = 0; r < 2000; ++r) {
    if (u1->IsNull(r) || u2->IsNull(r)) continue;
    x.push_back(u1->doubles()[r]);
    y.push_back(u2->doubles()[r]);
  }
  EXPECT_GT(Pearson(x, y), 0.5);
}

TEST(LofarTest, ScaleAndSchema) {
  LofarSpec spec;
  spec.rows = 20000;  // keep the test quick; default is 200k
  Dataset d = MakeLofar(spec);
  EXPECT_EQ(d.table->num_rows(), 20000u);
  EXPECT_EQ(d.table->num_columns(), 40u);  // "several dozens variables"
  EXPECT_EQ(d.truth.column_themes.size(), 40u);
  EXPECT_EQ(d.truth.num_clusters, 5u);
}

TEST(LofarTest, SpectralIndexSeparatesClasses) {
  LofarSpec spec;
  spec.rows = 10000;
  Dataset d = MakeLofar(spec);
  auto alpha = *d.table->ColumnByName("spectral_index");
  double flat = 0, steep = 0;
  size_t n_flat = 0, n_steep = 0;
  for (size_t r = 0; r < 10000; ++r) {
    if (d.truth.row_clusters[r] == 1) {  // quasar_flat
      flat += alpha->doubles()[r];
      ++n_flat;
    } else if (d.truth.row_clusters[r] == 3) {  // pulsar_like
      steep += alpha->doubles()[r];
      ++n_steep;
    }
  }
  EXPECT_GT(flat / n_flat, -0.4);
  EXPECT_LT(steep / n_steep, -1.2);
}

TEST(LofarTest, FluxFollowsPowerLaw) {
  LofarSpec spec;
  spec.rows = 500;
  spec.missing_rate = 0.0;
  Dataset d = MakeLofar(spec);
  auto low = *d.table->ColumnByName("flux_120mhz_mjy");
  auto high = *d.table->ColumnByName("flux_168mhz_mjy");
  auto alpha = *d.table->ColumnByName("spectral_index");
  // For steep negative spectra, low-frequency flux exceeds high-frequency.
  size_t consistent = 0, total = 0;
  for (size_t r = 0; r < 500; ++r) {
    if (alpha->doubles()[r] < -0.5) {
      ++total;
      if (low->doubles()[r] > high->doubles()[r]) ++consistent;
    }
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(consistent) / total, 0.9);
}

}  // namespace
}  // namespace blaeu::workloads
