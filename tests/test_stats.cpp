#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace fedtrans {
namespace {

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptyInputsReturnZero) {
  std::vector<double> xs;
  EXPECT_EQ(mean(xs), 0.0);
  EXPECT_EQ(stddev(xs), 0.0);
  EXPECT_EQ(percentile(xs, 50), 0.0);
  EXPECT_EQ(iqr(xs), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> xs{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Stats, IqrOfUniformGrid) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  EXPECT_NEAR(iqr(xs), 50.0, 1e-9);
}

TEST(Stats, BoxStatsOrdering) {
  std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  const auto b = box_stats(xs);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);
}

TEST(Stats, StandardizeZeroMeanUnitVar) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  const auto z = standardize(xs);
  EXPECT_NEAR(mean(z), 0.0, 1e-12);
  EXPECT_NEAR(stddev(z), 1.0, 1e-12);
}

TEST(Stats, StandardizeDegenerateAllEqual) {
  std::vector<double> xs{2, 2, 2};
  const auto z = standardize(xs);
  for (double v : z) EXPECT_EQ(v, 0.0);
}

TEST(Table, AlignedPrintContainsCellsAndSeparator) {
  TablePrinter t({"Method", "Accu"});
  t.add_row({"FedTrans", "78.3"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("FedTrans"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_bytes(10.5 * 1024 * 1024), "10.5 MB");
  EXPECT_EQ(fmt_macs(2.5e6), "2.50 MMACs");
  EXPECT_NE(fmt_sci(1.23e14).find("e+14"), std::string::npos);
}

}  // namespace
}  // namespace fedtrans
