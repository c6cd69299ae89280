// Figure/series reporting helpers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/cli.hpp"
#include "core/report.hpp"

namespace hs = hpcs::study;

TEST(Series, Accumulates) {
  hs::Series s;
  s.name = "bare-metal";
  s.add("4", 10.0);
  s.add("8", 5.0);
  EXPECT_EQ(s.x.size(), 2u);
  EXPECT_DOUBLE_EQ(s.y[1], 5.0);
}

TEST(Figure, PrintContainsSeriesAndValues) {
  hs::Figure f;
  f.title = "Fig 1";
  f.x_label = "config";
  f.y_label = "time [s]";
  hs::Series a{.name = "bare-metal"};
  a.add("8x14", 120.0);
  a.add("112x1", 100.0);
  hs::Series b{.name = "docker"};
  b.add("8x14", 130.0);
  b.add("112x1", 260.0);
  f.series = {a, b};
  std::ostringstream out;
  f.print(out);
  const auto s = out.str();
  EXPECT_NE(s.find("Fig 1"), std::string::npos);
  EXPECT_NE(s.find("bare-metal"), std::string::npos);
  EXPECT_NE(s.find("docker"), std::string::npos);
  EXPECT_NE(s.find("112x1"), std::string::npos);
  EXPECT_NE(s.find("260.000"), std::string::npos);
}

TEST(Figure, EmptyPrintsPlaceholder) {
  hs::Figure f;
  f.title = "empty";
  std::ostringstream out;
  f.print(out);
  EXPECT_NE(out.str().find("(no data)"), std::string::npos);
}

TEST(Figure, SaveCsvRoundTrip) {
  hs::Figure f;
  f.title = "t";
  f.x_label = "nodes";
  f.y_label = "s";
  hs::Series a{.name = "bm"};
  a.add("2", 1.5);
  a.add("4", 0.8);
  f.series = {a};
  // The path bench_util::emit takes: Figure::write_csv through the shared
  // artifact writer.
  const std::string path = "/tmp/hpcs_test_fig.csv";
  std::ostringstream log, err;
  ASSERT_TRUE(hs::save_outputs(
      {{path, [&](std::ostream& out) { f.write_csv(out); }}}, log, err));
  EXPECT_EQ(log.str(), "[saved " + path + "]\n");
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header, "nodes,bm");
  EXPECT_EQ(row1, "2,1.5");
  EXPECT_EQ(row2, "4,0.8");
  std::remove(path.c_str());
}

TEST(Figure, SaveCsvFailsGracefully) {
  // A figure with no series writes its header line alone.
  hs::Figure f;
  f.x_label = "nodes";
  std::ostringstream empty;
  f.write_csv(empty);
  EXPECT_EQ(empty.str(), "nodes\n");
  // An unwritable path is reported by name, and nothing is saved.
  hs::Series a{.name = "x"};
  a.add("1", 1.0);
  f.series = {a};
  std::ostringstream log, err;
  EXPECT_FALSE(hs::save_outputs(
      {{"/nonexistent-dir/x.csv",
        [&](std::ostream& out) { f.write_csv(out); }}},
      log, err));
  EXPECT_EQ(log.str(), "");
  EXPECT_EQ(err.str(), "error: cannot write '/nonexistent-dir/x.csv'\n");
}

TEST(SpeedupSeries, Fig3Math) {
  // times at 4, 8, 16 nodes with perfect scaling -> speedups 4, 8, 16.
  const auto s = hs::speedup_series("bm", {"4", "8", "16"},
                                    {10.0, 5.0, 2.5}, 10.0, 4.0);
  EXPECT_DOUBLE_EQ(s.y[0], 4.0);
  EXPECT_DOUBLE_EQ(s.y[1], 8.0);
  EXPECT_DOUBLE_EQ(s.y[2], 16.0);
}

TEST(SpeedupSeries, Validation) {
  EXPECT_THROW(hs::speedup_series("x", {"1"}, {1.0, 2.0}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(hs::speedup_series("x", {"1"}, {1.0}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(hs::speedup_series("x", {"1"}, {0.0}, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Figure, GnuplotScript) {
  hs::Figure f;
  f.title = "Fig X";
  f.x_label = "nodes";
  f.y_label = "time";
  hs::Series a{.name = "bm"}, b{.name = "docker"};
  a.add("2", 1.0);
  b.add("2", 2.0);
  f.series = {a, b};
  std::ostringstream out;
  f.write_gnuplot(out, "/tmp/hpcs_fig.csv");
  const std::string all = out.str();
  EXPECT_EQ(all.rfind("# Generated by hpcs — render with: gnuplot "
                      "/tmp/hpcs_fig.csv.gp\n",
                      0),
            0u);
  EXPECT_NE(all.find("set title \"Fig X\""), std::string::npos);
  EXPECT_NE(all.find("set output \"/tmp/hpcs_fig.csv.png\""),
            std::string::npos);
  EXPECT_NE(all.find("plot '/tmp/hpcs_fig.csv' using 0:2"),
            std::string::npos);
  EXPECT_NE(all.find("title \"bm\""), std::string::npos);
  EXPECT_NE(all.find("title \"docker\""), std::string::npos);
  EXPECT_NE(all.find("using 0:3"), std::string::npos);
  EXPECT_EQ(all.back(), '\n');
  // No series, no plot command.
  std::ostringstream empty;
  hs::Figure().write_gnuplot(empty, "x.csv");
  EXPECT_EQ(empty.str().find("\nplot "), std::string::npos);
}
