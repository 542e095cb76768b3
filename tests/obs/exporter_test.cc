#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/sim_time.h"
#include "common/table_writer.h"
#include "obs/metrics.h"

namespace pstore {
namespace obs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TimeseriesExporterTest, CsvGolden) {
  MetricsRegistry registry;
  TimeseriesExporter exporter(&registry);

  registry.GetCounter("a.count")->Add(1);
  exporter.Sample(kSecond);
  registry.GetCounter("a.count")->Add(1);
  registry.GetGauge("b.level")->Set(2.5);  // registers late
  exporter.Sample(2 * kSecond);

  // The header is the union of names; samples missing a metric render 0.
  EXPECT_EQ(exporter.ToCsv(),
            "time_s,a.count,b.level\n"
            "1,1,0\n"
            "2,2,2.5\n");
}

TEST(TimeseriesExporterTest, NullOrDisarmedRegistrySamplesNothing) {
  TimeseriesExporter null_exporter(nullptr);
  null_exporter.Sample(kSecond);
  EXPECT_EQ(null_exporter.samples(), 0u);
  EXPECT_EQ(null_exporter.ToCsv(), "time_s\n");
}

TEST(TimeseriesExporterTest, WriteCsvCreatesParentDirs) {
  MetricsRegistry registry;
  registry.GetCounter("x")->Add(3);
  TimeseriesExporter exporter(&registry);
  exporter.Sample(0);

  const std::string path =
      testing::TempDir() + "/obs_exporter_test/nested/series.csv";
  ASSERT_TRUE(exporter.WriteCsv(path));
  EXPECT_EQ(ReadFileOrEmpty(path), exporter.ToCsv());
}

TEST(WriteColumnsCsvTest, MatchesCsvSeriesWriterBytes) {
  const std::vector<std::string> names = {"time_s", "txn_per_s"};
  const std::vector<std::vector<double>> columns = {
      {0.0, 10.0, 20.0}, {123.456, 0.1, 438.0}};

  CsvSeriesWriter writer;
  for (size_t i = 0; i < names.size(); ++i) {
    writer.AddColumn(names[i], columns[i]);
  }
  std::ostringstream reference;
  writer.Print(reference);

  const std::string path = testing::TempDir() + "/obs_exporter_test/cols.csv";
  ASSERT_TRUE(WriteColumnsCsv(path, names, columns));
  EXPECT_EQ(ReadFileOrEmpty(path), reference.str());
}

TEST(WriteColumnsCsvTest, PadsShortColumns) {
  const std::string path = testing::TempDir() + "/obs_exporter_test/pad.csv";
  ASSERT_TRUE(WriteColumnsCsv(path, {"a", "b"}, {{1.0, 2.0}, {5.0}}));
  EXPECT_EQ(ReadFileOrEmpty(path), "a,b\n1,5\n2,\n");
}

TEST(WriteStringToFileTest, RoundTripsAndCreatesDirs) {
  const std::string path =
      testing::TempDir() + "/obs_exporter_test/deep/dir/dump.json";
  ASSERT_TRUE(WriteStringToFile(path, "{\"ok\": true}\n"));
  EXPECT_EQ(ReadFileOrEmpty(path), "{\"ok\": true}\n");
  // Overwrites, never appends.
  ASSERT_TRUE(WriteStringToFile(path, "x"));
  EXPECT_EQ(ReadFileOrEmpty(path), "x");
}

}  // namespace
}  // namespace obs
}  // namespace pstore
