#include <gtest/gtest.h>

#include <string>

#include "data/concat.h"
#include "data/csv_loader.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/dictionary.h"
#include "data/schema.h"

namespace qikey {
namespace {

// ------------------------------------------------------------ Dictionary

TEST(DictionaryTest, AssignsDenseCodes) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("x"), 0u);
  EXPECT_EQ(d.GetOrAdd("y"), 1u);
  EXPECT_EQ(d.GetOrAdd("x"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Value(1), "y");
}

TEST(DictionaryTest, FindMissing) {
  Dictionary d;
  d.GetOrAdd("present");
  EXPECT_EQ(d.Find("present"), 0u);
  EXPECT_EQ(d.Find("absent"), Dictionary::kNotFound);
}

/// `prefix` followed by the decimal `i`.
std::string Tagged(const char* prefix, uint32_t i) {
  std::string value = prefix;
  value += std::to_string(i);
  return value;
}

TEST(DictionaryTest, DenseFirstAppearanceCodesAcrossGrowth) {
  // 150k distinct values force many table doublings; every lookup after
  // each growth must still land on the first-appearance code.
  const uint32_t n = 150000;
  Dictionary d;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(d.GetOrAdd(Tagged("v", i * 7u)), i);
    if (i % 1000 == 0) {
      ASSERT_EQ(d.GetOrAdd("v0"), 0u);
    }
  }
  ASSERT_EQ(d.size(), n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(d.Find(Tagged("v", i * 7u)), i);
    ASSERT_EQ(d.Value(i), Tagged("v", i * 7u));
  }
  EXPECT_EQ(d.Find("v1"), Dictionary::kNotFound);  // 1 is not a multiple of 7
  EXPECT_EQ(d.GetOrAdd("v1"), n);
}

TEST(DictionaryTest, EmptyStringAndEmbeddedNul) {
  Dictionary d;
  const std::string nul_a("a\0b", 3);
  const std::string nul_c("a\0c", 3);
  EXPECT_EQ(d.GetOrAdd(""), 0u);
  EXPECT_EQ(d.GetOrAdd(nul_a), 1u);
  EXPECT_EQ(d.GetOrAdd(nul_c), 2u);
  EXPECT_EQ(d.GetOrAdd("a"), 3u);  // a prefix of both, up to the NUL
  EXPECT_EQ(d.GetOrAdd(std::string(1, '\0')), 4u);
  EXPECT_EQ(d.GetOrAdd(""), 0u);
  EXPECT_EQ(d.Find(nul_c), 2u);
  EXPECT_EQ(d.Value(1), nul_a);
  EXPECT_EQ(d.Value(1).size(), 3u);
  EXPECT_EQ(d.Value(0), "");
  EXPECT_EQ(d.size(), 5u);
}

TEST(DictionaryTest, FindOnEmptyAndAbsent) {
  Dictionary d;
  EXPECT_EQ(d.Find(""), Dictionary::kNotFound);
  EXPECT_EQ(d.Find("x"), Dictionary::kNotFound);
  EXPECT_EQ(d.size(), 0u);
  d.GetOrAdd("x");
  EXPECT_EQ(d.Find(""), Dictionary::kNotFound);
  EXPECT_EQ(d.Find("xx"), Dictionary::kNotFound);
  EXPECT_EQ(d.Find("x"), 0u);
}

TEST(DictionaryTest, CopiesAreIndependent) {
  Dictionary a;
  for (uint32_t i = 0; i < 100; ++i) a.GetOrAdd(Tagged("k", i));
  Dictionary b = a;
  EXPECT_EQ(b.GetOrAdd("only-in-b"), 100u);
  EXPECT_EQ(a.GetOrAdd("only-in-a"), 100u);
  EXPECT_EQ(a.Find("only-in-b"), Dictionary::kNotFound);
  EXPECT_EQ(b.Find("only-in-a"), Dictionary::kNotFound);
  EXPECT_EQ(a.Value(100), "only-in-a");
  EXPECT_EQ(b.Value(100), "only-in-b");
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(b.Find(Tagged("k", i)), i);
  a = Dictionary();
  EXPECT_EQ(b.Find("k7"), 7u);
  EXPECT_EQ(a.Find("k7"), Dictionary::kNotFound);
}

// ---------------------------------------------------------------- Column

TEST(ColumnTest, ComputesCardinalityWhenUnspecified) {
  Column c({3, 1, 4, 1, 5});
  EXPECT_EQ(c.cardinality(), 6u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.code(2), 4u);
}

TEST(ColumnTest, CountDistinct) {
  Column c({0, 1, 0, 2, 1, 0}, 10);
  EXPECT_EQ(c.CountDistinct(), 3u);
  // Cached second call.
  EXPECT_EQ(c.CountDistinct(), 3u);
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, AnonymousNames) {
  Schema s = Schema::Anonymous(3);
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(s.name(0), "a0");
  EXPECT_EQ(s.name(2), "a2");
}

TEST(SchemaTest, FindByName) {
  Schema s({"age", "zip"});
  EXPECT_EQ(s.Find("zip"), 1);
  EXPECT_EQ(s.Find("nope"), -1);
}

TEST(SchemaTest, FindFirstDuplicateWins) {
  Schema s({"x", "dup", "y", "dup", "x"});
  EXPECT_EQ(s.Find("x"), 0);
  EXPECT_EQ(s.Find("dup"), 1);
  EXPECT_EQ(s.Find("y"), 2);
}

TEST(SchemaTest, FindAbsentAndEmptyNames) {
  Schema s({"horiz_dist_hydrology", "a"});
  EXPECT_EQ(s.Find(""), -1);
  EXPECT_EQ(s.Find("horiz_dist_hydrolog"), -1);   // a prefix
  EXPECT_EQ(s.Find("horiz_dist_hydrologyy"), -1);  // an extension
  EXPECT_EQ(s.Find(std::string_view("a\0", 2)), -1);
  EXPECT_EQ(s.Find("horiz_dist_hydrology"), 0);
  // An empty name is a name like any other when the schema has one.
  Schema with_empty({"a", ""});
  EXPECT_EQ(with_empty.Find(""), 1);
}

TEST(SchemaTest, FindOnDefaultSchema) {
  Schema s;
  EXPECT_EQ(s.num_attributes(), 0u);
  EXPECT_EQ(s.Find(""), -1);
  EXPECT_EQ(s.Find("a0"), -1);
}

TEST(SchemaTest, FindThousandNamesAndCopies) {
  Schema s = Schema::Anonymous(1000);
  Schema copy = s;  // the lookup table travels with the names
  for (AttributeIndex i = 0; i < 1000; ++i) {
    ASSERT_EQ(s.Find(s.name(i)), static_cast<int>(i));
    std::string name = "a";  // += dodges gcc 12's -Wrestrict (PR105651)
    name += std::to_string(i);
    ASSERT_EQ(copy.Find(name), static_cast<int>(i));
  }
  EXPECT_EQ(s.Find("a1000"), -1);
  EXPECT_EQ(s.Find("b0"), -1);
}

// --------------------------------------------------------------- Dataset

Dataset SmallDataset() {
  DatasetBuilder b({"city", "zip", "age"});
  EXPECT_TRUE(b.AddRow({"SF", "94103", "30"}).ok());
  EXPECT_TRUE(b.AddRow({"SF", "94103", "40"}).ok());
  EXPECT_TRUE(b.AddRow({"SD", "92115", "30"}).ok());
  EXPECT_TRUE(b.AddRow({"SD", "92116", "30"}).ok());
  return std::move(b).Finish();
}

TEST(DatasetTest, ShapeAndPairCount) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.num_rows(), 4u);
  EXPECT_EQ(d.num_attributes(), 3u);
  EXPECT_EQ(d.num_pairs(), 6u);
}

TEST(DatasetTest, RowsAgreeOn) {
  Dataset d = SmallDataset();
  // Rows 0,1 share city+zip but not age.
  EXPECT_TRUE(d.RowsAgreeOn(0, 1, {0, 1}));
  EXPECT_FALSE(d.RowsAgreeOn(0, 1, {0, 1, 2}));
  // Rows 2,3 share city and age but not zip.
  EXPECT_TRUE(d.RowsAgreeOn(2, 3, {0, 2}));
  EXPECT_FALSE(d.RowsAgreeOn(2, 3, {1}));
  // Empty attribute set: everything "agrees".
  EXPECT_TRUE(d.RowsAgreeOn(0, 3, {}));
}

TEST(DatasetTest, CompareProjectionsIsConsistent) {
  Dataset d = SmallDataset();
  std::vector<AttributeIndex> attrs{0, 2};
  for (RowIndex i = 0; i < 4; ++i) {
    for (RowIndex j = 0; j < 4; ++j) {
      int cmp = d.CompareProjections(i, j, attrs);
      EXPECT_EQ(cmp == 0, d.RowsAgreeOn(i, j, attrs));
      EXPECT_EQ(cmp, -d.CompareProjections(j, i, attrs));
    }
  }
}

TEST(DatasetTest, HashProjectionRespectsEquality) {
  Dataset d = SmallDataset();
  std::vector<AttributeIndex> attrs{0, 1};
  EXPECT_EQ(d.HashProjection(0, attrs), d.HashProjection(1, attrs));
  EXPECT_NE(d.HashProjection(0, attrs), d.HashProjection(2, attrs));
}

TEST(DatasetTest, SelectRowsPreservesValues) {
  Dataset d = SmallDataset();
  Dataset sub = d.SelectRows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.code(0, 0), d.code(2, 0));
  EXPECT_EQ(sub.code(1, 2), d.code(0, 2));
  EXPECT_EQ(sub.FormatRow(0), d.FormatRow(2));
}

TEST(DatasetTest, FormatRowUsesDictionary) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.FormatRow(0), "SF|94103|30");
}

TEST(DatasetTest, MakeValidatesShape) {
  auto bad = Dataset::Make(Schema({"a"}), {Column({0, 1}), Column({0, 1})});
  EXPECT_FALSE(bad.ok());
  auto ragged = Dataset::Make(Schema({"a", "b"}),
                              {Column({0, 1}), Column({0, 1, 2})});
  EXPECT_FALSE(ragged.ok());
}

// ---------------------------------------------------------------- Builder

TEST(DatasetBuilderTest, RejectsWrongArity) {
  DatasetBuilder b({"a", "b"});
  EXPECT_FALSE(b.AddRow({"only-one"}).ok());
  EXPECT_TRUE(b.AddRow({"1", "2"}).ok());
  EXPECT_EQ(b.num_rows(), 1u);
}

// ------------------------------------------------------------- CSV loader

TEST(CsvLoaderTest, LoadsAndEncodes) {
  auto d = LoadCsvDatasetFromString("name,team\nann,red\nbob,red\nann,blue\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_rows(), 3u);
  EXPECT_EQ(d->num_attributes(), 2u);
  // "ann" appears twice -> same code.
  EXPECT_EQ(d->code(0, 0), d->code(2, 0));
  EXPECT_NE(d->code(0, 1), d->code(2, 1));
  EXPECT_EQ(d->schema().name(1), "team");
}

TEST(CsvLoaderTest, HeaderlessGetsAnonymousSchema) {
  CsvOptions options;
  options.has_header = false;
  auto d = LoadCsvDatasetFromString("1,2\n3,4\n", options);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_rows(), 2u);
  EXPECT_EQ(d->schema().name(0), "a0");
}

TEST(CsvLoaderTest, PropagatesParseError) {
  auto d = LoadCsvDatasetFromString("a,b\n1\n");
  EXPECT_FALSE(d.ok());
}

// ------------------------------------------------------------ concat

TEST(ConcatTest, RemapsIndependentDictionaries) {
  // Same values, inserted in different orders: per-part codes differ,
  // the union must still compare values correctly.
  DatasetBuilder a({"city"});
  ASSERT_TRUE(a.AddRow({"SF"}).ok());
  ASSERT_TRUE(a.AddRow({"LA"}).ok());
  DatasetBuilder b({"city"});
  ASSERT_TRUE(b.AddRow({"LA"}).ok());
  ASSERT_TRUE(b.AddRow({"SF"}).ok());
  ASSERT_TRUE(b.AddRow({"NY"}).ok());
  Dataset da = std::move(a).Finish();
  Dataset db = std::move(b).Finish();
  auto merged = ConcatDatasets({&da, &db});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->num_rows(), 5u);
  EXPECT_EQ(merged->FormatRow(0), "SF");
  EXPECT_EQ(merged->FormatRow(1), "LA");
  EXPECT_EQ(merged->FormatRow(2), "LA");
  EXPECT_EQ(merged->FormatRow(3), "SF");
  EXPECT_EQ(merged->FormatRow(4), "NY");
  EXPECT_EQ(merged->code(0, 0), merged->code(3, 0));  // both SF
  EXPECT_EQ(merged->code(1, 0), merged->code(2, 0));  // both LA
  EXPECT_NE(merged->code(0, 0), merged->code(4, 0));
  EXPECT_EQ(merged->column(0).cardinality(), 3u);
}

TEST(ConcatTest, RejectsMismatches) {
  DatasetBuilder a({"x"});
  ASSERT_TRUE(a.AddRow({"1"}).ok());
  DatasetBuilder b({"y"});
  ASSERT_TRUE(b.AddRow({"1"}).ok());
  Dataset da = std::move(a).Finish();
  Dataset db = std::move(b).Finish();
  EXPECT_FALSE(ConcatDatasets({&da, &db}).ok());  // schema names differ
  EXPECT_FALSE(ConcatDatasets({}).ok());

  // Dictionary vs raw encoding at the same position.
  Dataset raw(Schema({"x"}), {Column({0, 1, 0})});
  EXPECT_FALSE(ConcatDatasets({&da, &raw}).ok());
}

TEST(ConcatTest, AppendsRawCodesWithWidenedCardinality) {
  Dataset a(Schema({"x"}), {Column({0, 1}, 2)});
  Dataset b(Schema({"x"}), {Column({4, 2}, 5)});
  auto merged = ConcatDatasets({&a, &b});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->column(0).cardinality(), 5u);
  EXPECT_EQ(merged->code(2, 0), 4u);
}

}  // namespace
}  // namespace qikey
