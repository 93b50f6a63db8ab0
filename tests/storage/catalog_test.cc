#include "src/storage/catalog.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "src/engine/query.h"
#include "src/lang/parser.h"

namespace vqldb {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs tests as parallel processes.
    dir_ = ::testing::TempDir() + "/catalog_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CatalogTest, SaveLoadList) {
  Catalog catalog(dir_);
  ASSERT_TRUE(catalog.SaveProgram("news", "q(X) <- p(X).").ok());
  ASSERT_TRUE(catalog.SaveProgram("allen", StandardRuleLibrary()).ok());
  auto names = catalog.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"allen", "news"}));
  auto text = catalog.LoadProgram("news");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "q(X) <- p(X).");
}

TEST_F(CatalogTest, OverwriteReplaces) {
  Catalog catalog(dir_);
  ASSERT_TRUE(catalog.SaveProgram("p", "a(o1).").ok());
  ASSERT_TRUE(catalog.SaveProgram("p", "b(o1).").ok());
  EXPECT_EQ(*catalog.LoadProgram("p"), "b(o1).");
}

TEST_F(CatalogTest, MissingProgramIsNotFound) {
  Catalog catalog(dir_);
  EXPECT_TRUE(catalog.LoadProgram("ghost").status().IsNotFound());
}

TEST_F(CatalogTest, Remove) {
  Catalog catalog(dir_);
  ASSERT_TRUE(catalog.SaveProgram("p", "a(o1).").ok());
  ASSERT_TRUE(catalog.Remove("p").ok());
  EXPECT_TRUE(catalog.LoadProgram("p").status().IsNotFound());
  EXPECT_TRUE(catalog.Remove("p").IsNotFound());
}

TEST_F(CatalogTest, InvalidNamesRejected) {
  Catalog catalog(dir_);
  EXPECT_TRUE(catalog.SaveProgram("", "x.").IsInvalidArgument());
  EXPECT_TRUE(catalog.SaveProgram("../evil", "x.").IsInvalidArgument());
  EXPECT_TRUE(catalog.SaveProgram("a b", "x.").IsInvalidArgument());
  EXPECT_TRUE(catalog.SaveProgram("ok-name_2", "x(o1).").ok());
}

TEST_F(CatalogTest, EmptyCatalogLists) {
  Catalog catalog(dir_);
  auto names = catalog.List();
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST_F(CatalogTest, StandardRuleLibraryParsesAndAnalyzes) {
  auto program = Parser::ParseProgram(StandardRuleLibrary());
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_GE(program->Rules().size(), 6u);
  VideoDatabase db;
  QuerySession session(&db);
  EXPECT_TRUE(session.Load(StandardRuleLibrary()).ok());
}

}  // namespace
}  // namespace vqldb
