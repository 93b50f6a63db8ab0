#include "src/storage/io_env.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/model/database.h"
#include "src/storage/binary_format.h"

namespace vqldb {
namespace {

class IoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs tests as parallel processes.
    dir_ = ::testing::TempDir() + "/io_env_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::string dir_;
};

TEST_F(IoEnvTest, Crc32cKnownAnswers) {
  // RFC 3720 test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  // "123456789" is the classic check value for CRC-32C.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  // Sensitivity: one flipped bit changes the sum.
  EXPECT_NE(Crc32c("hello world"), Crc32c("hello worle"));
}

TEST_F(IoEnvTest, AppendableFileWritesAndSyncs) {
  std::string path = dir_ + "/f.bin";
  auto file = Env::Default()->NewAppendableFile(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(Slurp(path), "hello world");

  // Reopening appends, never truncates.
  auto again = Env::Default()->NewAppendableFile(path);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE((*again)->Append("!").ok());
  ASSERT_TRUE((*again)->Close().ok());
  EXPECT_EQ(Slurp(path), "hello world!");

  // NewTruncatedFile starts over.
  auto trunc = Env::Default()->NewTruncatedFile(path);
  ASSERT_TRUE(trunc.ok());
  ASSERT_TRUE((*trunc)->Append("fresh").ok());
  ASSERT_TRUE((*trunc)->Close().ok());
  EXPECT_EQ(Slurp(path), "fresh");
}

TEST_F(IoEnvTest, ReadFileToStringAndExists) {
  std::string path = dir_ + "/r.bin";
  EXPECT_FALSE(Env::Default()->FileExists(path));
  EXPECT_FALSE(Env::Default()->ReadFileToString(path).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "abc\0def";  // ofstream stops at the NUL in a C literal
  }
  EXPECT_TRUE(Env::Default()->FileExists(path));
  auto bytes = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "abc");
}

TEST_F(IoEnvTest, RenameAndRemove) {
  std::string from = dir_ + "/from", to = dir_ + "/to";
  {
    std::ofstream out(from);
    out << "payload";
  }
  ASSERT_TRUE(Env::Default()->RenameFile(from, to).ok());
  EXPECT_FALSE(Env::Default()->FileExists(from));
  EXPECT_EQ(Slurp(to), "payload");
  ASSERT_TRUE(Env::Default()->SyncDir(to).ok());
  ASSERT_TRUE(Env::Default()->RemoveFile(to).ok());
  EXPECT_FALSE(Env::Default()->FileExists(to));
}

TEST_F(IoEnvTest, OpenFailsEagerlyThroughRegularFile) {
  // Root bypasses permission bits, so the portable "unwritable" case is a
  // path whose directory component is a regular file (ENOTDIR).
  { std::ofstream f(dir_ + "/file"); }
  auto r = Env::Default()->NewAppendableFile(dir_ + "/file/x.log");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  auto t = Env::Default()->NewTruncatedFile(dir_ + "/file/x.log");
  EXPECT_FALSE(t.ok());
  // And a missing parent directory is also eager.
  EXPECT_FALSE(Env::Default()->NewAppendableFile(dir_ + "/no/dir/x.log").ok());
}

TEST_F(IoEnvTest, FaultScheduleIsDeterministic) {
  auto run = [&](uint64_t seed) {
    FaultOptions faults;
    faults.seed = seed;
    faults.write_fault_p = 0.3;
    FaultInjectingEnv env(Env::Default(), faults);
    std::string path = dir_ + "/det_" + std::to_string(seed);
    auto file = env.NewAppendableFile(path);
    EXPECT_TRUE(file.ok());
    std::string pattern;
    for (int i = 0; i < 40; ++i) {
      pattern.push_back((*file)->Append("0123456789").ok() ? 'o' : 'x');
    }
    return pattern;
  };
  std::string a = run(123), b = run(123), c = run(456);
  EXPECT_EQ(a, b);                       // same seed, same schedule
  EXPECT_NE(a.find('x'), std::string::npos);  // faults actually fire at p=.3
  EXPECT_NE(a, c);                       // different seed, different schedule
}

TEST_F(IoEnvTest, TornWriteLeavesPrefixOnDisk) {
  FaultOptions faults;
  faults.seed = 3;
  faults.write_fault_p = 1.0;
  FaultInjectingEnv env(Env::Default(), faults);
  std::string path = dir_ + "/torn.bin";
  auto file = env.NewAppendableFile(path);
  ASSERT_TRUE(file.ok());
  Status st = (*file)->Append("0123456789");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(env.injected_faults(), 1u);
  // The injected fault wrote a strict prefix (possibly empty, never all).
  std::string on_disk = Slurp(path);
  EXPECT_LT(on_disk.size(), 10u);
  EXPECT_EQ(on_disk, std::string("0123456789").substr(0, on_disk.size()));
}

TEST_F(IoEnvTest, SyncFaultFailsWithoutCrash) {
  FaultOptions faults;
  faults.seed = 5;
  faults.sync_fault_p = 1.0;
  FaultInjectingEnv env(Env::Default(), faults);
  auto file = env.NewAppendableFile(dir_ + "/sync.bin");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  EXPECT_TRUE((*file)->Sync().IsIOError());
  EXPECT_GE(env.injected_faults(), 1u);
}

TEST_F(IoEnvTest, FailOpensRejectsEveryOpen) {
  FaultOptions faults;
  faults.fail_opens = true;
  FaultInjectingEnv env(Env::Default(), faults);
  EXPECT_FALSE(env.NewAppendableFile(dir_ + "/a").ok());
  EXPECT_FALSE(env.NewTruncatedFile(dir_ + "/b").ok());
  EXPECT_EQ(env.injected_faults(), 2u);
  // Pass-through operations still work.
  EXPECT_FALSE(env.FileExists(dir_ + "/a"));
}

TEST_F(IoEnvTest, AtomicSaveLeavesNoTempAndKeepsOldOnFailure) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateEntity("o1").ok());
  std::string path = dir_ + "/snap.vqdb";
  ASSERT_TRUE(BinaryFormat::Save(db, path).ok());
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
  std::string first = Slurp(path);

  // A save whose writes always fail must leave the old snapshot intact and
  // clean up its temp file.
  VideoDatabase db2;
  ASSERT_TRUE(db2.CreateEntity("o2").ok());
  FaultOptions faults;
  faults.seed = 9;
  faults.write_fault_p = 1.0;
  FaultInjectingEnv env(Env::Default(), faults);
  Status st = BinaryFormat::Save(db2, path, &env);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Slurp(path), first);  // old contents untouched
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));

  // A successful save replaces the contents atomically.
  ASSERT_TRUE(BinaryFormat::Save(db2, path).ok());
  auto reloaded = BinaryFormat::Load(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->Resolve("o2").ok());
}

}  // namespace
}  // namespace vqldb
