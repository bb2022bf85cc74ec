#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/csv.hpp"

namespace bluescale::stats {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class csv_test : public ::testing::Test {
protected:
    // One file per test: ctest -j runs these tests in parallel processes.
    std::string path_ =
        ::testing::TempDir() + "csv_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";
    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(csv_test, writes_header_and_rows) {
    {
        csv_writer w(path_, {"a", "b"});
        ASSERT_TRUE(w.ok());
        w.add_row({"1", "2"});
        w.add_row({"3", "4"});
    }
    EXPECT_EQ(read_file(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(csv_test, quotes_cells_with_commas) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"a,b"});
    }
    EXPECT_EQ(read_file(path_), "x\n\"a,b\"\n");
}

TEST_F(csv_test, escapes_embedded_quotes) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"say \"hi\""});
    }
    EXPECT_EQ(read_file(path_), "x\n\"say \"\"hi\"\"\"\n");
}

TEST_F(csv_test, quotes_newlines) {
    {
        csv_writer w(path_, {"x"});
        w.add_row({"two\nlines"});
    }
    EXPECT_EQ(read_file(path_), "x\n\"two\nlines\"\n");
}

TEST(csv, reports_unwritable_path) {
    csv_writer w("/nonexistent_dir_zz/file.csv", {"a"});
    EXPECT_FALSE(w.ok());
}

} // namespace
} // namespace bluescale::stats
