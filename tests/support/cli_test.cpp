#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "support/contract.hpp"

namespace qsm::support {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.flag_i64("n", 100, "problem size")
      .flag_f64("gap", 3.0, "gap in cycles/byte")
      .flag_bool("verbose", false, "chatty output")
      .flag_str("machine", "default", "machine preset");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const std::array argv{"prog"};
  ASSERT_TRUE(p.parse(1, argv.data()));
  EXPECT_EQ(p.i64("n"), 100);
  EXPECT_DOUBLE_EQ(p.f64("gap"), 3.0);
  EXPECT_FALSE(p.boolean("verbose"));
  EXPECT_EQ(p.str("machine"), "default");
}

TEST(ArgParser, EqualsFormParses) {
  auto p = make_parser();
  const std::array argv{"prog", "--n=4096", "--gap=1.5", "--verbose=true",
                        "--machine=t3e"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.i64("n"), 4096);
  EXPECT_DOUBLE_EQ(p.f64("gap"), 1.5);
  EXPECT_TRUE(p.boolean("verbose"));
  EXPECT_EQ(p.str("machine"), "t3e");
}

TEST(ArgParser, SpaceFormParses) {
  auto p = make_parser();
  const std::array argv{"prog", "--n", "77", "--machine", "now"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.i64("n"), 77);
  EXPECT_EQ(p.str("machine"), "now");
}

TEST(ArgParser, BareBooleanFlagMeansTrue) {
  auto p = make_parser();
  const std::array argv{"prog", "--verbose", "--n", "5"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(p.boolean("verbose"));
  EXPECT_EQ(p.i64("n"), 5);
}

TEST(ArgParser, UnknownFlagThrows) {
  auto p = make_parser();
  const std::array argv{"prog", "--bogus=1"};
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(ArgParser, NonNumericValueThrows) {
  // A numeric prefix is not a number: "--n=1e6" must not read as 1.
  for (const char* bad :
       {"--n=abc", "--n=12abc", "--n=1e6", "--n=", "--gap=1.5x", "--gap=x"}) {
    auto p = make_parser();
    const std::array argv{"prog", bad};
    EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
                 std::runtime_error)
        << bad;
  }
}

TEST(ArgParser, IntAccessorRejectsValuesOutsideInt) {
  auto p = make_parser();
  const std::array argv{"prog", "--n", "4294967297"};
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.i64("n"), 4294967297LL);
  try {
    (void)p.i32("n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--n value 4294967297"),
              std::string::npos)
        << e.what();
  }
  const std::array fits{"prog", "--n=-2147483648"};
  ASSERT_TRUE(p.parse(static_cast<int>(fits.size()), fits.data()));
  EXPECT_EQ(p.i32("n"), -2147483647 - 1);
}

TEST(ArgParser, MissingValueThrows) {
  auto p = make_parser();
  const std::array argv{"prog", "--n"};
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(ArgParser, PositionalArgumentThrows) {
  auto p = make_parser();
  const std::array argv{"prog", "stray"};
  EXPECT_THROW(p.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(ArgParser, HelpReturnsFalse) {
  auto p = make_parser();
  const std::array argv{"prog", "--help"};
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, HelpListsFlags) {
  auto p = make_parser();
  const std::string h = p.help();
  EXPECT_NE(h.find("--n"), std::string::npos);
  EXPECT_NE(h.find("--machine"), std::string::npos);
  EXPECT_NE(h.find("problem size"), std::string::npos);
}

}  // namespace
}  // namespace qsm::support
