#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace loco::common {
namespace {

TEST(FlagValueTest, SeparateAndJoinedFormsAndMissingValue) {
  char prog[] = "prog", listen[] = "--listen", addr[] = "127.0.0.1:9000",
       joined[] = "--sid=3", other[] = "--listener=x", last[] = "--out";
  char* argv[] = {prog, listen, addr, joined, other, last};
  constexpr int argc = 6;
  std::string value;

  int i = 1;  // `--listen 127.0.0.1:9000` consumes the next argument
  EXPECT_TRUE(FlagValue(argc, argv, &i, "--listen", &value));
  EXPECT_EQ(value, "127.0.0.1:9000");
  EXPECT_EQ(i, 2);

  i = 3;  // `--sid=3` stays on its own argument
  EXPECT_TRUE(FlagValue(argc, argv, &i, "--sid", &value));
  EXPECT_EQ(value, "3");
  EXPECT_EQ(i, 3);

  i = 4;  // a longer flag sharing the prefix is not a match
  EXPECT_FALSE(FlagValue(argc, argv, &i, "--listen", &value));
  EXPECT_EQ(i, 4);

  i = 5;  // the last argument has no value after it
  value = "unchanged";
  EXPECT_FALSE(FlagValue(argc, argv, &i, "--out", &value));
  EXPECT_EQ(value, "unchanged");
  EXPECT_EQ(i, 5);
}

TEST(ParseIntTest, WholeStringInRangeOnly) {
  std::uint32_t u = 7;
  EXPECT_TRUE(ParseInt("42", &u));
  EXPECT_EQ(u, 42u);
  EXPECT_TRUE(ParseInt("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);

  // Every rejection leaves the output as it was.
  u = 7;
  EXPECT_FALSE(ParseInt("", &u));             // empty
  EXPECT_FALSE(ParseInt("12x", &u));          // trailing garbage
  EXPECT_FALSE(ParseInt("12 ", &u));          // trailing space
  EXPECT_FALSE(ParseInt(" 12", &u));          // leading space
  EXPECT_FALSE(ParseInt("+5", &u));           // a plus sign
  EXPECT_FALSE(ParseInt("-1", &u));           // a minus sign, unsigned
  EXPECT_FALSE(ParseInt("4294967296", &u));   // overflow
  EXPECT_EQ(u, 7u);

  int i = 0;
  EXPECT_TRUE(ParseInt("-3", &i));  // a signed type takes a minus sign
  EXPECT_EQ(i, -3);
  EXPECT_FALSE(ParseInt("99999999999", &i));  // overflow
  EXPECT_EQ(i, -3);

  std::uint64_t big = 0;
  EXPECT_TRUE(ParseInt("18446744073709551615", &big));
  EXPECT_EQ(big, UINT64_MAX);
  EXPECT_FALSE(ParseInt("18446744073709551616", &big));
}

}  // namespace
}  // namespace loco::common
