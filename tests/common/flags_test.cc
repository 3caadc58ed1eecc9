#include "common/flags.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace loco::common
