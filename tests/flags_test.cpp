// Tests for the command-line flag parser.
#include <gtest/gtest.h>

#include "core/check.h"
#include "core/flags.h"

namespace hitopk {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = parse({"--model=vgg19", "--batch=128"});
  EXPECT_EQ(f.get("model"), "vgg19");
  EXPECT_EQ(f.get_int("batch", 0), 128);
}

TEST(Flags, SpaceSyntax) {
  const Flags f = parse({"--model", "resnet50", "--density", "0.01"});
  EXPECT_EQ(f.get("model"), "resnet50");
  EXPECT_DOUBLE_EQ(f.get_double("density", 0.0), 0.01);
}

TEST(Flags, BareFlagIsBooleanTrue) {
  const Flags f = parse({"--verbose", "--model=x"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("quiet"));
  EXPECT_TRUE(f.get_bool("quiet", true));
}

TEST(Flags, TrailingBareFlag) {
  const Flags f = parse({"--model=x", "--no-pto"});
  EXPECT_TRUE(f.get_bool("no-pto"));
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("model", "resnet50"), "resnet50");
  EXPECT_EQ(f.get_int("nodes", 16), 16);
  EXPECT_DOUBLE_EQ(f.get_double("density", 0.001), 0.001);
  EXPECT_FALSE(f.has("model"));
}

TEST(Flags, PositionalArgumentsCollected) {
  const Flags f = parse({"input.txt", "--k=2", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, BooleanValueSpellings) {
  const Flags f = parse({"--a=true", "--b=1", "--c=yes", "--d=on", "--e=false",
                         "--f=0"});
  EXPECT_TRUE(f.get_bool("a"));
  EXPECT_TRUE(f.get_bool("b"));
  EXPECT_TRUE(f.get_bool("c"));
  EXPECT_TRUE(f.get_bool("d"));
  EXPECT_FALSE(f.get_bool("e"));
  EXPECT_FALSE(f.get_bool("f"));
}

TEST(Flags, MalformedValuesRaiseConfigError) {
  const Flags f = parse({"--jobs=12x", "--nodes=abc", "--empty=",
                         "--big=4294967296", "--tiny=-4294967296",
                         "--rate=0.5s", "--huge=1e999", "--x=maybe",
                         "--bare"});
  EXPECT_THROW(f.get_int("jobs", 0), ConfigError);
  EXPECT_THROW(f.get_int("nodes", 0), ConfigError);
  EXPECT_THROW(f.get_int("empty", 0), ConfigError);
  EXPECT_THROW(f.get_double("empty", 0.0), ConfigError);
  EXPECT_THROW(f.get_int("big", 0), ConfigError);
  EXPECT_THROW(f.get_int("tiny", 0), ConfigError);
  EXPECT_THROW(f.get_double("rate", 0.0), ConfigError);
  EXPECT_THROW(f.get_double("huge", 0.0), ConfigError);
  EXPECT_THROW(f.get_bool("x"), ConfigError);
  EXPECT_THROW(f.get_int("bare", 0), ConfigError);
  // The spellings bench/e2e/run.sh passes still parse.
  const Flags ok = parse({"--seconds", "20", "--trace", "0", "--on=1",
                          "--off=no", "--neg=-3", "--max=2147483647"});
  EXPECT_DOUBLE_EQ(ok.get_double("seconds", 0.0), 20.0);
  EXPECT_FALSE(ok.get_bool("trace", true));
  EXPECT_TRUE(ok.get_bool("on"));
  EXPECT_FALSE(ok.get_bool("off", true));
  EXPECT_EQ(ok.get_int("neg", 0), -3);
  EXPECT_EQ(ok.get_int("max", 0), 2147483647);
}

TEST(Flags, LastValueWins) {
  const Flags f = parse({"--k=1", "--k=2"});
  EXPECT_EQ(f.get_int("k", 0), 2);
}

}  // namespace
}  // namespace hitopk
