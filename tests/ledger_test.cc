// The run ledger (src/obs/ledger.h): exact hex-float round-trips —
// write -> parse -> re-emit must reproduce every double bit for bit
// and every line byte for byte — plus the ctstat regression gate: an
// injected >15% makespan growth on a fingerprint must make
// `ctstat --check` exit nonzero (driven through the real binary via
// CTSTAT_BIN, which CMake points at the built ctstat).
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "obs/timeline.h"

namespace cts::obs {
namespace {

LedgerEntry SampleEntry() {
  LedgerEntry e;
  e.bench = "ctsort";
  e.run = "terasort";
  e.fingerprint = "00c0ffee00c0ffee";
  e.code_version = "deadbee";
  e.axes = {{"K", "4"}, {"backend", "priced"}};
  e.values = {{"terasort/total_s", 123.456}};
  e.timeline = {{"des/inflight_flows", "0123456789abcdef"}};
  return e;
}

TEST(Ledger, HexFloatIsExact) {
  const std::vector<double> nasty = {
      0.0,
      -0.0,
      1.0 / 3.0,
      0.1,
      3.141592653589793,
      1e308,
      -1.7976931348623157e308,   // -DBL_MAX
      2.2250738585072014e-308,   // DBL_MIN
      4.9406564584124654e-324,   // smallest denormal
      -4.9406564584124654e-324,
      std::numeric_limits<double>::infinity(),
  };
  for (const double v : nasty) {
    const std::string text = HexFloat(v);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    ASSERT_NE(end, text.c_str()) << text;
    EXPECT_EQ(*end, '\0') << text;
    std::uint64_t vb = 0, bb = 0;
    std::memcpy(&vb, &v, 8);
    std::memcpy(&bb, &back, 8);
    EXPECT_EQ(vb, bb) << text;  // bitwise, so -0.0 stays -0.0
  }
}

TEST(Ledger, SerializeParseRoundTripsBytes) {
  LedgerEntry e = SampleEntry();
  e.values["nasty/third"] = 1.0 / 3.0;
  e.values["nasty/neg_zero"] = -0.0;
  e.values["nasty/denormal"] = 4.9406564584124654e-324;
  e.axes["quote\"and\\slash"] = "tab\there";

  const std::string line = SerializeEntry(e);
  LedgerEntry parsed;
  std::string error;
  ASSERT_TRUE(ParseEntry(line, &parsed, &error)) << error;
  EXPECT_TRUE(parsed == e);
  EXPECT_EQ(SerializeEntry(parsed), line);

  // -0.0 must survive as -0.0, not 0.0: map equality uses ==, which
  // aliases the two, so check the sign bit explicitly.
  EXPECT_TRUE(std::signbit(parsed.values.at("nasty/neg_zero")));
}

TEST(Ledger, ParseRejectsMalformedLines) {
  LedgerEntry out;
  std::string error;
  EXPECT_FALSE(ParseEntry("", &out, &error));
  EXPECT_FALSE(ParseEntry("{}", &out, &error));
  EXPECT_FALSE(ParseEntry("{\"unknown\":\"x\"}", &out, &error));
  EXPECT_FALSE(ParseEntry("{\"bench\":\"b\"} trailing", &out, &error));
  EXPECT_FALSE(
      ParseEntry("{\"values\":{\"k\":\"not-a-number\"}}", &out, &error));
  EXPECT_FALSE(
      ParseEntry("{\"axes\":{\"k\":\"a\",\"k\":\"b\"}}", &out, &error));
}

TEST(Ledger, AppendAndReadBack) {
  const std::string path = "ledger_test_appends.jsonl";
  std::remove(path.c_str());
  LedgerEntry first = SampleEntry();
  LedgerEntry second = SampleEntry();
  second.run = "coded";
  second.values["coded/total_s"] = 0.25;
  ASSERT_TRUE(AppendEntry(path, first));
  ASSERT_TRUE(AppendEntry(path, second));

  std::string error;
  const std::vector<LedgerEntry> entries = ReadLedger(path, &error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0] == first);
  EXPECT_TRUE(entries[1] == second);
  std::remove(path.c_str());
}

TEST(Ledger, DigestTimelineFillsSeriesDigests) {
  Timeline tl;
  tl.Sample("des/inflight_flows", 0, 1);
  tl.Sample("live/stripe_contention", 0, 0.5);
  LedgerEntry e;
  DigestTimeline(tl, e);
  ASSERT_EQ(e.timeline.size(), 2u);
  EXPECT_EQ(e.timeline.at("des/inflight_flows"),
            HexDigest(tl.SeriesDigest("des/inflight_flows")));
  EXPECT_EQ(e.timeline.at("des/inflight_flows").size(), 16u);
}

TEST(Ledger, FingerprintIsStable) {
  EXPECT_EQ(Fingerprint64("abc"), Fingerprint64("abc"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
  EXPECT_EQ(HexDigest(0).size(), 16u);
  EXPECT_EQ(HexDigest(0xdeadbeefULL),
            "00000000deadbeef");
}

// ---- The built ctstat binary, end to end ----

class CtstatGate : public ::testing::Test {
 protected:
  void SetUp() override {
    bin_ = std::getenv("CTSTAT_BIN");
    if (bin_ == nullptr || *bin_ == '\0') {
      GTEST_SKIP() << "CTSTAT_BIN not set (run through ctest)";
    }
  }

  int Run(const std::string& args) {
    const std::string cmd = std::string(bin_) + " " + args;
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // Two entries per fingerprint: baseline 100 s, candidate
  // 100 * (1 + growth) s.
  static void WriteGateLedger(const std::string& path, double growth) {
    std::remove(path.c_str());
    LedgerEntry base = SampleEntry();
    base.values = {{"terasort/total_s", 100.0}};
    LedgerEntry candidate = base;
    candidate.values = {{"terasort/total_s", 100.0 * (1.0 + growth)}};
    ASSERT_TRUE(AppendEntry(path, base));
    ASSERT_TRUE(AppendEntry(path, candidate));
  }

  const char* bin_ = nullptr;
};

TEST_F(CtstatGate, CheckFailsOnInjectedRegression) {
  const std::string path = "ledger_test_regressed.jsonl";
  WriteGateLedger(path, /*growth=*/0.20);  // 20% > the 15% threshold
  EXPECT_EQ(Run("--ledger=" + path + " --check --quiet > /dev/null 2>&1"),
            1);
  std::remove(path.c_str());
}

TEST_F(CtstatGate, CheckPassesWithinThreshold) {
  const std::string path = "ledger_test_clean.jsonl";
  WriteGateLedger(path, /*growth=*/0.05);
  EXPECT_EQ(Run("--ledger=" + path + " --check --quiet > /dev/null 2>&1"),
            0);
  std::remove(path.c_str());
}

TEST_F(CtstatGate, UsageErrorsExitTwo) {
  EXPECT_EQ(Run("--check --quiet > /dev/null 2>&1"), 2);  // no --ledger
  EXPECT_EQ(Run("--ledger=ledger_test_does_not_exist.jsonl --quiet "
                "> /dev/null 2>&1"),
            2);
}

// `ctstat --re-emit` must reproduce a well-formed ledger byte for
// byte — the end-to-end form of the exactness rule.
TEST_F(CtstatGate, ReEmitIsByteIdentical) {
  const std::string path = "ledger_test_reemit.jsonl";
  const std::string out_path = "ledger_test_reemit.out";
  std::remove(path.c_str());
  LedgerEntry e = SampleEntry();
  e.values["nasty/third"] = 1.0 / 3.0;
  e.values["nasty/denormal"] = 4.9406564584124654e-324;
  ASSERT_TRUE(AppendEntry(path, e));
  e.run = "coded";
  e.values["nasty/third"] = -1.0 / 3.0;
  ASSERT_TRUE(AppendEntry(path, e));

  ASSERT_EQ(Run("--ledger=" + path + " --re-emit --quiet > " + out_path),
            0);
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(out_path), slurp(path));
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace cts::obs
