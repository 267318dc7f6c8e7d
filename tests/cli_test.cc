// Integration tests for the pcbl CLI: each test drives RunCli directly
// (no process boundary) against temp files, covering the end-to-end flow
// synth -> profile -> build -> render/inspect/estimate/error.
#include "cli/cli.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/str.h"

namespace pcbl {
namespace cli {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun RunTool(const std::vector<std::string>& argv) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code = RunCli(argv, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/pcbl_cli_test_" + name;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class CliPipelineTest : public testing::Test {
 protected:
  // One shared fig2 CSV + label for the read-only commands.
  static void SetUpTestSuite() {
    csv_path_ = new std::string(TempPath("fig2.csv"));
    label_path_ = new std::string(TempPath("fig2.json"));
    CliRun synth = RunTool({"synth", "fig2", "--out", *csv_path_});
    PCBL_CHECK(synth.code == 0);
    CliRun build = RunTool({"build", *csv_path_, "--bound", "5", "--out",
                        *label_path_, "--name", "fig2-demo"});
    PCBL_CHECK(build.code == 0);
  }
  static void TearDownTestSuite() {
    std::remove(csv_path_->c_str());
    std::remove(label_path_->c_str());
    delete csv_path_;
    delete label_path_;
  }

  static std::string* csv_path_;
  static std::string* label_path_;
};

std::string* CliPipelineTest::csv_path_ = nullptr;
std::string* CliPipelineTest::label_path_ = nullptr;

TEST(CliTest, NoArgumentsPrintsUsageWithCode2) {
  CliRun run = RunTool({});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(Contains(run.out, "usage: pcbl"));
}

TEST(CliTest, HelpCommandSucceeds) {
  CliRun run = RunTool({"help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_TRUE(Contains(run.out, "build"));
  EXPECT_TRUE(Contains(run.out, "render"));
}

TEST(CliTest, UnknownCommandFails) {
  CliRun run = RunTool({"frobnicate"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(Contains(run.err, "unknown command"));
}

TEST(CliTest, EveryCommandHasHelp) {
  for (const char* cmd : {"profile", "build", "render", "estimate", "error",
                          "synth", "inspect", "audit", "bucketize"}) {
    CliRun run = RunTool({cmd, "--help"});
    EXPECT_EQ(run.code, 0) << cmd;
    EXPECT_TRUE(Contains(run.out, "usage: pcbl ")) << cmd;
  }
}

TEST(CliTest, UnknownFlagRejected) {
  CliRun run = RunTool({"profile", "--bogus", "x.csv"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(Contains(run.err, "unknown flag --bogus"));
}

TEST(CliTest, MissingFileReportsIoError) {
  CliRun run = RunTool({"profile", TempPath("does_not_exist.csv")});
  EXPECT_EQ(run.code, 1);
  EXPECT_FALSE(run.err.empty());
}

TEST(CliTest, SynthValidation) {
  EXPECT_EQ(RunTool({"synth", "nosuch", "--out", TempPath("x.csv")}).code, 2);
  EXPECT_EQ(RunTool({"synth", "fig2"}).code, 2);  // missing --out
  EXPECT_EQ(
      RunTool({"synth", "compas", "--rows", "-5", "--out", TempPath("x.csv")})
          .code,
      2);
}

TEST_F(CliPipelineTest, ProfileShowsShape) {
  CliRun run = RunTool({"profile", *csv_path_});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "18 rows, 4 attributes"));
  EXPECT_TRUE(Contains(run.out, "marital status"));
}

TEST_F(CliPipelineTest, BuildReportsPaperExample) {
  // Example 3.7: bound 5 on the Fig. 2 fragment selects
  // {age group, marital status} with |PC| = 3.
  CliRun run = RunTool({"build", *csv_path_, "--bound", "5"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "age group, marital status"));
  EXPECT_TRUE(Contains(run.out, "label size |PC|:   3"));
}

TEST_F(CliPipelineTest, NaiveAlgorithmAgreesOnTheExample) {
  CliRun run = RunTool({"build", *csv_path_, "--bound", "5", "--algo", "naive"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "age group, marital status"));
}

TEST_F(CliPipelineTest, BuildValidatesFlags) {
  EXPECT_EQ(RunTool({"build", *csv_path_, "--algo", "quantum"}).code, 2);
  EXPECT_EQ(RunTool({"build", *csv_path_, "--metric", "nope"}).code, 2);
  EXPECT_EQ(RunTool({"build", *csv_path_, "--bound", "ten"}).code, 2);
  EXPECT_EQ(RunTool({"build", *csv_path_, "--focus", "nosuch"}).code, 1);
  EXPECT_EQ(RunTool({"build", *csv_path_, "--focus", ","}).code, 2);
}

TEST_F(CliPipelineTest, BuildWithFocusRanksAgainstSensitivePatterns) {
  // Definition 2.15's custom P: rank against gender x race patterns only.
  CliRun run = RunTool({"build", *csv_path_, "--bound", "8", "--focus",
                        "gender, race"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "error over patterns over {gender, race}"));
  // The fragment has 6 distinct gender x race combinations.
  EXPECT_TRUE(Contains(run.out, "of 6 evaluated")) << run.out;
}

TEST_F(CliPipelineTest, RenderShowsLabelSections) {
  CliRun run = RunTool({"render", *label_path_});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "fig2-demo"));
  EXPECT_TRUE(Contains(run.out, "gender"));
}

TEST_F(CliPipelineTest, EstimateAnswersExample212) {
  // Example 2.12: Est({gender=Female, age group=20-39,
  // marital status=married}) = 3 under the {age group, marital status}
  // label.
  CliRun run = RunTool({"estimate", *label_path_, "--pattern",
                    "gender=Female, age group=20-39, marital status=married"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "estimate:  3.00")) << run.out;
}

TEST_F(CliPipelineTest, EstimateRequiresPattern) {
  EXPECT_EQ(RunTool({"estimate", *label_path_}).code, 2);
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern", "garbage"}).code, 2);
}

TEST_F(CliPipelineTest, EstimateUnknownAttributeFails) {
  CliRun run = RunTool({"estimate", *label_path_, "--pattern", "nosuch=attr"});
  EXPECT_EQ(run.code, 1);
}

TEST_F(CliPipelineTest, EstimateWithDataReportsTrueCountAndError) {
  // The counting-service-backed spot check: the label over {age group,
  // marital status} answers Example 2.12's pattern with count 3, and the
  // true count from the data agrees (the fragment label is exact there).
  CliRun run = RunTool({"estimate", *label_path_, "--pattern",
                    "gender=Female, age group=20-39, marital status=married",
                    "--data", *csv_path_, "--threads", "2",
                    "--cache-budget", "4096"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "estimate:  3.00")) << run.out;
  EXPECT_TRUE(Contains(run.out, "actual:    3")) << run.out;
  EXPECT_TRUE(Contains(run.out, "abs error: 0.00")) << run.out;
  // The no-memoization setting must agree.
  CliRun serial = RunTool({"estimate", *label_path_, "--pattern",
                       "gender=Female, age group=20-39,"
                       " marital status=married",
                       "--data", *csv_path_, "--cache-budget", "0"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  EXPECT_TRUE(Contains(serial.out, "actual:    3")) << serial.out;
}

TEST_F(CliPipelineTest, EstimateEngineFlagsRequireData) {
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern", "gender=Female",
                 "--threads", "2"})
                .code,
            2);
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern", "gender=Female",
                 "--no-result-cache"})
                .code,
            2);
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern", "gender=Female",
                 "--cache-budget", "0"})
                .code,
            2);
}

TEST_F(CliPipelineTest, ProfilePairsListsPairwiseLabelSizes) {
  CliRun run = RunTool({"profile", *csv_path_, "--pairs", "3", "--threads",
                    "2", "--cache-budget", "1024"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "pairwise label sizes")) << run.out;
  // Fig. 2: the {age group, marital status} pair has the smallest |P_S|
  // (3), which is why the paper's example label uses it.
  EXPECT_TRUE(Contains(run.out, "age group x marital status")) << run.out;
  // The no-memoization setting must agree on the listing.
  CliRun serial =
      RunTool({"profile", *csv_path_, "--pairs", "3", "--cache-budget", "0"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  EXPECT_TRUE(Contains(serial.out, "age group x marital status"))
      << serial.out;
}

TEST_F(CliPipelineTest, ProfileEngineFlagsRequirePairs) {
  EXPECT_EQ(RunTool({"profile", *csv_path_, "--threads", "2"}).code, 2);
  EXPECT_EQ(RunTool({"profile", *csv_path_, "--no-result-cache"}).code, 2);
  EXPECT_EQ(RunTool({"profile", *csv_path_, "--cache-budget", "9"}).code, 2);
  EXPECT_EQ(
      RunTool({"profile", *csv_path_, "--service-budget", "1000"}).code, 2);
}

TEST_F(CliPipelineTest, EstimateAndProfileReportRegistryStats) {
  // Both data-backed commands acquire their service from the process-wide
  // registry and surface its counters (the commands run in-process here,
  // so absolute hit/miss counts accumulate across tests — assert shape,
  // not totals).
  CliRun est = RunTool({"estimate", *label_path_, "--pattern",
                        "gender=Female, age group=20-39,"
                        " marital status=married",
                        "--data", *csv_path_});
  ASSERT_EQ(est.code, 0) << est.err;
  EXPECT_TRUE(Contains(est.out, "registry:")) << est.out;
  EXPECT_TRUE(Contains(est.out, "bytes resident")) << est.out;

  CliRun prof = RunTool({"profile", *csv_path_, "--pairs", "2",
                         "--service-budget", "0"});
  ASSERT_EQ(prof.code, 0) << prof.err;
  EXPECT_TRUE(Contains(prof.out, "registry:")) << prof.out;
  // A second profile over the same data rides the shared warm service;
  // the listing itself must be unchanged.
  CliRun again = RunTool({"profile", *csv_path_, "--pairs", "2"});
  ASSERT_EQ(again.code, 0) << again.err;
  EXPECT_TRUE(Contains(again.out, "age group x marital status"))
      << again.out;
}

TEST_F(CliPipelineTest, ServiceBudgetFlagValidation) {
  // Requires the data-backed mode of each command.
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern", "gender=Female",
                     "--service-budget", "1000"})
                .code,
            2);
  EXPECT_EQ(RunTool({"estimate", *label_path_, "--pattern",
                     "gender=Female", "--data", *csv_path_,
                     "--service-budget", "-3"})
                .code,
            2);
}

TEST_F(CliPipelineTest, ErrorEvaluatesLabelAgainstItsData) {
  CliRun run = RunTool({"error", *label_path_, *csv_path_});
  ASSERT_EQ(run.code, 0) << run.err;
  // The bound-5 label over the fragment is exact (Example 3.7 data).
  EXPECT_TRUE(Contains(run.out, "max abs error:   0"));
  EXPECT_TRUE(Contains(run.out, "18 of 18 evaluated"));
}

TEST_F(CliPipelineTest, ErrorRenderIncludesErrorBlock) {
  CliRun run = RunTool({"error", *label_path_, *csv_path_, "--render"});
  ASSERT_EQ(run.code, 0) << run.err;
  // The rendered label carries the freshly computed error summary (the
  // bottom block of the paper's Fig. 1).
  EXPECT_TRUE(Contains(run.out, "fig2-demo"));
  EXPECT_TRUE(Contains(run.out, "Maximal"));
}

TEST(CliTest, SynthIsDeterministicForSeed) {
  const std::string a = TempPath("seed_a.csv");
  const std::string b = TempPath("seed_b.csv");
  ASSERT_EQ(RunTool({"synth", "bluenile", "--rows", "300", "--seed", "9",
                     "--out", a})
                .code,
            0);
  ASSERT_EQ(RunTool({"synth", "bluenile", "--rows", "300", "--seed", "9",
                     "--out", b})
                .code,
            0);
  std::ifstream fa(a), fb(b);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST_F(CliPipelineTest, ErrorDetectsSchemaMismatch) {
  const std::string other = TempPath("other.csv");
  std::ofstream f(other);
  f << "colA,colB\nx,y\n";
  f.close();
  CliRun run = RunTool({"error", *label_path_, other});
  EXPECT_EQ(run.code, 1);
  EXPECT_TRUE(Contains(run.err, "not in the table schema"));
  std::remove(other.c_str());
}

TEST_F(CliPipelineTest, DiffOfLabelWithItselfIsQuiet) {
  CliRun run = RunTool({"diff", *label_path_, *label_path_});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "rows: 18 -> 18 (+0)"));
  EXPECT_TRUE(Contains(run.out, "pattern count changes"));
  EXPECT_TRUE(Contains(run.out, ": 0"));
}

TEST_F(CliPipelineTest, DiffValidation) {
  EXPECT_EQ(RunTool({"diff", *label_path_}).code, 2);
  EXPECT_EQ(
      RunTool({"diff", *label_path_, TempPath("missing_label.json")}).code,
      1);
}

TEST_F(CliPipelineTest, InspectSummarizesLabel) {
  CliRun run = RunTool({"inspect", *label_path_});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "fig2-demo"));
  EXPECT_TRUE(Contains(run.out, "|PC|:          3"));
  EXPECT_TRUE(Contains(run.out, "age group, marital status"));
}

TEST_F(CliPipelineTest, BinaryLabelRoundTripsThroughRender) {
  const std::string bin = TempPath("fig2.bin");
  CliRun build = RunTool({"build", *csv_path_, "--bound", "5", "--out", bin,
                      "--binary"});
  ASSERT_EQ(build.code, 0) << build.err;
  EXPECT_TRUE(Contains(build.out, "(binary)"));
  CliRun render = RunTool({"render", bin});
  EXPECT_EQ(render.code, 0) << render.err;
  EXPECT_TRUE(Contains(render.out, "gender"));
  std::remove(bin.c_str());
}

TEST_F(CliPipelineTest, AuditFlagsEverythingOnTinyData) {
  // 18 rows: every intersection is far below the default min-count.
  CliRun run = RunTool({"audit", *label_path_, "--min-count", "100"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(Contains(run.out, "[underrepresented]"));
  EXPECT_TRUE(Contains(run.out, "gender="));
}

TEST_F(CliPipelineTest, AuditValidatesFlags) {
  EXPECT_EQ(RunTool({"audit", *label_path_, "--attrs", "nosuch"}).code, 1);
  EXPECT_EQ(RunTool({"audit", *label_path_, "--min-count", "abc"}).code, 2);
}

TEST(CliTest, BucketizePipelineFeedsBuild) {
  const std::string csv = TempPath("numeric.csv");
  {
    std::ofstream f(csv);
    f << "grade,score\n";
    for (int i = 0; i < 40; ++i) {
      f << (i % 2 == 0 ? "pass" : "fail") << "," << (50 + i) << "\n";
    }
  }
  const std::string binned = TempPath("binned.csv");
  CliRun bucketize = RunTool({"bucketize", csv, "--bins", "4", "--out",
                              binned});
  ASSERT_EQ(bucketize.code, 0) << bucketize.err;
  EXPECT_TRUE(Contains(bucketize.out, "[score]"));
  // The binned output is fully categorical and feeds the search directly.
  CliRun build = RunTool({"build", binned, "--bound", "10"});
  EXPECT_EQ(build.code, 0) << build.err;
  std::remove(csv.c_str());
  std::remove(binned.c_str());
}

TEST(CliTest, BucketizeValidation) {
  const std::string csv = TempPath("nonnumeric.csv");
  {
    std::ofstream f(csv);
    f << "a,b\nx,y\n";
  }
  EXPECT_EQ(RunTool({"bucketize", csv}).code, 2);  // missing --out
  CliRun run = RunTool({"bucketize", csv, "--out", TempPath("o.csv")});
  EXPECT_EQ(run.code, 2);  // no numeric attributes
  EXPECT_EQ(RunTool({"bucketize", csv, "--out", TempPath("o.csv"),
                     "--strategy", "sideways"})
                .code,
            2);
  std::remove(csv.c_str());
}

TEST_F(CliPipelineTest, SynthCompasWritesRequestedRows) {
  const std::string path = TempPath("compas_small.csv");
  CliRun synth =
      RunTool({"synth", "compas", "--rows", "500", "--seed", "7", "--out", path});
  ASSERT_EQ(synth.code, 0) << synth.err;
  EXPECT_TRUE(Contains(synth.out, "500 rows"));
  CliRun profile = RunTool({"profile", path});
  EXPECT_EQ(profile.code, 0);
  EXPECT_TRUE(Contains(profile.out, "500 rows, 17 attributes"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cli
}  // namespace pcbl
