// Golden-file tests for the paper's two headline reports (the Figure 3
// summary and the Figure 4 code-path trace) and for the structure reports
// (call graph, processes, histogram), rendered from fixed, deterministic
// captures (the simulator is bit-exact across runs, see determinism_test).
// Any change to capture, decode or formatting shows up as a readable diff
// against tests/golden/.
//
// To regenerate after an intentional change:
//   HWPROF_REGEN_GOLDEN=1 ./build/tests/golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/analysis/summary.h"
#include "src/analysis/trace_report.h"
#include "src/base/assert.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/fault_injection.h"
#include "src/profhw/smart_socket.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"
#include "tools/analyze_main.h"
#include "tools/convert_main.h"

namespace hwprof {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(HWPROF_TEST_DIR) + "/golden/" + name;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("HWPROF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write to " << path << " failed";
    GTEST_SKIP() << "regenerated " << name;
  }
  std::string expected;
  ASSERT_TRUE(ReadFile(path, &expected))
      << path << " is missing; run with HWPROF_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected)
      << name << " drifted; if the change is intentional, regenerate with "
      << "HWPROF_REGEN_GOLDEN=1";
}

// One fixed capture shared by both goldens (building it dominates runtime).
// The testbed outlives the decode: DecodedTrace points into its TagFile.
const DecodedTrace& ReferenceDecode() {
  static const DecodedTrace* decoded = [] {
    auto* tb = new Testbed();
    tb->Arm();
    RunNetworkReceive(*tb, Sec(2), 128 * 1024, false);
    const RawTrace raw = tb->StopAndUpload();
    return new DecodedTrace(Decoder::Decode(raw, tb->tags()));
  }();
  return *decoded;
}

TEST(Golden, Figure3SummaryOfTheNetworkReceive) {
  CheckGolden("net_receive_summary.txt", Summary(ReferenceDecode()).Format(20));
}

TEST(Golden, Figure4CodePathTraceOfTheNetworkReceive) {
  TraceReportOptions opts;
  opts.max_lines = 120;
  CheckGolden("net_receive_trace.txt", TraceReport::Format(ReferenceDecode(), opts));
}

// Captures for the Table 1 and Figure 5 goldens, each decoded twice: in
// full, and keeping only what the tool keeps for that report (the stats for
// the summary, the steps of the first 160 lines for the trace). The golden
// file pins the report, and the second decode pins that the bounded
// decode renders it identically on a real workload.
struct DualDecode {
  Testbed tb;
  DecodedTrace serial;
  DecodedTrace bounded;
};

const DualDecode& MixedDecode() {
  static const DualDecode* decoded = [] {
    auto* d = new DualDecode();
    d->tb.Arm();
    RunMixed(d->tb, Msec(300));
    const RawTrace raw = d->tb.StopAndUpload();
    d->serial = Decoder::Decode(raw, d->tb.tags());
    d->bounded = StreamingDecoder(d->tb.tags(), raw.timer_bits, raw.timer_clock_hz,
                                  StreamingOptions{.retain_structure = false})
                     .DecodeAll(raw);
    return d;
  }();
  return *decoded;
}

const DualDecode& ForkExecDecode() {
  static const DualDecode* decoded = [] {
    auto* d = new DualDecode();
    d->tb.Arm();
    RunForkExec(d->tb, 3, Sec(2));
    const RawTrace raw = d->tb.StopAndUpload();
    d->serial = Decoder::Decode(raw, d->tb.tags());
    d->bounded = StreamingDecoder(d->tb.tags(), raw.timer_bits, raw.timer_clock_hz,
                                  StreamingOptions{.retain_structure = true, .step_lines = 160})
                     .DecodeAll(raw);
    return d;
  }();
  return *decoded;
}

TEST(Golden, Table1PerFunctionTimingsOfTheMixedWorkload) {
  const std::string report = Summary(MixedDecode().serial).Format(30);
  EXPECT_EQ(Summary(MixedDecode().bounded).Format(30), report)
      << "stats-only decode diverged from the full one on the mixed capture";
  CheckGolden("mixed_summary.txt", report);
}

TEST(Golden, Figure5ForkExecCodePath) {
  TraceReportOptions opts;
  opts.max_lines = 160;
  const std::string report = TraceReport::Format(ForkExecDecode().serial, opts);
  EXPECT_EQ(TraceReport::Format(ForkExecDecode().bounded, opts), report)
      << "bounded-steps decode diverged from the full one on the fork/exec capture";
  EXPECT_LT(ForkExecDecode().bounded.steps.size(), ForkExecDecode().serial.steps.size());
  CheckGolden("fork_exec_trace.txt", report);
}

// The binary (hwpb) twin of the committed net_receive capture. The text
// golden is the source of truth (export_test regenerates it from the live
// workload); this test pins that the committed .bin is its exact canonical
// encode, that the .bin decodes back to the text golden byte-for-byte, and
// that the hwprof_convert entry point translates one committed golden into
// the other bit-identically — which is what CI's format-matrix job runs
// against the real binaries.
TEST(Golden, BinaryNetReceiveCaptureIsTheTextGoldensTwin) {
  const std::string text_path = GoldenPath("net_receive.capture");
  std::string text;
  ASSERT_TRUE(ReadFile(text_path, &text))
      << text_path << " is missing; regenerate via export_test with "
      << "HWPROF_REGEN_GOLDEN=1 first";
  RawTrace raw;
  CaptureReader reader(text, /*salvage=*/false);
  ASSERT_TRUE(ReadCapture(reader, &raw, nullptr));
  CheckGolden("net_receive.capture.bin", EncodeCaptureBinary(raw));

  std::string bin;
  ASSERT_TRUE(ReadFile(GoldenPath("net_receive.capture.bin"), &bin));
  RawTrace back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(DecodeCaptureBinary(bin, &back, &diags))
      << (diags.empty() ? "" : diags[0].message);
  EXPECT_EQ(back.Serialize(), text)
      << "the committed binary golden no longer decodes to the text golden";

  const std::string converted =
      ::testing::TempDir() + "/net_receive_converted.hwpb";
  const char* argv[] = {"hwprof_convert", text_path.c_str(), converted.c_str()};
  std::string error;
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(ConvertMain(3, argv, &error), 0) << error;
  ::testing::internal::GetCapturedStdout();
  std::string converted_bytes;
  ASSERT_TRUE(ReadFile(converted, &converted_bytes));
  EXPECT_EQ(converted_bytes, bin)
      << "hwprof_convert of the text golden drifted from the binary golden";
}

// The structure reports through the tool, on the committed net_receive
// capture and on a damaged copy of it. The damage (dropped, duplicated and
// bit-flipped words, timer glitches, a cut-off tail) makes the decoder
// force-close calls mid-trace, close the in-flight stack at the truncation,
// count orphan exits and unknown tags, so every close path a report can see
// is pinned.
std::string AnalyzeReport(const std::string& capture,
                          std::initializer_list<const char*> report) {
  const std::string names = GoldenPath("net_receive.names");
  std::vector<const char*> argv{"hwprof_analyze", capture.c_str(), names.c_str()};
  argv.insert(argv.end(), report.begin(), report.end());
  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = AnalyzeMain(static_cast<int>(argv.size()), argv.data(), &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  return out;
}

const std::string& DamagedCapturePath() {
  static const std::string* path = [] {
    std::string text;
    HWPROF_CHECK(ReadFile(GoldenPath("net_receive.capture"), &text));
    RawTrace clean;
    CaptureReader reader(text, /*salvage=*/false);
    HWPROF_CHECK(ReadCapture(reader, &clean, nullptr));
    FaultPlan plan;
    plan.seed = 17;
    plan.word_bitflip_rate = 0.002;
    plan.drop_rate = 0.01;
    plan.duplicate_rate = 0.004;
    plan.timer_glitch_rate = 0.002;
    plan.truncate_probability = 1.0;
    auto* out = new std::string(::testing::TempDir() + "/net_receive_damaged.capture");
    HWPROF_CHECK(SaveCapture(InjectFaults(clean, plan), *out));
    return out;
  }();
  return *path;
}

TEST(Golden, DamagedCaptureCoversEveryClosePath) {
  std::string text;
  ASSERT_TRUE(ReadFile(DamagedCapturePath(), &text));
  RawTrace raw;
  CaptureReader reader(text, /*salvage=*/false);
  ASSERT_TRUE(ReadCapture(reader, &raw, nullptr));
  std::string names_text;
  ASSERT_TRUE(ReadFile(GoldenPath("net_receive.names"), &names_text));
  TagFile names;
  ASSERT_TRUE(TagFile::Parse(names_text, &names));
  const DecodedTrace d = Decoder::Decode(raw, names);
  EXPECT_TRUE(d.truncated);
  EXPECT_GT(d.MidTraceUnclosedEntries(), 0u) << "no forced close";
  EXPECT_GT(d.TruncationClosedEntries(), 0u) << "no truncation close";
  EXPECT_GT(d.orphan_exits, 0u);
  EXPECT_GT(d.unknown_tags, 0u);
}

TEST(Golden, CallGraphOfTheNetworkReceive) {
  CheckGolden("net_receive_callgraph.txt",
              AnalyzeReport(GoldenPath("net_receive.capture"), {"--callgraph", "10"}));
}

TEST(Golden, ProcessesOfTheNetworkReceive) {
  CheckGolden("net_receive_processes.txt",
              AnalyzeReport(GoldenPath("net_receive.capture"), {"--processes"}));
}

TEST(Golden, BcopyHistogramOfTheNetworkReceive) {
  CheckGolden("net_receive_histogram_bcopy.txt",
              AnalyzeReport(GoldenPath("net_receive.capture"), {"--histogram", "bcopy"}));
}

TEST(Golden, CallGraphOfTheDamagedCapture) {
  CheckGolden("damaged_callgraph.txt",
              AnalyzeReport(DamagedCapturePath(), {"--callgraph", "10"}));
}

TEST(Golden, ProcessesOfTheDamagedCapture) {
  CheckGolden("damaged_processes.txt", AnalyzeReport(DamagedCapturePath(), {"--processes"}));
}

TEST(Golden, BcopyHistogramOfTheDamagedCapture) {
  CheckGolden("damaged_histogram_bcopy.txt",
              AnalyzeReport(DamagedCapturePath(), {"--histogram", "bcopy"}));
}

}  // namespace
}  // namespace hwprof
