// Shared plumbing for the hwbench program: options, the result record every
// workload fills in, statistics helpers and small file utilities.
//
// hwbench prints one JSON record (see Result::ToJson); run.py adds host
// context, validates traces and prints the benchmark's result line.

#ifndef HWBENCH_COMMON_H_
#define HWBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hwbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Damage one input or output on purpose, so the smoke test can prove the
  // correctness checks fire.
  bool tamper = false;
  // Where hwprof_analyze and trace_event_check live (the build tree).
  std::string tools_dir;
  // Scratch directory for captures, names files, the socket and traces.
  std::string work_dir;
};

// Monotonic wall clock in ns; also the clock handed to the ingest service.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double MsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// CPU time in ms (user + system) of the calling thread and of the whole
// process. On a virtual machine these exclude time the host stole.
double ThreadCpuMs();
double ProcessCpuMs();

// What one benchmark run reports. `metrics` holds the values the result
// line carries (end-to-end without tracing, per-layer with it); `report`
// holds every other named figure, kept in the result file.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Report(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, const std::string& value);
  bool HasMetric(const std::string& name) const { return metrics_.count(name) > 0; }

  // Records a correctness check. A failed check marks the run incorrect
  // and counts as a failed operation.
  bool Check(const std::string& name, bool ok, const std::string& detail = "");

  // One operation of the workload's timed path (an iteration, a tool run,
  // an upload); `ok` false counts it as failed.
  void Operation(bool ok);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, bool>& checks() const { return checks_; }

  std::string ToJson() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> report_;
  std::map<std::string, std::string> info_;
  std::map<std::string, bool> checks_;
  std::vector<std::string> failures_;
};

// Percentile by linear interpolation between order statistics (p in [0,1]).
// 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Peak resident set of this process in MB (getrusage ru_maxrss).
double SelfPeakRssMb();

bool WriteFile(const std::string& path, std::string_view bytes);
bool ReadFile(const std::string& path, std::string* out);

std::string JsonEscape(std::string_view s);

// What a finished child process used.
struct ToolUsage {
  double peak_rss_mb = 0.0;
  double cpu_ms = 0.0;  // user + system, all its threads
};

// Runs `argv` with stdout/stderr captured into the given strings and returns
// the exit status (-1 when it could not be started or was killed). `usage`
// (when non-null) receives the child's own peak RSS and CPU time.
int RunTool(const std::vector<std::string>& argv, std::string* out,
            std::string* err, ToolUsage* usage);

}  // namespace hwbench

#endif  // HWBENCH_COMMON_H_
