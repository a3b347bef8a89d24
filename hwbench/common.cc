#include "common.h"

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

namespace hwbench {

void Result::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::Report(const std::string& name, double value, const std::string& unit) {
  report_[name] = Value{value, unit};
}

void Result::Info(const std::string& name, const std::string& value) {
  info_[name] = value;
}

bool Result::Check(const std::string& name, bool ok, const std::string& detail) {
  auto [it, inserted] = checks_.emplace(name, ok);
  if (!inserted) {
    it->second = it->second && ok;
  }
  ++attempted_;
  if (!ok) {
    correct_ = false;
    ++failed_;
    failures_.push_back(detail.empty() ? name : name + ": " + detail);
    std::fprintf(stderr, "hwbench: check failed: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
  }
  return ok;
}

void Result::Operation(bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
  }
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Joins `items` as a JSON object body, rendering each value with `render`.
template <typename Map, typename Render>
std::string JsonObject(const Map& items, Render render) {
  std::string out = "{";
  for (const auto& [name, value] : items) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + JsonEscape(name) + "\": " + render(value);
  }
  return out + "}";
}

}  // namespace

std::string Result::ToJson() const {
  auto value = [](const Value& v) {
    return "{\"value\": " + JsonNumber(v.value) + ", \"unit\": \"" +
           JsonEscape(v.unit) + "\"}";
  };
  auto text = [](const std::string& s) { return "\"" + JsonEscape(s) + "\""; };
  std::string failures = "[";
  for (const std::string& f : failures_) {
    failures += (failures.size() > 1 ? ", " : "") + text(f);
  }
  failures += "]";
  return std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"error_rate\": " +
         JsonNumber(attempted_ == 0 ? 0.0
                                    : static_cast<double>(failed_) /
                                          static_cast<double>(attempted_)) +
         ", \"metrics\": " + JsonObject(metrics_, value) +
         ", \"report\": " + JsonObject(report_, value) +
         ", \"info\": " + JsonObject(info_, text) +
         ", \"checks\": " +
         JsonObject(checks_, [](bool ok) { return std::string(ok ? "true" : "false"); }) +
         ", \"failures\": " + failures + "}";
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double TimevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalMs(usage.ru_utime) + TimevalMs(usage.ru_stime);
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = std::move(buffer).str();
  return true;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

int RunTool(const std::vector<std::string>& argv, std::string* out,
            std::string* err, ToolUsage* usage) {
  // The child writes its output to two temp files in the working directory;
  // the parent reads them back after the wait.
  char out_path[] = "hwbench-stdout-XXXXXX";
  char err_path[] = "hwbench-stderr-XXXXXX";
  const int out_fd = mkstemp(out_path);
  const int err_fd = mkstemp(err_path);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = out_fd >= 0 && err_fd >= 0 ? fork() : -1;
  if (pid == 0) {
    dup2(out_fd, STDOUT_FILENO);
    dup2(err_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  rusage child{};
  const bool waited = pid > 0 && wait4(pid, &status, 0, &child) == pid;
  for (const auto& [fd, path, text] :
       {std::tuple{out_fd, out_path, out}, std::tuple{err_fd, err_path, err}}) {
    if (fd >= 0) {
      close(fd);
      ReadFile(path, text);
      unlink(path);
    }
  }
  if (!waited || !WIFEXITED(status)) {
    return -1;
  }
  if (usage != nullptr) {
    usage->peak_rss_mb = static_cast<double>(child.ru_maxrss) / 1024.0;
    usage->cpu_ms = TimevalMs(child.ru_utime) + TimevalMs(child.ru_stime);
  }
  return WEXITSTATUS(status);
}

}  // namespace hwbench
