// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a repo layer (kern/sim via
// workloads, profhw, instr, analysis, service) in a span named
// "<layer>.<call>". Spans nest on the recording thread; each carries the
// trace ID of the iteration or upload it belongs to. Nothing is written
// until the run ends: ChromeJson() renders the Chrome trace-event format
// that tools/trace_event_check validates, and SelfNs() derives per-span
// self time (duration minus the direct children's durations).
//
// A disabled tracer records nothing; Scope costs one branch.

#ifndef HWBENCH_SPANS_H_
#define HWBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hwbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    std::uint64_t trace_id = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // Pauses or resumes recording between root spans (the traced run times
  // a few iterations untraced to measure the tracing overhead).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Trace ID stamped on spans opened from now on.
  void SetTraceId(std::uint64_t id) { trace_id_ = id; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span, indexed like spans().
  std::vector<std::uint64_t> SelfNs() const;

  // Sum of the self times, in ms, of every span named `name`.
  double SelfMs(const std::string& name) const;
  // For each root span named `root` (in recording order), the summed self
  // time in ms of the spans named `name` below it.
  std::vector<double> PerRootSelfMs(const std::string& root,
                                    const std::string& name) const;

  // Closure of the root spans named `root`: the summed self time of every
  // span below them divided by the summed root durations. 1.0 means the
  // layer spans account for all of the end-to-end time. Spans named
  // "bench.*" (the benchmark's own bookkeeping) are left out of both.
  double Closure(const std::string& root) const;

  // Chrome trace-event JSON ("X" slices, one process, one thread).
  std::string ChromeJson() const;

 private:
  int Begin(const char* name);
  void End(int index);

  bool enabled_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t origin_ns_ = 0;
  int open_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

}  // namespace hwbench

#endif  // HWBENCH_SPANS_H_
