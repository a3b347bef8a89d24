#include "spans.h"

#include <cstdio>

#include "common.h"

namespace hwbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(tracer->enabled_ ? tracer->Begin(name) : -1) {}

Tracer::Scope::~Scope() {
  if (index_ >= 0) {
    tracer_->End(index_);
  }
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.trace_id = trace_id_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_ = static_cast<int>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  open_ = spans_[index].parent;
}

std::vector<std::uint64_t> Tracer::SelfNs() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[span.parent] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

double Tracer::SelfMs(const std::string& name) const {
  const std::vector<std::uint64_t> self = SelfNs();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += self[i];
    }
  }
  return static_cast<double>(total) / 1e6;
}

std::vector<double> Tracer::PerRootSelfMs(const std::string& root,
                                          const std::string& name) const {
  const std::vector<std::uint64_t> self = SelfNs();
  // Parents always precede children, so one forward pass finds each span's
  // root.
  std::vector<int> top(spans_.size());
  std::map<int, std::size_t> slot;  // root span index -> output position
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    top[i] = span.parent < 0 ? static_cast<int>(i) : top[span.parent];
    if (span.parent < 0 && span.name == root) {
      slot[static_cast<int>(i)] = out.size();
      out.push_back(0.0);
    }
    const auto it = slot.find(top[i]);
    if (it != slot.end() && span.name == name) {
      out[it->second] += static_cast<double>(self[i]) / 1e6;
    }
  }
  return out;
}

double Tracer::Closure(const std::string& root) const {
  const std::vector<std::uint64_t> self = SelfNs();
  // A span belongs to a root when its parent chain reaches one; parents
  // always precede children in recording order. "bench.*" spans are the
  // benchmark's own bookkeeping: they leave both sides of the ratio.
  std::vector<bool> under(spans_.size(), false);
  std::vector<bool> bookkeeping(spans_.size(), false);
  std::uint64_t root_ns = 0;
  std::uint64_t layer_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) {
      if (span.name == root) {
        root_ns += span.end_ns - span.start_ns;
      }
      continue;
    }
    const Span& parent = spans_[span.parent];
    under[i] = under[span.parent] || (parent.parent < 0 && parent.name == root);
    bookkeeping[i] = bookkeeping[span.parent] || span.name.rfind("bench.", 0) == 0;
    if (!under[i]) {
      continue;
    }
    if (bookkeeping[i] && !bookkeeping[span.parent]) {
      root_ns -= span.end_ns - span.start_ns;
    } else if (!bookkeeping[i]) {
      layer_ns += self[i];
    }
  }
  return root_ns == 0 ? 0.0
                      : static_cast<double>(layer_ns) / static_cast<double>(root_ns);
}

namespace {

std::string Usec(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string Tracer::ChromeJson() const {
  std::string out =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"hwbench\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    out += ",\n{\"name\": \"" + JsonEscape(span.name) + "\", \"cat\": \"" +
           JsonEscape(layer) + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
           Usec(span.start_ns - origin_ns_) +
           ", \"dur\": " + Usec(span.end_ns - span.start_ns) +
           ", \"args\": {\"trace_id\": " + std::to_string(span.trace_id) +
           ", \"span\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(span.parent) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace hwbench
