#include "src/analysis/decoder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/base/assert.h"
#include "src/base/thread_pool.h"
#include "src/obs/telemetry.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/usec_timer.h"

namespace hwprof {

namespace {

// Stalled-window compaction threshold: decided events are erased from the
// front of the buffer once this many accumulate while later events wait on
// lookahead.
constexpr std::size_t kCompactThreshold = 4096;

// Adds `s` into `d`. Sums and min/max commute, so per-function stats may be
// folded and combined in any order.
void CombineStats(const FuncStats& s, FuncStats* d) {
  if (d->calls == 0) {
    *d = s;
    return;
  }
  d->calls += s.calls;
  d->net += s.net;
  d->elapsed += s.elapsed;
  d->min_net = std::min(d->min_net, s.min_net);
  d->max_net = std::max(d->max_net, s.max_net);
  d->context_switch = d->context_switch || s.context_switch;
}

// Per-function stats keyed by dense function id (TagFile::IndexOf), plus the
// idle account. Folding a closed call is an index, not a name lookup; names
// are attached only when a result is read (AddTo).
class FuncTable {
 public:
  explicit FuncTable(const TagFile& names) : names_(&names), by_id_(names.size()) {}

  // Folds one completed call (or, for a stats snapshot, an open one with its
  // time to date).
  void Fold(const TagEntry* fn, Nanoseconds net, Nanoseconds elapsed) {
    FuncStats one;
    one.calls = 1;
    one.net = net;
    one.elapsed = elapsed;
    one.min_net = net;
    one.max_net = net;
    one.context_switch = fn->kind == TagKind::kContextSwitch;
    CombineStats(one, &by_id_[names_->IndexOf(fn)]);
    if (one.context_switch) {
      idle_ += net;
    }
  }

  void Combine(const FuncTable& part) {
    for (std::size_t id = 0; id < by_id_.size(); ++id) {
      if (part.by_id_[id].calls != 0) {
        CombineStats(part.by_id_[id], &by_id_[id]);
      }
    }
    idle_ += part.idle_;
  }

  // Adds every function folded so far to `into`'s per-function stats and
  // idle time.
  void AddTo(DecodedTrace* into) const {
    for (std::size_t id = 0; id < by_id_.size(); ++id) {
      if (by_id_[id].calls != 0) {
        CombineStats(by_id_[id], &into->per_function[names_->entries()[id].name]);
      }
    }
    into->idle_time += idle_;
  }

 private:
  const TagFile* names_;
  std::vector<FuncStats> by_id_;
  Nanoseconds idle_ = 0;
};

// --- The op script -----------------------------------------------------------
// The matcher's decisions, one op per structural effect. Replay is a
// straight loop with no matching logic.

enum OpFlags : std::uint8_t {
  kOpForced = 1,       // close was a mismatch-recovery force-close
  kOpCtxSwitchIn = 2,  // this close resumes a different context
};

enum class OpKind : std::uint8_t {
  kOpen,         // push a call frame on the current stack
  kOpenInline,   // single-event marker node under the current stack's top
  kClose,        // pop `stack`'s innermost frame (emits a step)
  kFinishClose,  // end-of-trace truncation close (no step, no charge)
  kSetCurrent,   // interval attribution switches to `stack`
  kAdvance,      // no structural effect; advances the attribution clock
};

struct Op {
  Nanoseconds t = 0;
  const TagEntry* fn = nullptr;
  std::uint32_t node = 0;  // global node id (stable across shards)
  std::int32_t stack = 0;
  OpKind kind = OpKind::kAdvance;
  std::uint8_t flags = 0;
};

// One open call frame, as the matcher tracks it.
struct ChainFrame {
  const TagEntry* fn = nullptr;
  std::uint32_t node = 0;
};

// The matcher state a replay starts from. Chains are stored sparsely: only
// stacks with open frames appear, so snapshot cost scales with open work,
// not with every context the capture ever created.
struct ChainSnapshot {
  Nanoseconds last_time = 0;
  int current = 0;
  std::vector<std::pair<int, std::vector<ChainFrame>>> chains;
};

// --- Replay ------------------------------------------------------------------
// The only place that attributes time and builds: per-interval attribution
// to the running context, the fold of each call as it closes and, when
// structure is retained, CallNode allocation and step emission. A replay
// seeded with open chains (a shard after the first; always retaining)
// stands in for them with placeholder nodes that Assemble grafts back.
//
// Attribution is O(1) per op. Each stack keeps an on-CPU clock: the sum of
// the intervals charged while it ran with a call open. A call's elapsed time
// is the clock's advance between its open and its close, and its net time is
// that minus its direct children's elapsed. Both are integer sums of the
// same intervals the per-frame charge would add, so they are exact.

class Replayer {
 public:
  struct Frame {
    const TagEntry* fn = nullptr;
    Nanoseconds opened_at = 0;         // the stack's clock at open
    Nanoseconds children_elapsed = 0;  // elapsed of its closed direct children
    CallNode* node = nullptr;          // retained structure only
    std::uint32_t id = 0;
    bool own = false;  // opened in this replay (not a placeholder)
  };
  // Per stack touched: with retained structure, a synthetic local root whose
  // children are the placeholder chain head (if any) followed by new
  // top-level calls.
  struct LocalStack {
    int id = 0;
    Nanoseconds clock = 0;
    std::unique_ptr<CallNode> root;
    std::vector<Frame> chain;
  };
  struct Placeholder {
    std::uint32_t node = 0;
    CallNode* ptr = nullptr;
  };

  // `retain` keeps the call trees and the step list; otherwise no CallNode
  // is allocated and memory is bounded by stack depth.
  Replayer(const TagFile& names, bool retain, ChainSnapshot seed)
      : funcs(names), retain_(retain), seed_(std::move(seed)), last_t_(seed_.last_time) {
    cur_ = &StackFor(seed_.current);
  }

  void Apply(const Op& op) {
    if (op.kind == OpKind::kFinishClose) {
      Close(StackFor(op.stack), op);
      return;
    }
    // Charge the interval since the previous op to the running context: its
    // clock advances, which is elapsed time for every call open on it and
    // net time for the innermost. A call whose process is switched out
    // accumulates nothing while off-CPU (the paper's per-activity-block
    // rule); time with no open call (user mode / unprofiled code) stays
    // unattributed.
    if (!cur_->chain.empty()) {
      cur_->clock += op.t - last_t_;
    }
    last_t_ = op.t;
    switch (op.kind) {
      case OpKind::kSetCurrent:
        cur_ = &StackFor(op.stack);
        break;
      case OpKind::kOpen:
      case OpKind::kOpenInline:
        Open(op, op.kind == OpKind::kOpenInline);
        break;
      case OpKind::kClose:
        // Only the close of a switched-out process's swtch frame names a
        // stack other than the running one.
        Close(op.stack == cur_->id ? *cur_ : StackFor(op.stack), op);
        break;
      case OpKind::kAdvance:
      case OpKind::kFinishClose:
        break;
    }
  }

  // Writes each still-open retained frame's time to date into its node, so
  // Assemble can sum a call's per-shard parts. Runs when a shard's replay
  // ends.
  void SealOpenNodes() {
    for (auto& [sid, ls] : stacks) {
      for (std::size_t i = 0; i < ls.chain.size(); ++i) {
        if (CallNode* n = ls.chain[i].node) {
          n->elapsed_acc = Elapsed(ls, i);
          n->net_acc = NetToDate(ls, i);
        }
      }
    }
  }

  // Adds everything replayed so far to `into`'s per-function stats and idle
  // time: closed calls as folded, open ones with their time to date.
  void StatsSoFar(DecodedTrace* into) const {
    FuncTable so_far = funcs;
    for (const auto& [sid, ls] : stacks) {
      for (std::size_t i = 0; i < ls.chain.size(); ++i) {
        so_far.Fold(ls.chain[i].fn, NetToDate(ls, i), Elapsed(ls, i));
      }
    }
    so_far.AddTo(into);
  }

  // Results, read by Assemble.
  std::unordered_map<int, LocalStack> stacks;
  std::vector<Placeholder> placeholders;
  std::vector<TraceStep> steps;
  // Steps closing a placeholder: only these need their node remapped.
  std::vector<std::size_t> ph_steps;
  FuncTable funcs;

 private:
  static Nanoseconds Elapsed(const LocalStack& ls, std::size_t i) {
    return ls.clock - ls.chain[i].opened_at;
  }
  // Net time of open frame `i`: its elapsed minus its closed children's and
  // its open child's (the next frame on the chain).
  static Nanoseconds NetToDate(const LocalStack& ls, std::size_t i) {
    const Nanoseconds inner = i + 1 < ls.chain.size() ? Elapsed(ls, i + 1) : 0;
    return Elapsed(ls, i) - ls.chain[i].children_elapsed - inner;
  }

  LocalStack& StackFor(int sid) {
    auto it = stacks.find(sid);
    if (it != stacks.end()) {
      return it->second;
    }
    LocalStack ls;
    ls.id = sid;
    if (retain_) {
      ls.root = std::make_unique<CallNode>();
    }
    // Replicate the open chain as placeholder nodes so depths, step targets
    // and attribution all line up.
    for (const auto& [chain_sid, chain] : seed_.chains) {
      if (chain_sid != sid) {
        continue;
      }
      CallNode* parent = ls.root.get();
      for (const ChainFrame& frame : chain) {
        auto ph = std::make_unique<CallNode>();
        ph->fn = frame.fn;
        ph->parent = parent;
        CallNode* raw = ph.get();
        parent->children.push_back(std::move(ph));
        placeholders.push_back(Placeholder{frame.node, raw});
        ls.chain.push_back(Frame{frame.fn, 0, 0, raw, frame.node, /*own=*/false});
        parent = raw;
      }
      break;
    }
    return stacks.emplace(sid, std::move(ls)).first->second;
  }

  void Open(const Op& op, bool inline_marker) {
    if (inline_marker && !retain_) {
      return;  // markers carry no stats; only trees and steps show them
    }
    LocalStack& ls = *cur_;
    CallNode* raw = nullptr;
    if (retain_) {
      auto node = std::make_unique<CallNode>();
      node->fn = op.fn;
      node->entry_time = op.t;
      node->exit_time = op.t;
      node->inline_marker = inline_marker;
      node->closed = inline_marker;
      CallNode* parent = ls.chain.empty() ? ls.root.get() : ls.chain.back().node;
      node->parent = parent;
      raw = node.get();
      parent->children.push_back(std::move(node));
      TraceStep step;
      step.t = op.t;
      step.node = raw;
      step.depth = static_cast<int>(ls.chain.size());
      step.stack_id = ls.id;
      steps.push_back(step);
    }
    if (!inline_marker) {
      ls.chain.push_back(Frame{op.fn, ls.clock, 0, raw, op.node, /*own=*/true});
    }
  }

  void Close(LocalStack& ls, const Op& op) {
    HWPROF_CHECK(!ls.chain.empty());
    const Frame f = ls.chain.back();
    ls.chain.pop_back();
    const Nanoseconds elapsed = ls.clock - f.opened_at;
    const Nanoseconds net = elapsed - f.children_elapsed;
    if (!ls.chain.empty()) {
      ls.chain.back().children_elapsed += elapsed;
    }
    if (CallNode* n = f.node) {
      n->exit_time = op.t;
      n->closed = true;
      n->forced_close = op.kind == OpKind::kFinishClose || (op.flags & kOpForced) != 0;
      // For a placeholder these are this replay's part; Assemble adds the rest.
      n->elapsed_acc = elapsed;
      n->net_acc = net;
      if (op.kind == OpKind::kClose) {
        TraceStep step;
        step.t = op.t;
        step.node = n;
        step.is_exit = true;
        step.depth = static_cast<int>(ls.chain.size());
        step.stack_id = ls.id;
        step.context_switch_in = (op.flags & kOpCtxSwitchIn) != 0;
        if (!f.own) {
          ph_steps.push_back(steps.size());
        }
        steps.push_back(step);
      }
    }
    if (f.own) {
      // Closed calls never accumulate further time: fold now, exactly the
      // contribution a final tree walk would make. A placeholder is folded
      // by Assemble once its parts are summed.
      funcs.Fold(f.fn, net, elapsed);
    }
  }

  const bool retain_;
  const ChainSnapshot seed_;
  LocalStack* cur_ = nullptr;
  Nanoseconds last_t_ = 0;
};

}  // namespace

// --- The engine --------------------------------------------------------------
// The matcher is the only place that decides. Events arrive through Feed in
// arbitrary slices; each is time-reconstructed immediately and then decided
// as soon as its handling cannot depend on events that have not arrived yet
// (Undecided below). At Finish the end of the buffer is the end of the
// trace, so any chunking of the same event sequence yields identical
// decisions. Each decision becomes ops: inline replay applies them to one
// Replayer at once; sharded replay buffers them and cuts shards for the pool.

class StreamingDecoder::Impl {
 public:
  // `jobs` 1 replays inline; anything else shards across that many workers
  // (0 = ThreadPool::DefaultJobs()), always retaining structure.
  Impl(const TagFile& names, unsigned timer_bits, std::uint64_t timer_clock_hz,
       bool retain, unsigned jobs, std::size_t shard_target_ops)
      : names_(names), timer_(timer_bits, timer_clock_hz), entered_(names.size()) {
    current_ = NewStack();
    if (jobs == 0) {
      jobs = ThreadPool::DefaultJobs();
    }
    if (jobs == 1) {
      parts_.push_back(std::make_unique<Replayer>(names_, retain, ChainSnapshot{}));
      inline_ = parts_.back().get();
      return;
    }
    pool_ = std::make_unique<ThreadPool>(jobs);
    target_ = std::max<std::size_t>(shard_target_ops, 1);
    ops_.reserve(target_ + target_ / 4);
    shard_start_ = Snapshot();
  }

  template <typename GetEvent>
  void FeedWith(std::size_t count, GetEvent get) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: Feed after Finish");
    OBS_SPAN_BEGIN(feed);
    for (std::size_t k = 0; k < count; ++k) {
      Push(get(k));
    }
    Process(/*final=*/false);
    // Inline replay reports under decode.*, sharded replay under parallel.*.
    if (pool_ == nullptr) {
      OBS_SPAN_END(feed, "decode.chunk");
      OBS_COUNT("decode.chunks", 1);
      OBS_COUNT("decode.events", count);
    } else {
      OBS_SPAN_END(feed, "parallel.feed");
      OBS_COUNT("parallel.events", count);
    }
  }

  void NoteDropped(std::uint64_t count) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: NoteDropped after Finish");
    if (count == 0) {
      return;
    }
    out_.dropped_events += count;
    ++out_.capture_gaps;
  }

  void NoteCorruptWords(std::uint64_t count) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: NoteCorruptWords after Finish");
    out_.corrupt_words += count;
  }

  void SetClockEnvelope(Nanoseconds capture_elapsed) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: SetClockEnvelope after Finish");
    envelope_ = capture_elapsed;
  }

  std::uint64_t events_seen() const { return out_.event_count; }
  std::uint64_t dropped_events() const { return out_.dropped_events; }
  std::size_t pending() const { return events_.size() - head_; }
  std::size_t shards_planned() const { return pool_ != nullptr ? parts_.size() : 0; }

  DecodedTrace SnapshotStats() const {
    HWPROF_CHECK_MSG(!finished_ && inline_ != nullptr,
                     "StreamingDecoder: SnapshotStats needs a live inline decode");
    DecodedTrace snap;
    snap.start_time = out_.start_time;
    snap.end_time = out_.end_time;
    snap.event_count = out_.event_count;
    snap.unknown_tags = out_.unknown_tags;
    snap.orphan_exits = out_.orphan_exits;
    snap.unclosed_entries = out_.unclosed_entries;
    snap.unknown_tag_counts = out_.unknown_tag_counts;
    snap.orphan_exit_counts = out_.orphan_exit_counts;
    snap.preopen_exit_counts = out_.preopen_exit_counts;
    snap.unclosed_entry_counts = out_.unclosed_entry_counts;
    snap.truncated_entry_counts = out_.truncated_entry_counts;
    snap.dropped_events = out_.dropped_events;
    snap.capture_gaps = out_.capture_gaps;
    snap.corrupt_words = out_.corrupt_words;
    snap.impossible_deltas = out_.impossible_deltas;
    inline_->StatsSoFar(&snap);
    return snap;
  }

  DecodedTrace Finish(bool truncated) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: Finish called twice");
    OBS_SPAN_BEGIN(finish);
    Process(/*final=*/true);
    finished_ = true;
    for (const auto& s : stacks_) {
      while (!s->chain.empty()) {
        // Truncated capture: close at the last observed instant.
        const ChainFrame& top = s->chain.back();
        ++out_.unclosed_entries;
        ++out_.unclosed_entry_counts[top.fn->name];
        ++out_.truncated_entry_counts[top.fn->name];
        Emit(OpKind::kFinishClose, s.get(), out_.end_time, top);
        s->chain.pop_back();
      }
    }
    if (pool_ != nullptr) {
      SealShard();
      pool_->WaitIdle();
      OBS_SCOPED_SPAN("parallel.merge");
      Assemble();
    } else {
      Assemble();
    }
    out_.truncated = truncated;
    // Wrap-ambiguity check against the host wall-clock envelope: a quiet gap
    // longer than WrapPeriod decodes as a short delta (the "at most one wrap"
    // contract cannot be verified from deltas alone), so the reconstructed
    // span comes up short of the measured capture duration by whole wraps.
    if (envelope_ > 0 && out_.event_count > 0) {
      const Nanoseconds span = out_.end_time - out_.start_time;
      if (envelope_ > span) {
        const Nanoseconds missing = envelope_ - span;
        const Nanoseconds wrap = timer_.WrapPeriod();
        const std::uint64_t missed =
            wrap > 0 ? static_cast<std::uint64_t>(missing / wrap) : 0;
        if (missed > 0) {
          out_.wrap_ambiguous_gaps += missed;
          out_.unaccounted_time = missing;
        }
      }
    }
    RecordDecodeTelemetry(out_);
    if (pool_ == nullptr) {
      OBS_SPAN_END(finish, "decode.finish");
    } else {
      OBS_SPAN_END(finish, "parallel.finish");
    }
    return std::move(out_);
  }

 private:
  struct DecodedEvent {
    Nanoseconds t = 0;
    const TagEntry* entry = nullptr;  // never null (unknowns are filtered)
    bool is_exit = false;
  };
  struct PlanStack {
    int id = 0;
    std::vector<ChainFrame> chain;  // outermost .. innermost open frames
    bool suspended = false;
  };

  void Push(RawEvent e) {
    // A stored timestamp above the counter mask cannot have come from the
    // timer (a flipped high bit, or an upload-path fault). The delta it
    // implies is impossible; salvage by masking and count the anomaly.
    if (e.timestamp > timer_.Mask()) {
      e.timestamp &= timer_.Mask();
      ++out_.impossible_deltas;
    }
    // Absolute-time reconstruction: the timer value is only an interval
    // counter; consecutive events are less than one wrap apart by hardware
    // contract, so each delta is (later - earlier) mod 2^bits. Unknown tags
    // still advance the clock — their cycles happened.
    if (!have_prev_) {
      prev_ = e.timestamp;
      have_prev_ = true;
    }
    now_ += timer_.TicksToNs(timer_.TicksBetween(prev_, e.timestamp));
    prev_ = e.timestamp;
    const TagEntry* entry = names_.FindByTag(e.tag);
    if (entry == nullptr) {
      ++out_.unknown_tags;
      ++out_.unknown_tag_counts[e.tag];
      return;
    }
    DecodedEvent ev;
    ev.t = now_;
    ev.entry = entry;
    ev.is_exit = entry->IsFunctionLike() && e.tag == entry->exit_tag();
    if (out_.event_count == 0) {
      out_.start_time = now_;
    }
    out_.end_time = now_;
    ++out_.event_count;
    events_.push_back(ev);
  }

  void Process(bool final) {
    while (head_ < events_.size()) {
      const DecodedEvent ev = events_[head_];
      if (!final && Undecided(head_, ev)) {
        break;  // everything from here on waits for more of the trace
      }
      last_time_ = ev.t;
      StepEvent(ev, head_);
      ++head_;
      MaybeSeal(/*block_boundary=*/false);
    }
    if (head_ == events_.size()) {
      events_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold) {
      events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static const TagEntry* TopFn(const PlanStack* s) {
    return s->chain.empty() ? nullptr : s->chain.back().fn;
  }

  // The stack suspended in swtch whose idle window is still open, if any.
  PlanStack* PendingSwitchOut() const {
    const bool open = pending_swtch_ != nullptr && TopFn(pending_swtch_) != nullptr &&
                      TopFn(pending_swtch_)->kind == TagKind::kContextSwitch;
    return open ? pending_swtch_ : nullptr;
  }

  // True when handling `ev` would consult lookahead whose scan runs past the
  // buffered events without reaching a terminator (chain exhausted, chain
  // mismatch, or a context switch) — i.e. more of the trace could change
  // the decision.
  bool Undecided(std::size_t index, const DecodedEvent& ev) const {
    if (!ev.is_exit || ev.entry->kind == TagKind::kInline) {
      return false;
    }
    if (ev.entry->kind == TagKind::kContextSwitch) {
      // Both HandleSwtchExit paths end in the resume lookahead, which
      // scores suspended stacks from index + 1. On the pending-close path
      // the outgoing stack's swtch frame is closed *before* the scoring, so
      // its chain must be judged without its top frame.
      return !ScoresDecided(index + 1, nullptr, PendingSwitchOut());
    }
    // A normal exit needs lookahead only when its function is not open
    // anywhere on the running stack (HandleExit's suspended-stack fallback).
    // Scanned innermost first: an exit usually closes the top frame.
    const std::vector<ChainFrame>& ch = current_->chain;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      if (it->fn == ev.entry) {
        return false;
      }
    }
    return !ScoresDecided(index, ev.entry, nullptr);
  }

  // Whether every suspended stack BestSuspendedMatch would consider has a
  // final score given the events buffered so far.
  bool ScoresDecided(std::size_t from, const TagEntry* require_top,
                     const PlanStack* skip_top_of) const {
    for (const PlanStack* s : suspend_order_) {
      if (require_top != nullptr && TopFn(s) != require_top) {
        continue;
      }
      bool decided = true;
      MatchScore(s, from, /*skip_top=*/s == skip_top_of, &decided);
      if (!decided) {
        return false;
      }
    }
    return true;
  }

  // Scores how well `s`'s open-frame chain matches the exit sequence in
  // events_[from...]: the number of chain frames (innermost first) that the
  // upcoming exits close, tolerating freshly-opened nested calls, stopping
  // at the next context switch. Several processes commonly sit suspended in
  // the same function (tsleep); only the deeper frames (biowait vs
  // soaccept...) disambiguate who actually resumed.
  //
  // `skip_top` judges the chain without its innermost frame (used by the
  // decidedness precheck, which runs before a pending swtch frame is
  // closed). `decided`, when non-null, is cleared if the scan ran off the
  // end of the buffered events before reaching a terminator — meaning the
  // score could still change as more of the trace arrives.
  int MatchScore(const PlanStack* s, std::size_t from, bool skip_top,
                 bool* decided) const {
    const std::vector<ChainFrame>& ch = s->chain;
    std::size_t n = ch.size();
    if (skip_top && n > 0) {
      --n;
    }
    if (n == 0) {
      return -1;
    }
    std::size_t ci = 0;  // chain index, innermost first: ch[n - 1 - ci]
    int depth = 0;
    int score = 0;
    bool terminated = false;
    for (std::size_t j = from; j < events_.size() && ci < n; ++j) {
      const DecodedEvent& e = events_[j];
      if (e.entry->kind == TagKind::kInline) {
        continue;
      }
      if (e.entry->kind == TagKind::kContextSwitch) {
        terminated = true;  // this context blocks again; what we matched stands
        break;
      }
      if (!e.is_exit) {
        ++depth;  // a nested call opened after the resume
        continue;
      }
      if (depth > 0) {
        --depth;  // closes a nested call
        continue;
      }
      if (e.entry == ch[n - 1 - ci].fn) {
        ++score;
        ++ci;
        continue;
      }
      terminated = true;  // mismatch against the chain
      break;
    }
    if (ci >= n) {
      terminated = true;
    }
    if (!terminated && decided != nullptr) {
      *decided = false;
    }
    return score;
  }

  // Finds the suspended stack best matching the upcoming exits; nullptr if
  // none matches even its top frame. `require_top` restricts candidates to
  // stacks whose innermost open call is that function.
  PlanStack* BestSuspendedMatch(std::size_t from, const TagEntry* require_top) {
    PlanStack* best = nullptr;
    int best_score = 0;
    // Most recently suspended wins ties.
    for (auto it = suspend_order_.rbegin(); it != suspend_order_.rend(); ++it) {
      PlanStack* s = *it;
      if (require_top != nullptr && TopFn(s) != require_top) {
        continue;
      }
      const int score = MatchScore(s, from, /*skip_top=*/false, nullptr);
      if (score > best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  }

  void Unsuspend(PlanStack* s) {
    s->suspended = false;
    suspend_order_.erase(std::remove(suspend_order_.begin(), suspend_order_.end(), s),
                         suspend_order_.end());
  }

  void StepEvent(const DecodedEvent& ev, std::size_t index) {
    const TagEntry* fn = ev.entry;
    if (fn->kind == TagKind::kInline) {
      Emit(OpKind::kOpenInline, current_, ev.t, ChainFrame{fn, next_node_id_++});
      return;
    }
    if (!ev.is_exit) {
      entered_[names_.IndexOf(fn)] = true;
      const ChainFrame frame{fn, next_node_id_++};
      Emit(OpKind::kOpen, current_, ev.t, frame);
      current_->chain.push_back(frame);
      if (fn->kind == TagKind::kContextSwitch) {
        // The outgoing process is now suspended inside swtch. Idle-window
        // activity (interrupts) nests under the open swtch frame on the
        // same stack, so the swtch call's *net* time is pure idle.
        pending_swtch_ = current_;
        current_->suspended = true;
        suspend_order_.push_back(current_);
      }
      return;
    }
    if (fn->kind == TagKind::kContextSwitch) {
      HandleSwtchExit(ev, index);
      return;
    }
    HandleExit(ev, index);
  }

  void HandleSwtchExit(const DecodedEvent& ev, std::size_t index) {
    if (PlanStack* outgoing = PendingSwitchOut()) {
      // Close the idle window. `outgoing` stays suspended (its process is
      // still off-CPU).
      pending_swtch_ = nullptr;
      Close(outgoing, ev.t, kOpCtxSwitchIn);
    } else {
      // Orphan swtch exit (capture started mid-idle, or a brand-new
      // process's first switch-in with no prior entry).
      NoteOrphanExit(ev.entry);
    }
    // Lookahead: match suspended stacks against the exit sequence that
    // follows the switch-in. No match (the following events are entries, or
    // belong to nobody) means a fresh context — a newly created process
    // "returning from swtch" for the first time. Later unmatched exits can
    // still re-attach to suspended stacks (HandleExit's fallback).
    if (PlanStack* s = BestSuspendedMatch(index + 1, nullptr)) {
      Unsuspend(s);
      current_ = s;
    } else {
      current_ = NewStack();
    }
    Emit(OpKind::kSetCurrent, current_, ev.t);
    MaybeSeal(/*block_boundary=*/true);
  }

  void HandleExit(const DecodedEvent& ev, std::size_t index) {
    // Normally the exit matches the innermost open call. One open deeper on
    // this stack means missed exits in between (should not happen with
    // compiler-generated triggers, but the analyser tolerates it):
    // force-close down to the match.
    std::vector<ChainFrame>& ch = current_->chain;
    for (std::size_t p = ch.size(); p-- > 0;) {
      if (ch[p].fn == ev.entry) {
        while (ch.size() - 1 > p) {
          ++out_.unclosed_entry_counts[ch.back().fn->name];
          ++out_.unclosed_entries;
          Close(current_, ev.t, kOpForced);
        }
        Close(current_, ev.t, 0);
        return;
      }
    }
    // Not on this stack: an implicitly resumed context (a fresh stack was
    // chosen at the context switch and this exit belongs to the real one).
    if (PlanStack* s = BestSuspendedMatch(index, ev.entry)) {
      Unsuspend(s);
      current_ = s;
      Emit(OpKind::kSetCurrent, s, ev.t);
      Close(s, ev.t, kOpCtxSwitchIn);
      return;
    }
    NoteOrphanExit(ev.entry);
    Emit(OpKind::kAdvance, current_, ev.t);
  }

  // An orphan exit of a function never entered earlier in the trace is the
  // signature of a capture that begins mid-call; record it in the tolerated
  // preopen subset as well as the general orphan counters.
  void NoteOrphanExit(const TagEntry* fn) {
    ++out_.orphan_exits;
    ++out_.orphan_exit_counts[fn->name];
    if (!entered_[names_.IndexOf(fn)]) {
      ++out_.preopen_exit_counts[fn->name];
    }
  }

  PlanStack* NewStack() {
    auto s = std::make_unique<PlanStack>();
    s->id = static_cast<int>(stacks_.size());
    stacks_.push_back(std::move(s));
    return stacks_.back().get();
  }

  void Emit(OpKind kind, const PlanStack* s, Nanoseconds t,
            const ChainFrame& frame = ChainFrame{}, std::uint8_t flags = 0) {
    Op op;
    op.t = t;
    op.fn = frame.fn;
    op.node = frame.node;
    op.stack = s->id;
    op.kind = kind;
    op.flags = flags;
    if (inline_ != nullptr) {
      inline_->Apply(op);
    } else {
      ops_.push_back(op);
    }
  }

  void Close(PlanStack* s, Nanoseconds t, std::uint8_t flags) {
    HWPROF_CHECK(!s->chain.empty());
    Emit(OpKind::kClose, s, t, s->chain.back(), flags);
    s->chain.pop_back();
  }

  // --- Sharding, merge and finish ---------------------------------------------

  ChainSnapshot Snapshot() const {
    ChainSnapshot snap;
    snap.last_time = last_time_;
    snap.current = current_->id;
    for (const auto& s : stacks_) {
      if (!s->chain.empty()) {
        snap.chains.emplace_back(s->id, s->chain);
      }
    }
    return snap;
  }

  // Called after each decided event. Preferred cut: between activity
  // blocks, right after a context switch resolves. But a saturating
  // interrupt-driven capture can run one context for the entire trace, so a
  // block that overruns the target 2x is cut mid-block (never while a switch
  // is half-resolved). Replay is seeded with the open-chain snapshot, so the
  // output never depends on where the cut falls — the target only shapes
  // shard granularity.
  void MaybeSeal(bool block_boundary) {
    if (pool_ != nullptr && ops_.size() >= target_ &&
        (block_boundary || (pending_swtch_ == nullptr && ops_.size() >= 2 * target_))) {
      SealShard();
    }
  }

  void SealShard() {
    if (ops_.empty()) {
      return;
    }
    auto ops = std::make_shared<std::vector<Op>>(std::move(ops_));
    ops_.clear();
    ops_.reserve(target_ + target_ / 4);
    parts_.push_back(std::make_unique<Replayer>(
        names_, /*retain=*/true, std::exchange(shard_start_, Snapshot())));
    Replayer* part = parts_.back().get();
    OBS_COUNT("parallel.shards", 1);
    OBS_COUNT("parallel.shard_ops", ops->size());
    OBS_GAUGE_ADD("parallel.queue_depth", 1);
    pool_->Submit([ops, part] {
      {
        OBS_SCOPED_SPAN("parallel.shard_replay");
        for (const Op& op : *ops) {
          part->Apply(op);
        }
        part->SealOpenNodes();
      }
      OBS_GAUGE_ADD("parallel.queue_depth", -1);
    });
  }

  // Stitches the replays of consecutive stretches of the op script, in
  // order, into the final trees, steps and stats.
  void Assemble() {
    for (const auto& s : stacks_) {
      auto stack = std::make_unique<ActivityStack>();
      stack->id = s->id;
      stack->root = std::make_unique<CallNode>();
      stack->top = stack->root.get();
      stack->suspended = s->suspended;
      out_.stacks.push_back(std::move(stack));
    }
    // Calls open across at least one cut, by global id: each later replay's
    // placeholder contributes its partial accumulators and children.
    std::unordered_map<std::uint32_t, CallNode*> open_across;
    // A single replay hands its steps over as they are; several concatenate
    // in order.
    const bool concat = parts_.size() > 1;
    std::size_t total_steps = 0;
    for (const auto& part : parts_) {
      total_steps += concat ? part->steps.size() : 0;
    }
    out_.steps.reserve(total_steps);
    FuncTable funcs(names_);
    for (const auto& part : parts_) {
      Replayer& r = *part;
      std::unordered_map<const CallNode*, CallNode*> remap;
      for (const Replayer::Placeholder& ph : r.placeholders) {
        remap.emplace(ph.ptr, open_across.at(ph.node));
      }
      // Moves `from`'s children under `to`; nested placeholders stay put.
      auto adopt = [&remap](CallNode* from, CallNode* to) {
        for (auto& child : from->children) {
          if (remap.count(child.get()) == 0) {
            child->parent = to;
            to->children.push_back(std::move(child));
          }
        }
      };
      for (const Replayer::Placeholder& ph : r.placeholders) {
        CallNode* real = remap.at(ph.ptr);
        real->net_acc += ph.ptr->net_acc;
        real->elapsed_acc += ph.ptr->elapsed_acc;
        if (ph.ptr->closed) {
          real->exit_time = ph.ptr->exit_time;
          real->closed = true;
          real->forced_close = ph.ptr->forced_close;
        }
        adopt(ph.ptr, real);
      }
      for (const auto& [sid, ls] : r.stacks) {
        if (ls.root == nullptr) {
          continue;  // bounded replay: no structure, and nothing left open
        }
        adopt(ls.root.get(), out_.stacks[static_cast<std::size_t>(sid)]->root.get());
        for (const Replayer::Frame& f : ls.chain) {
          if (f.own) {
            open_across.emplace(f.id, f.node);
          }
        }
      }
      // Only placeholder-close steps can reference a node owned by an
      // earlier replay; every other step's node pointer is already final
      // (children hold unique_ptrs, so grafting never moves the nodes).
      for (const std::size_t idx : r.ph_steps) {
        r.steps[idx].node = remap.at(r.steps[idx].node);
      }
      if (concat) {
        out_.steps.insert(out_.steps.end(), r.steps.begin(), r.steps.end());
      } else {
        out_.steps = std::move(r.steps);
      }
      funcs.Combine(r.funcs);
    }
    // Cross-cut calls: now that their accumulators are complete, fold each
    // exactly once.
    for (const auto& [id, node] : open_across) {
      funcs.Fold(node->fn, node->net_acc, node->elapsed_acc);
    }
    funcs.AddTo(&out_);
  }

  const TagFile& names_;
  const UsecTimer timer_;

  DecodedTrace out_;  // header + anomaly counters; structure comes at Assemble
  // Pending window: time-reconstructed events not yet decided.
  // events_[0, head_) are done (kept until compaction); the rest wait.
  std::vector<DecodedEvent> events_;
  std::size_t head_ = 0;
  bool have_prev_ = false;
  std::uint32_t prev_ = 0;
  Nanoseconds now_ = 0;
  Nanoseconds last_time_ = 0;

  std::vector<std::unique_ptr<PlanStack>> stacks_;
  PlanStack* current_ = nullptr;
  PlanStack* pending_swtch_ = nullptr;
  std::vector<PlanStack*> suspend_order_;
  // Functions seen entering at least once, by dense id; orphan exits of
  // anything else are preopen (the capture began inside the call).
  std::vector<bool> entered_;
  Nanoseconds envelope_ = 0;  // host wall-clock capture duration; 0 = none
  bool finished_ = false;
  std::uint32_t next_node_id_ = 0;

  // Replay: one inline Replayer, or a pool and one Replayer per shard.
  std::vector<std::unique_ptr<Replayer>> parts_;
  Replayer* inline_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  std::size_t target_ = 0;
  std::vector<Op> ops_;
  ChainSnapshot shard_start_;
};

StreamingDecoder::StreamingDecoder(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz, StreamingOptions options)
    : impl_(std::make_unique<Impl>(names, timer_bits, timer_clock_hz,
                                   options.retain_structure, /*jobs=*/1, 0)) {}

StreamingDecoder::StreamingDecoder(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz, unsigned jobs,
                                   std::size_t shard_target_ops)
    : impl_(std::make_unique<Impl>(names, timer_bits, timer_clock_hz,
                                   /*retain=*/true, jobs, shard_target_ops)) {}

StreamingDecoder::~StreamingDecoder() = default;

void RecordDecodeTelemetry(const DecodedTrace& decoded) {
  OBS_COUNT("decode.finishes", 1);
  // 0 for a bounded decode: shows in --stats whether a run built the trees.
  OBS_COUNT("decode.steps_retained", decoded.steps.size());
  OBS_COUNT("decode.anomaly.corrupt_words", decoded.corrupt_words);
  OBS_COUNT("decode.anomaly.impossible_deltas", decoded.impossible_deltas);
  OBS_COUNT("decode.anomaly.wrap_ambiguous_gaps", decoded.wrap_ambiguous_gaps);
  OBS_COUNT("decode.anomaly.unknown_tags", decoded.unknown_tags);
  OBS_COUNT("decode.anomaly.orphan_exits", decoded.orphan_exits);
  OBS_COUNT("decode.anomaly.unclosed_entries", decoded.MidTraceUnclosedEntries());
  OBS_COUNT("decode.anomaly.dropped_events", decoded.dropped_events);
  OBS_COUNT("decode.anomaly.capture_gaps", decoded.capture_gaps);
  OBS_COUNT("decode.anomaly.unaccounted_ns", decoded.unaccounted_time);
}

void StreamingDecoder::Feed(const RawEvent* events, std::size_t count) {
  impl_->FeedWith(count, [events](std::size_t k) { return events[k]; });
}

void StreamingDecoder::Feed(const std::vector<RawEvent>& events) {
  Feed(events.data(), events.size());
}

// Structure-of-arrays entry point for the binary container's decode loop:
// the chunk reader hands flat tag/timestamp columns and nothing is ever
// zipped into RawEvent arrays on the hot path.
void StreamingDecoder::FeedSoA(const std::uint16_t* tags,
                               const std::uint32_t* timestamps,
                               std::size_t count) {
  impl_->FeedWith(count, [tags, timestamps](std::size_t k) {
    return RawEvent{tags[k], timestamps[k]};
  });
}

void StreamingDecoder::FeedChunk(const TraceChunk& chunk) {
  impl_->NoteDropped(chunk.dropped_before);
  Feed(chunk.events.data(), chunk.events.size());
}

void StreamingDecoder::FeedChunk(const SoaChunk& chunk) {
  impl_->NoteDropped(chunk.dropped_before);
  FeedSoA(chunk.tags.data(), chunk.timestamps.data(), chunk.tags.size());
}

void StreamingDecoder::NoteDropped(std::uint64_t count) { impl_->NoteDropped(count); }

void StreamingDecoder::NoteCorruptWords(std::uint64_t count) {
  impl_->NoteCorruptWords(count);
}

void StreamingDecoder::SetClockEnvelope(Nanoseconds capture_elapsed) {
  impl_->SetClockEnvelope(capture_elapsed);
}

std::uint64_t StreamingDecoder::events_seen() const { return impl_->events_seen(); }

std::uint64_t StreamingDecoder::dropped_events() const { return impl_->dropped_events(); }

std::size_t StreamingDecoder::pending() const { return impl_->pending(); }

std::size_t StreamingDecoder::shards_planned() const { return impl_->shards_planned(); }

DecodedTrace StreamingDecoder::SnapshotStats() const { return impl_->SnapshotStats(); }

DecodedTrace StreamingDecoder::Finish(bool truncated) { return impl_->Finish(truncated); }

DecodedTrace StreamingDecoder::DecodeAll(CaptureReader& reader) {
  SetClockEnvelope(static_cast<Nanoseconds>(reader.capture_elapsed_ns()));
  SoaChunk chunk;
  while (reader.Next(&chunk)) {
    FeedChunk(chunk);
  }
  // A capture's drops are one count (the reader folds chunk drops into it);
  // a stream's arrived with its chunks and this is 0.
  NoteDropped(reader.dropped_events());
  NoteCorruptWords(reader.corrupt_words());
  return Finish(reader.overflowed() || reader.truncated_tail());
}

DecodedTrace StreamingDecoder::DecodeAll(const RawTrace& raw) {
  // Board-side accounting travels with the capture: drain-race drops and the
  // host wall-clock envelope (both 0 on traces that never recorded them).
  NoteDropped(raw.dropped_events);
  SetClockEnvelope(raw.capture_elapsed_ns);
  Feed(raw.events);
  return Finish(raw.overflowed);
}

DecodedTrace Decoder::Decode(const RawTrace& raw, const TagFile& names) {
  return StreamingDecoder(names, raw.timer_bits, raw.timer_clock_hz,
                          StreamingOptions{.retain_structure = true})
      .DecodeAll(raw);
}

}  // namespace hwprof
