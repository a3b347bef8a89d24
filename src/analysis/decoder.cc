#include "src/analysis/decoder.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "src/base/assert.h"
#include "src/obs/telemetry.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/usec_timer.h"

namespace hwprof {

namespace {

// Stalled-window compaction threshold: decided events are erased from the
// front of the buffer once this many accumulate while later events wait on
// lookahead.
constexpr std::size_t kCompactThreshold = 4096;

// A frame whose entry step was not kept.
constexpr std::size_t kNoStep = std::numeric_limits<std::size_t>::max();

// Adds `s` into `d`. Sums and min/max commute, so per-function stats may be
// folded in any order.
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

// Folds a finished decode's counters into the pipeline telemetry registry
// (src/obs): what it kept (0 and 0 for a stats-only decode) and the anomaly
// ledger under decode.anomaly.*.
void RecordDecodeTelemetry(const DecodedTrace& decoded, std::uint64_t contexts) {
  OBS_COUNT("decode.finishes", 1);
  OBS_COUNT("decode.contexts_retained", contexts);
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

}  // namespace

std::size_t NetBucket(std::uint64_t us) {
  return std::min(static_cast<std::size_t>(std::bit_width(us)), kNetBuckets - 1);
}

// --- The engine --------------------------------------------------------------
// The matcher is the only place that decides. Events arrive through Feed in
// arbitrary slices; each is time-reconstructed immediately and then decided
// as soon as its handling cannot depend on events that have not arrived yet
// (Undecided below). At Finish the end of the buffer is the end of the
// trace, so any chunking of the same event sequence yields identical
// decisions. Each decision is replayed at once (Open, Mark, Close, SwitchTo,
// Advance below): that is the only code that attributes time and builds.
//
// Attribution is O(1) per event. Each stack keeps an on-CPU clock: the sum of
// the intervals charged while it ran with a call open. A call's elapsed time
// is the clock's advance between its open and its close, and its net time is
// that minus its direct children's elapsed. Both are integer sums of the
// same intervals a per-frame charge would add, so they are exact.

class StreamingDecoder::Impl {
 public:
  Impl(const TagFile& names, unsigned timer_bits, std::uint64_t timer_clock_hz,
       StreamingOptions options)
      : names_(names),
        timer_(timer_bits, timer_clock_hz),
        entered_(names.size()),
        funcs_(names),
        retain_(options.retain_structure),
        step_lines_(options.retain_structure ? options.step_lines : 0) {
    current_ = NewStack();
  }

  template <typename GetEvent>
  void FeedWith(std::size_t count, GetEvent get) {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: Feed after Finish");
    OBS_SPAN_BEGIN(feed);
    for (std::size_t k = 0; k < count; ++k) {
      Push(get(k));
    }
    Process(/*final=*/false);
    OBS_SPAN_END(feed, "decode.chunk");
    OBS_COUNT("decode.chunks", 1);
    OBS_COUNT("decode.events", count);
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

  DecodedTrace SnapshotStats() const {
    HWPROF_CHECK_MSG(!finished_, "StreamingDecoder: SnapshotStats after Finish");
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
    // Closed calls as folded, open ones with their time to date.
    FuncTable so_far = funcs_;
    for (const auto& s : stacks_) {
      for (std::size_t i = 0; i < s->chain.size(); ++i) {
        so_far.Fold(s->chain[i].fn, NetToDate(*s, i), Elapsed(*s, i));
      }
    }
    so_far.AddTo(&snap);
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
        const TagEntry* fn = s->chain.back().fn;
        ++out_.unclosed_entries;
        ++out_.unclosed_entry_counts[fn->name];
        ++out_.truncated_entry_counts[fn->name];
        Pop(*s, out_.end_time, /*forced=*/true, /*switch_in=*/false, /*exit_step=*/false);
      }
      auto stack = std::make_unique<ActivityStack>();
      stack->id = s->id;
      stack->root = std::move(s->root);
      out_.stacks.push_back(std::move(stack));
    }
    funcs_.AddTo(&out_);
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
    RecordDecodeTelemetry(out_, contexts_);
    OBS_SPAN_END(finish, "decode.finish");
    return std::move(out_);
  }

 private:
  struct DecodedEvent {
    Nanoseconds t = 0;
    const TagEntry* entry = nullptr;  // never null (unknowns are filtered)
    bool is_exit = false;
  };
  // One open call. The matcher reads only `fn`; the rest is replay state.
  struct Frame {
    const TagEntry* fn = nullptr;
    Nanoseconds opened_at = 0;         // the stack's clock at open
    Nanoseconds children_elapsed = 0;  // elapsed of its closed direct children
    CallNode* context = nullptr;       // retained structure only
    std::size_t step = kNoStep;        // its entry step, if kept
    bool has_children = false;         // retained structure only
  };
  struct Stack {
    int id = 0;
    std::vector<Frame> chain;  // outermost .. innermost open frames
    bool suspended = false;
    Nanoseconds clock = 0;     // on-CPU time charged while a call was open
    std::unique_ptr<CallNode> root = std::make_unique<CallNode>();
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
      StepEvent(ev, head_);
      ++head_;
    }
    if (head_ == events_.size()) {
      events_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold) {
      events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static const TagEntry* TopFn(const Stack* s) {
    return s->chain.empty() ? nullptr : s->chain.back().fn;
  }

  // The stack suspended in swtch whose idle window is still open, if any.
  Stack* PendingSwitchOut() const {
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
    const std::vector<Frame>& ch = current_->chain;
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
                     const Stack* skip_top_of) const {
    for (const Stack* s : suspend_order_) {
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
  int MatchScore(const Stack* s, std::size_t from, bool skip_top,
                 bool* decided) const {
    const std::vector<Frame>& ch = s->chain;
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
  Stack* BestSuspendedMatch(std::size_t from, const TagEntry* require_top) {
    Stack* best = nullptr;
    int best_score = 0;
    // Most recently suspended wins ties.
    for (auto it = suspend_order_.rbegin(); it != suspend_order_.rend(); ++it) {
      Stack* s = *it;
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

  void Unsuspend(Stack* s) {
    s->suspended = false;
    suspend_order_.erase(std::remove(suspend_order_.begin(), suspend_order_.end(), s),
                         suspend_order_.end());
  }

  void StepEvent(const DecodedEvent& ev, std::size_t index) {
    const TagEntry* fn = ev.entry;
    if (fn->kind == TagKind::kInline) {
      Mark(ev.t, fn);
      return;
    }
    if (!ev.is_exit) {
      entered_[names_.IndexOf(fn)] = true;
      Open(ev.t, fn);
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
    if (Stack* outgoing = PendingSwitchOut()) {
      // Close the idle window. `outgoing` stays suspended (its process is
      // still off-CPU).
      pending_swtch_ = nullptr;
      Close(*outgoing, ev.t, /*forced=*/false, /*switch_in=*/true);
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
    Stack* next = BestSuspendedMatch(index + 1, nullptr);
    if (next != nullptr) {
      Unsuspend(next);
    } else {
      next = NewStack();
    }
    SwitchTo(next, ev.t);
  }

  void HandleExit(const DecodedEvent& ev, std::size_t index) {
    // Normally the exit matches the innermost open call. One open deeper on
    // this stack means missed exits in between (should not happen with
    // compiler-generated triggers, but the analyser tolerates it):
    // force-close down to the match.
    std::vector<Frame>& ch = current_->chain;
    for (std::size_t p = ch.size(); p-- > 0;) {
      if (ch[p].fn == ev.entry) {
        while (ch.size() - 1 > p) {
          ++out_.unclosed_entry_counts[ch.back().fn->name];
          ++out_.unclosed_entries;
          Close(*current_, ev.t, /*forced=*/true, /*switch_in=*/false);
        }
        Close(*current_, ev.t, /*forced=*/false, /*switch_in=*/false);
        return;
      }
    }
    // Not on this stack: an implicitly resumed context (a fresh stack was
    // chosen at the context switch and this exit belongs to the real one).
    if (Stack* s = BestSuspendedMatch(index, ev.entry)) {
      Unsuspend(s);
      SwitchTo(s, ev.t);
      Close(*s, ev.t, /*forced=*/false, /*switch_in=*/true);
      return;
    }
    NoteOrphanExit(ev.entry);
    Advance(ev.t);
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

  Stack* NewStack() {
    auto s = std::make_unique<Stack>();
    s->id = static_cast<int>(stacks_.size());
    stacks_.push_back(std::move(s));
    return stacks_.back().get();
  }

  // --- Replay ----------------------------------------------------------------

  // Charges the interval since the previous replayed instant to the running
  // context: its clock advances, which is elapsed time for every call open on
  // it and net time for the innermost. A call whose process is switched out
  // accumulates nothing while off-CPU (the paper's per-activity-block rule);
  // time with no open call (user mode / unprofiled code) stays unattributed.
  void Advance(Nanoseconds t) {
    if (!current_->chain.empty()) {
      current_->clock += t - last_t_;
    }
    last_t_ = t;
  }

  // Interval attribution switches to `s` from `t` on.
  void SwitchTo(Stack* s, Nanoseconds t) {
    Advance(t);
    current_ = s;
  }

  void Open(Nanoseconds t, const TagEntry* fn) {
    Advance(t);
    Stack& s = *current_;
    Frame f;
    f.fn = fn;
    f.opened_at = s.clock;
    if (retain_) {
      f.context = ChildContext(s.chain.empty() ? s.root.get() : s.chain.back().context, fn);
      f.step = OpenStep(s, t, fn, /*inline_marker=*/false);
    }
    s.chain.push_back(f);
  }

  // An inline trigger: a single-event marker under the running call. Markers
  // carry no time, so only the steps show them.
  void Mark(Nanoseconds t, const TagEntry* fn) {
    Advance(t);
    if (retain_) {
      OpenStep(*current_, t, fn, /*inline_marker=*/true);
    }
  }

  // Closes `s`'s innermost call at `t`. Only the close of a switched-out
  // process's swtch frame names a stack other than the running one.
  void Close(Stack& s, Nanoseconds t, bool forced, bool switch_in) {
    Advance(t);
    Pop(s, t, forced, switch_in, /*exit_step=*/true);
  }

  // Pops `s`'s innermost frame and folds the call: into the per-function
  // stats always; with retained structure into its context node and its
  // steps. A truncation close at Finish charges nothing and has no exit step.
  void Pop(Stack& s, Nanoseconds t, bool forced, bool switch_in, bool exit_step) {
    HWPROF_CHECK(!s.chain.empty());
    const Frame f = s.chain.back();
    s.chain.pop_back();
    const Nanoseconds elapsed = s.clock - f.opened_at;
    const Nanoseconds net = elapsed - f.children_elapsed;
    if (!s.chain.empty()) {
      s.chain.back().children_elapsed += elapsed;
    }
    funcs_.Fold(f.fn, net, elapsed);
    if (!retain_) {
      return;
    }
    CallNode& node = *f.context;
    ++node.calls;
    node.net += net;
    node.elapsed += elapsed;
    ++node.net_histogram[NetBucket(ToWholeUsec(net))];
    TraceStep done;
    done.fn = f.fn;
    done.net = net;
    done.elapsed = elapsed;
    done.exit_time = t;
    done.stack_id = s.id;
    done.has_children = f.has_children;
    done.forced_close = forced;
    if (f.step != kNoStep) {
      TraceStep& entry = out_.steps[f.step];
      done.t = entry.t;
      done.depth = entry.depth;
      entry = done;
    }
    // The report renders a context-switch line and an exit line, or an exit
    // line for a call with subroutines, or nothing (a leaf's entry line
    // already carries its times).
    const std::size_t lines = switch_in ? 2 : (f.has_children ? 1 : 0);
    if (exit_step && KeepStep(lines)) {
      done.t = t;
      done.depth = static_cast<int>(s.chain.size());
      done.is_exit = true;
      done.context_switch_in = switch_in;
      out_.steps.push_back(done);
    }
  }

  // The context node for a call of `fn` under `parent`, made on first use.
  CallNode* ChildContext(CallNode* parent, const TagEntry* fn) {
    for (const auto& child : parent->children) {
      if (child->fn == fn) {
        return child.get();
      }
    }
    parent->children.push_back(std::make_unique<CallNode>());
    parent->children.back()->fn = fn;
    ++contexts_;
    return parent->children.back().get();
  }

  // The entry step of a call or marker opening on `s`: its index, or kNoStep
  // when it is past what the caller asked to keep.
  std::size_t OpenStep(Stack& s, Nanoseconds t, const TagEntry* fn, bool inline_marker) {
    if (!s.chain.empty()) {
      s.chain.back().has_children = true;
    }
    if (!KeepStep(1)) {
      return kNoStep;
    }
    TraceStep step;
    step.t = t;
    step.fn = fn;
    step.exit_time = t;
    step.depth = static_cast<int>(s.chain.size());
    step.stack_id = s.id;
    step.inline_marker = inline_marker;
    out_.steps.push_back(step);
    return out_.steps.size() - 1;
  }

  // Whether the next step, which renders `lines` report lines, is kept:
  // every step until the kept ones render step_lines_, then one more so the
  // report can tell that the trace went on.
  bool KeepStep(std::size_t lines) {
    if (lines_ >= step_lines_) {
      if (step_lines_ == 0 || past_budget_) {
        return false;
      }
      past_budget_ = true;
    }
    lines_ += lines;
    return true;
  }

  static Nanoseconds Elapsed(const Stack& s, std::size_t i) {
    return s.clock - s.chain[i].opened_at;
  }
  // Net time of open frame `i`: its elapsed minus its closed children's and
  // its open child's (the next frame on the chain).
  static Nanoseconds NetToDate(const Stack& s, std::size_t i) {
    const Nanoseconds inner = i + 1 < s.chain.size() ? Elapsed(s, i + 1) : 0;
    return Elapsed(s, i) - s.chain[i].children_elapsed - inner;
  }

  const TagFile& names_;
  const UsecTimer timer_;

  DecodedTrace out_;  // header, anomaly counters and the kept steps
  // Pending window: time-reconstructed events not yet decided.
  // events_[0, head_) are done (kept until compaction); the rest wait.
  std::vector<DecodedEvent> events_;
  std::size_t head_ = 0;
  bool have_prev_ = false;
  std::uint32_t prev_ = 0;
  Nanoseconds now_ = 0;

  std::vector<std::unique_ptr<Stack>> stacks_;
  Stack* current_ = nullptr;  // the running context
  Stack* pending_swtch_ = nullptr;
  std::vector<Stack*> suspend_order_;
  // Functions seen entering at least once, by dense id; orphan exits of
  // anything else are preopen (the capture began inside the call).
  std::vector<bool> entered_;
  Nanoseconds envelope_ = 0;  // host wall-clock capture duration; 0 = none
  bool finished_ = false;

  // Replay.
  FuncTable funcs_;
  Nanoseconds last_t_ = 0;  // the last replayed instant
  const bool retain_;
  const std::size_t step_lines_;
  std::size_t lines_ = 0;  // report lines the kept steps render
  bool past_budget_ = false;
  std::uint64_t contexts_ = 0;
};

StreamingDecoder::StreamingDecoder(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz, StreamingOptions options)
    : impl_(std::make_unique<Impl>(names, timer_bits, timer_clock_hz, options)) {}

StreamingDecoder::~StreamingDecoder() = default;

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
