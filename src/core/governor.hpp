// RuntimeGovernor: a deterministic overload controller for the OMI path.
//
// The governor closes the loop between observed frame latencies
// (DeviceSession) and serving decisions (AnoleEngine / ModelCache). It
// watches a sliding window of deadline-overrun flags and moves through
// three states with hysteresis:
//
//            overrun rate >= throttle_enter        rate >= shed_enter
//   kNormal ───────────────────────────────▶ kThrottled ───────────▶ kShedding
//      ▲                                        │   ▲                   │
//      └────────────────────────────────────────┘   └───────────────────┘
//            rate <= throttle_exit (slow)           rate <= shed_exit (slow)
//
// - kNormal: no intervention; swaps and fresh rankings every frame.
// - kThrottled: model swaps are suppressed (the engine serves the best
//   *resident* model instead of streaming the top-1 miss), and the
//   previous decision ranking is reused except every k-th frame.
// - kShedding: in addition, every shed_period-th frame is dropped
//   outright; the drop is recorded in the engine's Health record.
//
// Escalation requires `min_dwell` planned frames in the current state;
// de-escalation requires the longer `recovery_dwell` so a lull in a burst
// does not bounce the controller (hysteresis). All time is logical — the
// frame counter — never wall-clock, so for a fixed observation sequence
// the state-transition trace (and its FNV-1a hash) is bitwise identical
// across runs and thread counts. See DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anole::core {

enum class GovernorState : std::uint8_t {
  kNormal = 0,
  kThrottled,
  kShedding,
};

const char* to_string(GovernorState state);

struct GovernorConfig {
  /// Sliding window of observed frames the overrun rate is computed over.
  /// Transitions are only evaluated once the window is full.
  std::size_t window = 32;
  /// Overrun rate at/above which kNormal escalates to kThrottled.
  double throttle_enter_rate = 0.06;
  /// Overrun rate at/below which kThrottled recovers to kNormal.
  double throttle_exit_rate = 0.02;
  /// Overrun rate at/above which the governor escalates to kShedding.
  double shed_enter_rate = 0.50;
  /// Overrun rate at/below which kShedding de-escalates to kThrottled.
  double shed_exit_rate = 0.10;
  /// Planned frames that must elapse in a state before escalating.
  std::size_t min_dwell = 16;
  /// Planned frames that must elapse before de-escalating (hysteresis:
  /// recovery is deliberately slower than escalation).
  std::size_t recovery_dwell = 256;
  /// While throttled/shedding, a fresh decision ranking is computed only
  /// every ranking_refresh_period-th frame; the rest reuse the previous
  /// one. Must be >= 1 (1 = refresh every frame).
  std::size_t ranking_refresh_period = 4;
  /// While shedding, every shed_period-th frame is dropped. Must be >= 2
  /// so shedding never drops every frame.
  std::size_t shed_period = 3;
};

/// One state transition (or drop decision), in logical-frame order.
struct GovernorEvent {
  /// Planned-frame counter when the event happened.
  std::uint64_t frame = 0;
  GovernorState from = GovernorState::kNormal;
  GovernorState to = GovernorState::kNormal;
  /// True when this event records a dropped frame, not a transition.
  bool dropped = false;
};

/// What the governor tells the engine to do with the next frame.
struct GovernorDirective {
  GovernorState state = GovernorState::kNormal;
  /// Drop this frame outright (kShedding only).
  bool drop_frame = false;
  /// False: the cache must not start a model load for this frame; serve
  /// the best already-resident model instead.
  bool allow_swap = true;
  /// False: reuse the previous decision ranking instead of running the
  /// decision model.
  bool refresh_ranking = true;
};

class RuntimeGovernor {
 public:
  explicit RuntimeGovernor(GovernorConfig config = {});

  /// Called once per frame *before* the engine executes it; advances the
  /// logical clock and returns the serving directive for this frame.
  GovernorDirective plan();

  /// Called once per *executed* frame with its measured latency and
  /// deadline verdict (dropped frames are not observed — they have no
  /// latency). Evaluates state transitions.
  void observe(double latency_ms, bool deadline_overrun);

  GovernorState state() const { return state_; }
  const GovernorConfig& config() const { return config_; }

  /// Frames planned (plan() calls) / dropped so far.
  std::uint64_t frames_planned() const { return planned_; }
  std::uint64_t dropped_frames() const { return dropped_; }
  /// State transitions taken (excludes drop events).
  std::uint64_t transitions() const { return transitions_; }

  /// Overrun rate over the current observation window; 0 until the first
  /// observation arrives.
  double window_overrun_rate() const;

  /// Every transition and drop decision, in logical-frame order.
  const std::vector<GovernorEvent>& trace() const { return trace_; }

  /// FNV-1a hash of the trace; equal hashes across two runs mean the
  /// governor took bitwise-identical decisions.
  std::uint64_t trace_hash() const;

  /// Returns to kNormal with empty window, counters, and trace; the
  /// configuration is kept.
  void reset();

 private:
  void maybe_transition();
  void transition_to(GovernorState next);

  GovernorConfig config_;
  GovernorState state_ = GovernorState::kNormal;
  /// Ring buffer of the last `config_.window` overrun flags.
  std::vector<std::uint8_t> window_;
  std::size_t window_next_ = 0;
  std::size_t window_filled_ = 0;
  std::size_t window_overruns_ = 0;
  std::uint64_t planned_ = 0;
  std::uint64_t observed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transitions_ = 0;
  /// Value of planned_ when the current state was entered.
  std::uint64_t state_entered_at_ = 0;
  std::vector<GovernorEvent> trace_;
};

}  // namespace anole::core
