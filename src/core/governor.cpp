#include "core/governor.hpp"

#include "tensor/simd.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace anole::core {

const char* to_string(GovernorState state) {
  switch (state) {
    case GovernorState::kNormal: return "normal";
    case GovernorState::kThrottled: return "throttled";
    case GovernorState::kShedding: return "shedding";
  }
  ANOLE_UNREACHABLE("unknown GovernorState ", static_cast<int>(state));
}

RuntimeGovernor::RuntimeGovernor(GovernorConfig config)
    : config_(config) {
  ANOLE_CHECK_GE(config_.window, 1u, "GovernorConfig: window must be >= 1");
  ANOLE_CHECK_GE(config_.ranking_refresh_period, 1u,
                 "GovernorConfig: ranking_refresh_period must be >= 1");
  ANOLE_CHECK_GE(config_.shed_period, 2u,
                 "GovernorConfig: shed_period must be >= 2 so shedding "
                 "never drops every frame");
  ANOLE_CHECK(config_.throttle_exit_rate <= config_.throttle_enter_rate,
              "GovernorConfig: throttle_exit_rate must not exceed "
              "throttle_enter_rate (hysteresis)");
  ANOLE_CHECK(config_.shed_exit_rate <= config_.shed_enter_rate,
              "GovernorConfig: shed_exit_rate must not exceed "
              "shed_enter_rate (hysteresis)");
  ANOLE_CHECK(config_.throttle_enter_rate <= config_.shed_enter_rate,
              "GovernorConfig: shed_enter_rate must be at least "
              "throttle_enter_rate");
  window_.assign(config_.window, 0);
}

GovernorDirective RuntimeGovernor::plan() {
  GovernorDirective directive;
  directive.state = state_;
  // Frames spent in the current state, counting this one as the first
  // when the state was just entered.
  const std::uint64_t in_state = planned_ - state_entered_at_;
  ++planned_;
  if (state_ == GovernorState::kNormal) return directive;

  directive.allow_swap = false;
  directive.refresh_ranking =
      (in_state % config_.ranking_refresh_period) == 0;
  if (state_ == GovernorState::kShedding &&
      (in_state % config_.shed_period) == config_.shed_period - 1) {
    directive.drop_frame = true;
    ++dropped_;
    trace_.push_back(GovernorEvent{planned_ - 1, state_, state_,
                                   /*dropped=*/true});
  }
  return directive;
}

void RuntimeGovernor::observe(double latency_ms, bool deadline_overrun) {
  ANOLE_CHECK_GE(latency_ms, 0.0,
                 "RuntimeGovernor::observe: negative latency");
  ++observed_;
  const std::uint8_t flag = deadline_overrun ? 1 : 0;
  if (window_filled_ < window_.size()) {
    window_[window_next_] = flag;
    ++window_filled_;
  } else {
    window_overruns_ -= window_[window_next_];
    window_[window_next_] = flag;
  }
  window_overruns_ += flag;
  window_next_ = (window_next_ + 1) % window_.size();
  // Only judge a full window: a handful of early frames should not trip
  // the controller.
  if (window_filled_ == window_.size()) maybe_transition();
}

double RuntimeGovernor::window_overrun_rate() const {
  if (window_filled_ == 0) return 0.0;
  return static_cast<double>(window_overruns_) /
         static_cast<double>(window_filled_);
}

void RuntimeGovernor::maybe_transition() {
  const double rate = window_overrun_rate();
  const std::uint64_t in_state = planned_ - state_entered_at_;
  switch (state_) {
    case GovernorState::kNormal:
      if (in_state < config_.min_dwell) return;
      if (rate >= config_.shed_enter_rate) {
        transition_to(GovernorState::kShedding);
      } else if (rate >= config_.throttle_enter_rate) {
        transition_to(GovernorState::kThrottled);
      }
      return;
    case GovernorState::kThrottled:
      if (rate >= config_.shed_enter_rate &&
          in_state >= config_.min_dwell) {
        transition_to(GovernorState::kShedding);
      } else if (rate <= config_.throttle_exit_rate &&
                 in_state >= config_.recovery_dwell) {
        transition_to(GovernorState::kNormal);
      }
      return;
    case GovernorState::kShedding:
      if (rate <= config_.shed_exit_rate &&
          in_state >= config_.recovery_dwell) {
        transition_to(GovernorState::kThrottled);
      }
      return;
  }
}

void RuntimeGovernor::transition_to(GovernorState next) {
  trace_.push_back(GovernorEvent{planned_, state_, next,
                                 /*dropped=*/false});
  state_ = next;
  state_entered_at_ = planned_;
  ++transitions_;
}

std::uint64_t RuntimeGovernor::trace_hash() const {
  Fnv1a hash;
  // The active SIMD dispatch level is part of the trace identity: a
  // replay under a different level (ANOLE_SIMD) is a different execution
  // environment and must not silently hash equal.
  hash.mix(static_cast<std::uint64_t>(simd::active_level()) + 1);
  for (const GovernorEvent& event : trace_) {
    hash.mix(event.frame);
    hash.mix(static_cast<std::uint64_t>(event.from));
    hash.mix(static_cast<std::uint64_t>(event.to));
    hash.mix(event.dropped ? 1 : 0);
  }
  return hash.value();
}

void RuntimeGovernor::reset() {
  state_ = GovernorState::kNormal;
  window_.assign(config_.window, 0);
  window_next_ = 0;
  window_filled_ = 0;
  window_overruns_ = 0;
  planned_ = 0;
  observed_ = 0;
  dropped_ = 0;
  transitions_ = 0;
  state_entered_at_ = 0;
  trace_.clear();
}

}  // namespace anole::core
