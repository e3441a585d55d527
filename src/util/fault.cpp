#include "util/fault.hpp"

#include <atomic>
#include <cstdlib>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/spec.hpp"

namespace anole::fault {
namespace {

constexpr std::array<const char*, kSiteCount> kSiteNames = {
    "model_load", "artifact_section", "decision_output", "frame_payload",
    "load_latency_spike", "memory_pressure"};

std::size_t site_index(Site site) {
  const auto index = static_cast<std::size_t>(site);
  ANOLE_CHECK_RANGE(index, kSiteCount, "unknown fault::Site");
  return index;
}

/// Process-wide trace-context tag (see fault.hpp). Relaxed atomics: the
/// tag is set once during dispatch-level resolution, long before any
/// trace is hashed, and hashing re-reads it under the injector mutex.
std::atomic<std::uint64_t> g_trace_context{0};

}  // namespace

void set_trace_context(std::uint64_t tag) {
  g_trace_context.store(tag, std::memory_order_relaxed);
}

std::uint64_t trace_context() {
  return g_trace_context.load(std::memory_order_relaxed);
}

const char* to_string(Site site) { return kSiteNames[site_index(site)]; }

std::optional<Site> site_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) return static_cast<Site>(i);
  }
  return std::nullopt;
}

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {
  seed_streams();
}

FaultInjector::FaultInjector(const std::string& spec)
    : FaultInjector(kDefaultSeed) {
  bool reseed = false;
  for (const spec::Token& token : spec::tokenize(spec, "ANOLE_FAULTS")) {
    if (token.key == "seed") {
      seed_ = spec::parse_u64(token.value, "ANOLE_FAULTS", "seed");
      reseed = true;
      continue;
    }
    const auto site = site_from_name(token.key);
    ANOLE_CHECK(site.has_value(), "ANOLE_FAULTS: unknown site '", token.key,
                "' (sites: model_load, artifact_section, decision_output, "
                "frame_payload, load_latency_spike, memory_pressure)");
    const spec::Rate rate =
        spec::parse_rate(token.value, "ANOLE_FAULTS", token.key);
    sites_[site_index(*site)].probability = rate.value;
    sites_[site_index(*site)].magnitude = rate.magnitude;
  }
  if (reseed) seed_streams();
}

std::unique_ptr<FaultInjector> FaultInjector::from_env() {
  const char* spec = std::getenv("ANOLE_FAULTS");
  if (spec == nullptr || *spec == '\0') return nullptr;
  return std::make_unique<FaultInjector>(std::string(spec));
}

void FaultInjector::seed_streams() {
  // One independent stream per site, derived from the master seed so a
  // draw at one site never shifts another site's schedule.
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    sites_[i].rng = Rng(seed_ + 0x9E3779B97F4A7C15ULL * (i + 1));
  }
}

void FaultInjector::arm(Site site, double probability, double magnitude) {
  ANOLE_CHECK(probability >= 0.0 && probability <= 1.0,
              "FaultInjector::arm: probability must be in [0, 1], got ",
              probability);
  ANOLE_CHECK_GT(magnitude, 0.0,
                 "FaultInjector::arm: magnitude must be > 0");
  const std::scoped_lock lock(mutex_);
  sites_[site_index(site)].probability = probability;
  sites_[site_index(site)].magnitude = magnitude;
}

void FaultInjector::disarm(Site site) {
  const std::scoped_lock lock(mutex_);
  sites_[site_index(site)].probability = 0.0;
}

bool FaultInjector::armed() const {
  const std::scoped_lock lock(mutex_);
  for (const SiteState& state : sites_) {
    if (state.probability > 0.0) return true;
  }
  return false;
}

double FaultInjector::probability(Site site) const {
  const std::scoped_lock lock(mutex_);
  return sites_[site_index(site)].probability;
}

double FaultInjector::magnitude(Site site) const {
  const std::scoped_lock lock(mutex_);
  return sites_[site_index(site)].magnitude;
}

bool FaultInjector::should_fail(Site site, std::uint64_t payload) {
  const std::scoped_lock lock(mutex_);
  SiteState& state = sites_[site_index(site)];
  // Unarmed sites never advance their stream, so arming one site later
  // does not depend on how often the clean path consulted it.
  if (state.probability <= 0.0) return false;
  const std::uint64_t check = state.checks++;
  if (state.rng.uniform() >= state.probability) return false;
  ++state.injected;
  trace_.push_back(FaultEvent{site, check, payload});
  return true;
}

std::size_t FaultInjector::draw_index(Site site, std::size_t n) {
  ANOLE_CHECK_GE(n, 1u, "FaultInjector::draw_index: empty range");
  const std::scoped_lock lock(mutex_);
  return sites_[site_index(site)].rng.uniform_index(n);
}

std::uint64_t FaultInjector::checks(Site site) const {
  const std::scoped_lock lock(mutex_);
  return sites_[site_index(site)].checks;
}

std::uint64_t FaultInjector::injected(Site site) const {
  const std::scoped_lock lock(mutex_);
  return sites_[site_index(site)].injected;
}

std::uint64_t FaultInjector::injected_total() const {
  const std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const SiteState& state : sites_) total += state.injected;
  return total;
}

std::vector<FaultEvent> FaultInjector::trace() const {
  const std::scoped_lock lock(mutex_);
  return trace_;
}

std::uint64_t FaultInjector::trace_hash() const {
  const std::scoped_lock lock(mutex_);
  Fnv1a hash;
  // The execution-context tag (active SIMD level) seeds the hash so a
  // replay on a different kernel path cannot alias a matching schedule.
  hash.mix(trace_context());
  for (const FaultEvent& event : trace_) {
    hash.mix(static_cast<std::uint64_t>(event.site));
    hash.mix(event.check_index);
    hash.mix(event.payload);
  }
  return hash.value();
}

void FaultInjector::reset() {
  const std::scoped_lock lock(mutex_);
  seed_streams();
  trace_.clear();
  for (SiteState& state : sites_) {
    state.checks = 0;
    state.injected = 0;
  }
}

}  // namespace anole::fault
