// The benchmark's own logic, kept apart from the workloads so it can be
// tested: percentile rule, span recording and self time, CPU/RSS probes,
// and the seeded input generators (serve arrival schedule, INI
// environments, churn drift sequence).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/env_delta.hpp"
#include "core/environment.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- percentiles

/// A nearest-rank percentile together with the evidence behind it. The
/// benchmark's rule: a tail percentile counts as resolved only when at least
/// `kMinBeyond` samples lie strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked after the percentile's rank
  bool resolved = false;   ///< beyond >= kMinBeyond
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile `q` in (0, 1] of `values` (rank ceil(q*n)).
/// Empty input yields a zero, unresolved percentile.
Percentile percentile(std::vector<double> values, double q);

/// Smallest sample count for which percentile `q` is resolved.
std::size_t samples_needed(double q);

// ---------------------------------------------------------------------- spans

/// One timed interval recorded by the benchmark around a call into the
/// program. `parent` indexes the recorder's span list (-1 = root); every
/// span of one operation shares `op`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = 0;
};

/// In-memory span store, written out once when the benchmark ends. Thread
/// safe: serve client threads record concurrently.
class SpanRecorder {
 public:
  /// Open a span; returns its id for end(). No-op (-1) when disabled.
  int begin(const std::string& name, std::int64_t op, int parent = -1);
  void end(int id);
  /// Record an already-measured interval.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, std::int64_t op, int parent = -1);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::vector<Span> spans() const;
  /// Chrome trace_event JSON ("X" events; op and parent in args).
  std::string to_json() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// and are clipped to the parent's interval).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// -------------------------------------------------------------- process probes

/// User + system CPU time of the whole process, ms (getrusage).
double process_cpu_ms();
/// Peak resident set of the process, MB (getrusage ru_maxrss).
double peak_rss_mb();

// ------------------------------------------------------------ input generators

/// One entry of the serve workload's open-loop schedule.
struct Arrival {
  enum class Kind { Design, Resolve, Stats };
  double due_ms = 0.0;  ///< offset from the start of the phase
  Kind kind = Kind::Design;
  int env = -1;      ///< Design/Resolve: index into the environment pool
  int variant = -1;  ///< Resolve: successor variant of `env`
  int ref = -1;      ///< Resolve: schedule index of the design it chains on
};

/// The serve workload's traffic mix. Only the offered rate and the length
/// of a schedule vary (main phase, rate ladder, traced phases).
inline constexpr int kServePool = 24;         ///< distinct environments
inline constexpr int kServeVariants = 2;      ///< resolve successors per env
inline constexpr double kResolveShare = 0.1;  ///< share of resolve arrivals
inline constexpr int kStatsEvery = 50;        ///< every n-th is a stats line
inline constexpr int kChainBack = 6;     ///< resolves chain this far back...
inline constexpr int kChainWindow = 32;  ///< ...and less than this more

/// Poisson arrivals at `rate_per_s` for `duration_s`; deterministic for
/// (seed, rate, duration). Resolves always reference an earlier Design
/// arrival of the same environment between `kChainBack` and `kChainBack +
/// kChainWindow` arrivals back (so it has completed and is still in the
/// server's solution store); with no such design in reach the arrival stays
/// a Design.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_s);

/// A seeded INI environment with `apps` applications (2..16): sites sized
/// so every application fits, fully linked, flat failure rates. Lints clean.
std::string make_env_ini(std::uint64_t seed, int apps);

/// The same environment with one application added, removed or resized
/// (chosen by `variant_seed`) — a valid resolve successor.
std::string make_successor_ini(std::uint64_t seed, int apps,
                               std::uint64_t variant_seed);

/// One churn step over `env`: 1–4 distinct applications added, removed or
/// resized, keeping the app count within [18, 24] (multi_site(24,6,8) has
/// room for exactly 24 placeable apps). Added apps are named from
/// `*next_name`.
depstor::EnvDelta make_drift_delta(const depstor::Environment& env,
                                   depstor::Rng& rng, int* next_name);

}  // namespace perfbench
