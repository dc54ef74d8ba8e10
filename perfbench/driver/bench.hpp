#pragma once

// Shared pieces of the benchmark driver: options, the result report (metrics,
// attempt/failure ledger, oracle verdicts), the in-memory span tracer and
// the stage interface.
//
// Spans are recorded by the driver itself around its calls into the
// library's public functions; nothing inside src/ is instrumented. A span is
// (name, session, parent, start, end). A layer's self time is its span's
// duration minus the time its child spans cover.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double ns_to_us(double ns) { return ns / 1e3; }
inline double ns_to_ms(double ns) { return ns / 1e6; }

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Windowed statistics. The host this benchmark runs on is a shared VM whose
/// neighbours slow the whole guest by up to 1.8x in bursts of 0.1-3 s. A
/// statistic is therefore computed per window of `window` consecutive
/// samples, and the run reports the `across`-quantile over windows: a burst
/// spoils some windows instead of shifting the whole run, while a change in
/// the code moves every window. With fewer than two windows it is the plain
/// statistic over all samples.
double windowed_quantile(const std::vector<double>& values, std::size_t window, double q,
                         double across);

/// Operations per second from per-operation durations, by the same rule:
/// the `across`-quantile over windows of window / (sum of its durations).
double windowed_rate(const std::vector<double>& durations_s, std::size_t window, double across);

/// splitmix64 — derives independent per-item seeds from the run seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Options {
  std::string workload;      ///< pairing | access | churn
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< measured budget of the workload's own stage
  bool trace = false;
  double access_rate = 0.0;  ///< fixed offered rate of the access stage (1/s)
  std::string trace_out;     ///< span dump path (trace mode), empty = none
};

/// Metrics plus the outcome ledger of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts `n` operations, `failed` of which had an outcome other than
  /// the expected one.
  void attempts(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// Records an oracle verdict; a false one makes the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const { return violations_.empty(); }
  /// Human-readable table (stdout) followed by the one-line JSON result.
  void print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Single-threaded span recorder. Spans nest by call order: a new span's
/// parent is the innermost open one. Recording stops (and counts drops)
/// once `capacity` spans are held, so a long traced run cannot exhaust
/// memory.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t session;
    std::uint32_t parent;  ///< index + 1 of the parent span, 0 for a root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  Tracer(bool enabled, std::size_t capacity) : enabled_(enabled), capacity_(capacity) {}

  /// RAII span; a no-op when tracing is off, `name` is null or the buffer
  /// is full.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t session);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;  ///< index + 1, 0 when not recorded
  };

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Per-session sum of self time (ns) of spans named `name`, over the
  /// sessions in which that name occurs, in session order.
  std::vector<double> per_session_self_ns(const std::string& name) const;

  /// Self-time samples (ns), one per span named `name`.
  std::vector<double> span_self_ns(const std::string& name) const;

  /// Duration samples (ns), one per span named `name`.
  std::vector<double> span_durations_ns(const std::string& name) const;

  /// Writes "name,session,parent,start_ns,end_ns" lines.
  bool write_csv(const std::string& path) const;

 private:
  /// Self time (ns) of every span, parallel to spans_.
  const std::vector<double>& self_times_ns() const;

  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t dropped_ = 0;
  mutable std::vector<double> self_cache_;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// One stage of a run. Its constructor builds the fixture setup_s.size()
/// times, adding the r-th build's seconds to setup_s[r]. The run then
/// measures it slice by slice, interleaved with the other stages, so each
/// stage samples the host over the whole run; finish() checks the oracles
/// and adds the metrics of the run's mode.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual void run_slice(double seconds) = 0;
  virtual void finish(Report& report) = 0;
};

std::unique_ptr<Stage> make_pairing(const Options& opt, Tracer& tracer,
                                    std::vector<double>& setup_s);
std::unique_ptr<Stage> make_access(const Options& opt, Tracer& tracer,
                                   std::vector<double>& setup_s);
std::unique_ptr<Stage> make_churn(const Options& opt, Tracer& tracer,
                                  std::vector<double>& setup_s);

}  // namespace perfbench
