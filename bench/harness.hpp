#pragma once

// What the plain benches share without the trained-model cache: the
// WAVEKEY_BENCH_SCALE knob, and the Gate that turns a bench's checks into
// its exit code. A bench's exit code is its CI gate (tools/ci.sh runs the
// binary and stops on a non-zero exit), so every check the gate makes is
// written once, here in the bench, and each miss is named on stderr.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wavekey::bench {

/// WAVEKEY_BENCH_SCALE if set to a positive number, else 1.0. It multiplies
/// instance counts (e.g. 0.25 for a quick smoke run, 4 for
/// publication-grade statistics).
inline double scale() {
  if (const char* env = std::getenv("WAVEKEY_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

/// A bench's exit predicate: check() every claim, return exit_code() from
/// main. Each failed check prints "<bench>: FAILED <message>" to stderr.
class Gate {
 public:
  explicit Gate(const char* bench) : bench_(bench) {}

  /// Records one check; `fmt` (printf-style) describes the claim.
  __attribute__((format(printf, 3, 4))) bool check(bool ok, const char* fmt, ...) {
    if (!ok) {
      failed_ = true;
      std::fprintf(stderr, "%s: FAILED ", bench_);
      va_list args;
      va_start(args, fmt);
      std::vfprintf(stderr, fmt, args);
      va_end(args);
      std::fputc('\n', stderr);
    }
    return ok;
  }

  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  const char* bench_;
  bool failed_ = false;
};

}  // namespace wavekey::bench
