// wavekey_perf — the repository benchmark driver.
//
//   wavekey_perf --workload pairing|access|churn --seed N --seconds S
//                --trace 0|1 --access-rate R [--trace-out PATH]
//
// Every run executes the three stages (pairing, access, churn) so that every
// end-to-end metric exists in every run: the named workload's stage gets the
// measured budget `--seconds`, the other two their kSideSeconds budget. The
// stages take turns in kSlices slices, so each samples the host over the
// whole run. All inputs are generated from `--seed`; `--access-rate` is the
// access stage's fixed offered rate. The last stdout line is the JSON
// result; the exit code is 0 only if every oracle held.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double windowed_quantile(const std::vector<double>& values, std::size_t window, double q,
                         double across) {
  if (window == 0 || values.size() < 2 * window) return quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w + window <= values.size(); w += window)
    per_window.push_back(quantile({values.begin() + static_cast<std::ptrdiff_t>(w),
                                   values.begin() + static_cast<std::ptrdiff_t>(w + window)},
                                  q));
  return quantile(per_window, across);
}

double windowed_rate(const std::vector<double>& durations_s, std::size_t window, double across) {
  if (window == 0 || durations_s.size() < 2 * window) window = durations_s.size();
  std::vector<double> rates;
  for (std::size_t w = 0; window > 0 && w + window <= durations_s.size(); w += window) {
    double busy = 0.0;
    for (std::size_t i = w; i < w + window; ++i) busy += durations_s[i];
    rates.push_back(static_cast<double>(window) / busy);
  }
  return quantile(rates, across);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    violations_.push_back(what);
    std::fprintf(stderr, "ORACLE FAILED: %s\n", what.c_str());
  }
}

void Report::print(bool trace) const {
  std::printf("%-40s %16s  %s\n", trace ? "per-layer metric" : "end-to-end metric", "value",
              "unit");
  for (const auto& m : metrics_) std::printf("%-40s %16.6g  %s\n", m.name.c_str(), m.value,
                                             m.unit.c_str());
  std::printf("attempted %llu, failed %llu, oracles %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), correct() ? "ok" : "FAILED");
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    json << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t session)
    : tracer_(tracer) {
  if (!tracer_.enabled_ || name == nullptr) return;
  if (tracer_.spans_.size() >= tracer_.capacity_) {
    ++tracer_.dropped_;
    return;
  }
  const std::uint32_t parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
  tracer_.spans_.push_back({name, session, parent, now_ns(), 0});
  index_ = static_cast<std::uint32_t>(tracer_.spans_.size());
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ == 0) return;
  tracer_.spans_[index_ - 1].end_ns = now_ns();
  tracer_.open_.pop_back();
}

const std::vector<double>& Tracer::self_times_ns() const {
  if (self_cache_.size() == spans_.size()) return self_cache_;
  self_cache_.assign(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self_cache_[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_)
    if (s.parent != 0) self_cache_[s.parent - 1] -= static_cast<double>(s.end_ns - s.start_ns);
  return self_cache_;
}

std::vector<double> Tracer::per_session_self_ns(const std::string& name) const {
  const std::vector<double>& self = self_times_ns();
  std::vector<double> out;
  bool open = false;
  std::uint64_t session = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    if (!open || spans_[i].session != session) {
      out.push_back(0.0);
      open = true;
      session = spans_[i].session;
    }
    out.back() += self[i];
  }
  return out;
}

std::vector<double> Tracer::span_self_ns(const std::string& name) const {
  const std::vector<double>& self = self_times_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(self[i]);
  return out;
}

std::vector<double> Tracer::span_durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,session,parent,start_ns,end_ns\n";
  for (const Span& s : spans_)
    out << s.name << ',' << s.session << ',' << s.parent << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

constexpr const char* kStageNames[] = {"pairing", "access", "churn"};
/// Budget (s) of each stage, in kStageNames order, when it is not the
/// workload's own. Churn's is the largest: its closed loop is cheap, and a
/// longer budget averages its rate over more of the host's speed changes.
constexpr double kSideSeconds[] = {4.0, 4.0, 8.0};
/// The stages take turns in this many slices of their budgets.
constexpr int kSlices = 10;
/// Fixture builds per stage; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value != "0";
    else if (key == "--access-rate") opt.access_rate = std::stod(value);
    else if (key == "--trace-out") opt.trace_out = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (opt.workload != "pairing" && opt.workload != "access" && opt.workload != "churn")
    throw std::invalid_argument("--workload must be pairing, access or churn");
  if (!(opt.seconds > 0.0) || !(opt.access_rate > 0.0))
    throw std::invalid_argument("--seconds and --access-rate must be positive");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavekey_perf: %s\n", e.what());
    return 2;
  }

  Report report;
  Tracer tracer(opt.trace, 4u << 20);
  std::vector<double> setup_s(kSetupRepeats, 0.0);
  try {
    const std::unique_ptr<Stage> stages[] = {make_pairing(opt, tracer, setup_s),
                                             make_access(opt, tracer, setup_s),
                                             make_churn(opt, tracer, setup_s)};
    for (int slice = 0; slice < kSlices; ++slice)
      for (int s = 0; s < 3; ++s)
        stages[s]->run_slice(
            (opt.workload == kStageNames[s] ? opt.seconds : kSideSeconds[s]) / kSlices);
    for (const auto& stage : stages) stage->finish(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wavekey_perf: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    report.metric("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    if (tracer.dropped() > 0)
      std::printf("trace buffer full: %llu spans dropped\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    if (!opt.trace_out.empty())
      report.check(tracer.write_csv(opt.trace_out), "span dump written to " + opt.trace_out);
  } else {
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  }
  report.print(opt.trace);
  return report.correct() ? 0 : 1;
}
