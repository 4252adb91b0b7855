// Shared pieces of the end-to-end benchmark binary: options, wall/CPU/steal
// probes, the host-speed reference and corrected times, percentiles with
// their sample accounting, the in-memory span tracer, and the report a
// workload hands back to main().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "support/metrics.h"

namespace e2e {

// Fixed defaults; BENCHMARK.json records them in each workload's "why".
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr int kDefaultSeconds = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  // Sizes every workload: the timed phase holds work for about this many
  // seconds on a 4-vCPU x86-64 host (README.md, "Sizes and seeds").
  int seconds = kDefaultSeconds;
  bool trace = false;
  std::string golden_dir;    // golden tables; empty = no golden check
  std::string outcomes_out;  // write per-run outcomes here; no golden check
  std::string trace_out;     // traced spans (CSV); empty = not written
};

// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed operation (a run or a session) and whether it passed every
// output check.
struct Outcome {
  std::string label;
  std::size_t steps = 0;
  std::size_t covered = 0;
  std::size_t total = 0;
  bool ok = true;
};

// Outcome of a finished run, with the invariants every run must hold.
Outcome outcome_of(std::string label, const mak::harness::RunResult& result);

// Nearest-rank percentile: the value at rank ceil(p/100 * n), plus how many
// samples lie beyond that rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

// Wall time, process CPU time and host steal ticks (/proc/stat) consumed
// between construction and stop().
class PhaseProbe {
 public:
  PhaseProbe();
  void stop();
  double wall_s() const noexcept { return wall_s_; }
  double cpu_s() const noexcept { return cpu_s_; }
  long long steal_ticks() const noexcept { return steal_; }  // -1 = unknown

 private:
  std::int64_t wall_start_ = 0;
  double cpu_start_ = 0.0;
  long long steal_start_ = -1;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  long long steal_ = -1;
};

// Host-speed reference (README.md, "Host-speed correction"). On a shared VM
// the same work runs up to half again slower while other guests load the
// caches its vCPUs share, and that drift lasts minutes, so raw wall times of
// one program differ more from run to run than a regression would. The
// reference is a fixed piece of the benchmark's own work: URL-like string
// keys hashed into a node-based map, allocated from an arena of its own so
// nothing the program does to its heap changes it. It runs right after every
// timed segment, and it slows down with the host as the crawler does.
class HostReference {
 public:
  // Time of one sample with the host at nominal speed, a fixed scale: about
  // the fastest the reference runs on a 4-vCPU x86-64 KVM guest (Xeon,
  // GCC 12, RelWithDebInfo), whose samples range from 0.9 to 1.9 times this.
  static constexpr double kNominalUs = 330.0;

  // Allocates the arena and takes a first sample.
  HostReference();
  // Runs the reference three times; returns the median wall time (µs),
  // which last_us() then holds.
  double sample_us();
  double last_us() const noexcept { return last_us_; }

 private:
  std::vector<std::byte> arena_;
  double last_us_ = 0.0;
  std::uint64_t sink_ = 0;
};

// The timed segments of one phase (operations, or stretches of set-up), each
// followed by a reference sample. A segment's corrected time is its wall time
// × kNominalUs ÷ the mean of the samples taken right before and right after
// it: what it would have taken with the host at nominal speed. Sampling time
// is in no segment.
class CorrectedTimes {
 public:
  explicit CorrectedTimes(HostReference& reference) : reference_(&reference) {}
  // Records a segment that took `wall_ns` and ended just now, after the
  // reference's last sample; then samples the reference.
  void add(std::int64_t wall_ns);

  const std::vector<double>& raw_ms() const noexcept { return raw_ms_; }
  std::vector<double> corrected_ms() const;
  double raw_s() const;
  double corrected_s() const;
  // Per segment, reference time ÷ kNominalUs: how much slower than nominal
  // the host ran.
  std::vector<double> slowdowns() const;

 private:
  HostReference* reference_;
  std::vector<double> raw_ms_;
  std::vector<double> reference_us_;
};

// Everything one invocation reports: metrics for the final JSON line,
// '#' diagnostic notes, and the outcomes the golden table checks.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<Outcome> outcomes;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(std::string name, double value, std::string unit);
  void note(std::string line) { notes.push_back(std::move(line)); }
  // Adds the percentile as a metric and notes its sample accounting.
  void add_percentile(std::string name, const std::vector<double>& samples,
                      double p, std::string unit);
  // Adds setup_s, the median corrected pass, and notes every pass raw and
  // corrected.
  void add_setup(const std::vector<CorrectedTimes>& passes);
  // Adds steps_per_s, op_ms_p50 and op_ms_p90 from the corrected times of
  // the timed operations, and notes the raw figures and the host slowdown.
  void add_timed(const CorrectedTimes& ops, std::size_t steps);
  // Notes a phase's CPU/wall ratio and the steal ticks it consumed.
  void note_probe(std::string_view phase, const PhaseProbe& probe);
  // coverage_pct and ok_pct over the outcomes; attempted/failed from them.
  void add_outcome_metrics();
};

// In-memory span recorder. A span has a name (whose prefix before the first
// '.' is its layer), a start, an end, a parent span and a run or session
// id. Spans nest: open() makes the innermost open span the parent.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t open(std::string_view name, std::uint32_t run) {
    return open(name_id(name), run);
  }
  // Hot paths pass a name id from name_id() instead of the name.
  std::uint32_t open(std::uint32_t name, std::uint32_t run);
  void close(std::uint32_t id);
  // A span measured elsewhere (e.g. between two step-hook marks).
  void add(std::uint32_t name, std::uint32_t run, std::int64_t start_ns,
           std::int64_t end_ns, std::uint32_t parent);

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::uint32_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::string& name_of(const Span& span) const {
    return names_[span.name];
  }
  std::uint32_t name_id(std::string_view name);

  // Per span name: count, total time and self time (span minus the time
  // its direct children cover), in seconds.
  struct Totals {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Totals> totals() const;
  // Durations (µs) of every span named `name`.
  std::vector<double> durations_us(std::string_view name) const;

  // Writes every span as CSV (id,parent,run,name,start_us,end_us).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// Registry counter delta between two snapshots (0 when absent).
std::uint64_t counter_delta(const mak::support::MetricsSnapshot& before,
                            const mak::support::MetricsSnapshot& after,
                            std::string_view name);

// Workload entry points (batch.cc, soak.cc). `main_start_ns` is main()'s
// entry, where the first set-up pass starts.
Report run_table2(const Options& options, std::int64_t main_start_ns);
Report run_churn(const Options& options, std::int64_t main_start_ns);
Report run_soak(const Options& options, std::int64_t main_start_ns);

}  // namespace e2e
