#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory_resource>
#include <unordered_map>

namespace e2e {

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Host-wide steal ticks: the 8th value of /proc/stat's aggregate cpu line.
long long host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long field[8] = {};
  if (!(in >> label) || label != "cpu") return -1;
  for (long long& value : field) {
    if (!(in >> value)) return -1;
  }
  return field[7];
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

// One reference sample: kReferenceOps updates of kReferenceKeys distinct
// keys, each key formatted and copied into the arena, the map's nodes and
// buckets in the arena too (about 130 KB of it).
constexpr unsigned kReferenceKeys = 1000;
constexpr unsigned kReferenceOps = 2000;
constexpr std::size_t kReferenceArenaBytes = std::size_t{1} << 20;
constexpr int kReferenceRepeats = 3;

std::uint64_t reference_work(std::vector<std::byte>& arena) {
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::pmr::string, std::uint64_t> map(&pool);
  char key[64];
  for (unsigned i = 0; i < kReferenceOps; ++i) {
    const unsigned k = i * 7919u % kReferenceKeys;
    const int n = std::snprintf(key, sizeof key,
                                "/app/section-%u/page/%u/item", k % 37, k);
    map[std::pmr::string(key, static_cast<std::size_t>(n), &pool)] += i;
  }
  return map.size();
}

}  // namespace

Outcome outcome_of(std::string label, const mak::harness::RunResult& result) {
  Outcome outcome;
  outcome.label = std::move(label);
  outcome.steps = result.steps;
  outcome.covered = result.final_covered_lines;
  outcome.total = result.total_lines;
  outcome.ok = !result.aborted && !result.failed && result.steps > 0 &&
               result.final_covered_lines > 0 &&
               result.final_covered_lines <= result.total_lines;
  return outcome;
}

Percentile percentile(std::vector<double> xs, double p) {
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  out.value = xs[rank - 1];
  out.beyond = xs.size() - rank;
  return out;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50).value; }

PhaseProbe::PhaseProbe()
    : wall_start_(now_ns()),
      cpu_start_(process_cpu_s()),
      steal_start_(host_steal_ticks()) {}

void PhaseProbe::stop() {
  wall_s_ = static_cast<double>(now_ns() - wall_start_) * 1e-9;
  cpu_s_ = process_cpu_s() - cpu_start_;
  const long long steal_end = host_steal_ticks();
  steal_ = steal_start_ >= 0 && steal_end >= 0 ? steal_end - steal_start_ : -1;
}

HostReference::HostReference() : arena_(kReferenceArenaBytes) { sample_us(); }

double HostReference::sample_us() {
  std::vector<double> us;
  for (int i = 0; i < kReferenceRepeats; ++i) {
    const std::int64_t start = now_ns();
    sink_ += reference_work(arena_);
    us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  last_us_ = median(std::move(us));
  return last_us_;
}

void CorrectedTimes::add(std::int64_t wall_ns) {
  const double before = reference_->last_us();
  const double after = reference_->sample_us();
  raw_ms_.push_back(static_cast<double>(wall_ns) * 1e-6);
  reference_us_.push_back((before + after) / 2.0);
}

std::vector<double> CorrectedTimes::corrected_ms() const {
  std::vector<double> out;
  out.reserve(raw_ms_.size());
  for (std::size_t i = 0; i < raw_ms_.size(); ++i) {
    out.push_back(raw_ms_[i] * HostReference::kNominalUs / reference_us_[i]);
  }
  return out;
}

double CorrectedTimes::raw_s() const {
  double total = 0.0;
  for (const double ms : raw_ms_) total += ms * 1e-3;
  return total;
}

double CorrectedTimes::corrected_s() const {
  double total = 0.0;
  for (const double ms : corrected_ms()) total += ms * 1e-3;
  return total;
}

std::vector<double> CorrectedTimes::slowdowns() const {
  std::vector<double> out;
  out.reserve(reference_us_.size());
  for (const double us : reference_us_) {
    out.push_back(us / HostReference::kNominalUs);
  }
  return out;
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::add_percentile(std::string name, const std::vector<double>& samples,
                            double p, std::string unit) {
  const Percentile pct = percentile(samples, p);
  note("percentile " + name + ": p" + fixed(p, 0) + " of " +
       std::to_string(pct.samples) + " samples, " +
       std::to_string(pct.beyond) + " beyond");
  add(std::move(name), pct.value, std::move(unit));
}

void Report::add_setup(const std::vector<CorrectedTimes>& passes) {
  std::string raw = "setup passes, raw wall (s):";
  std::string corrected = "setup passes, corrected (s):";
  std::vector<double> corrected_s;
  for (const CorrectedTimes& pass : passes) {
    raw += " " + fixed(pass.raw_s(), 4);
    corrected_s.push_back(pass.corrected_s());
    corrected += " " + fixed(corrected_s.back(), 4);
  }
  note(raw);
  note(corrected);
  add("setup_s", median(corrected_s), "s");
}

void Report::add_timed(const CorrectedTimes& ops, std::size_t steps) {
  const auto n = static_cast<double>(steps);
  const std::vector<double>& raw = ops.raw_ms();
  note("timed phase, raw wall: " + fixed(n / ops.raw_s(), 1) + " steps/s, op p50 " +
       fixed(percentile(raw, 50).value, 3) + " ms, op p90 " +
       fixed(percentile(raw, 90).value, 3) + " ms");
  const std::vector<double> slowdowns = ops.slowdowns();
  note("host slowdown (reference ÷ nominal) over " +
       std::to_string(slowdowns.size()) + " samples: p10 " +
       fixed(percentile(slowdowns, 10).value, 3) + ", p50 " +
       fixed(percentile(slowdowns, 50).value, 3) + ", p90 " +
       fixed(percentile(slowdowns, 90).value, 3));
  add("steps_per_s", n / ops.corrected_s(), "steps/s");
  const std::vector<double> corrected = ops.corrected_ms();
  add_percentile("op_ms_p50", corrected, 50, "ms");
  add_percentile("op_ms_p90", corrected, 90, "ms");
}

void Report::note_probe(std::string_view phase, const PhaseProbe& probe) {
  const double ratio = probe.wall_s() > 0 ? probe.cpu_s() / probe.wall_s() : 0;
  note(std::string(phase) + ": wall " + fixed(probe.wall_s(), 3) +
       " s, cpu/wall " + fixed(ratio, 3) + ", host steal ticks " +
       (probe.steal_ticks() >= 0 ? std::to_string(probe.steal_ticks())
                                 : std::string("unknown")));
}

void Report::add_outcome_metrics() {
  attempted = outcomes.size();
  failed = 0;
  double coverage = 0.0;
  for (const Outcome& outcome : outcomes) {
    if (!outcome.ok) ++failed;
    if (outcome.total > 0) {
      coverage += static_cast<double>(outcome.covered) /
                  static_cast<double>(outcome.total);
    }
  }
  const double n = attempted > 0 ? static_cast<double>(attempted) : 1.0;
  add("coverage_pct", 100.0 * coverage / n, "%");
  add("ok_pct", 100.0 * static_cast<double>(attempted - failed) / n, "%");
  note("fail_pct " + fixed(100.0 * static_cast<double>(failed) / n, 3) +
       " (" + std::to_string(failed) + " of " + std::to_string(attempted) +
       ")");
}

std::uint32_t Tracer::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint32_t run) {
  const auto parent = stack_.empty() ? kNone : stack_.back();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{name, parent, run, now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  // Spans close innermost first; tolerate a mismatch by unwinding to `id`.
  while (!stack_.empty()) {
    const auto top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::add(std::uint32_t name, std::uint32_t run, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint32_t parent) {
  spans_.push_back(Span{name, parent, run, start_ns, end_ns});
}

std::vector<Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_s[span.parent] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  std::vector<Totals> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double total = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    Totals& entry = out[spans_[i].name];
    ++entry.count;
    entry.total_s += total;
    entry.self_s += total - child_s[i];
  }
  return out;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const Span& span : spans_) {
    if (span.name == id) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "id,parent,run,name,start_us,end_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',';
    if (span.parent != kNone) out << span.parent;
    out << ',' << span.run << ',' << names_[span.name] << ','
        << fixed(static_cast<double>(span.start_ns - origin) * 1e-3, 3) << ','
        << fixed(static_cast<double>(span.end_ns - origin) * 1e-3, 3) << '\n';
  }
  return static_cast<bool>(out);
}

std::uint64_t counter_delta(const mak::support::MetricsSnapshot& before,
                            const mak::support::MetricsSnapshot& after,
                            std::string_view name) {
  const std::string key(name);
  const auto a = after.counters.find(key);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(key);
  return a->second - (b != before.counters.end() ? b->second : 0);
}

}  // namespace e2e
