// End-to-end benchmark binary (README.md in this directory).
//
//   e2e_bench --workload table2|churn|soak [--seed N] [--seconds S]
//             [--trace 0|1] [--golden-dir DIR] [--outcomes-out FILE]
//             [--trace-out FILE]
//
// Runs one workload on one thread, prints '#' diagnostics and, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits 1 when an output check fails, 2 on bad usage.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "support/log.h"

namespace {

using e2e::Options;
using e2e::Report;

// The metric sets BENCHMARK.json names, in print order.
const std::vector<std::string_view> kEndToEnd = {
    "setup_s",     "steps_per_s",  "op_ms_p50", "op_ms_p90",
    "peak_rss_mb", "coverage_pct", "ok_pct"};
const std::vector<std::string_view> kPerLayer = {
    "apps.construct_us_p50",
    "webapp.handle_us_p50",
    "webapp.handle_share",
    "html.parse_us_p50",
    "html.extract_us_p50",
    "core.build_page_us_p50",
    "core.build_page_share",
    "core.step_us_p50",
    "core.step_us_p90",
    "core.mak_step_us_p50",
    "core.parse_hit_ratio",
    "core.frontier_push_yield",
    "baselines.webexplor_step_us_p50",
    "baselines.qexplore_step_us_p50",
    "httpsim.requests_per_step",
    "httpsim.retries_per_step",
    "harness.run_self_share",
    "serve.open_us_p50",
    "serve.tick_self_share",
    "serve.activation_yield",
    "serve.evictions_per_tick",
    "serve.steps_per_tick",
    "serve.queue_depth_p50",
    "serve.save_us_p50",
    "serve.load_us_p50",
    "serve.state_kb_p50",
    "trace.attributed_pct",
    "trace.overhead_pct",
};

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload table2|churn|soak "
               "[--seed N] [--seconds S] [--trace 0|1] [--golden-dir DIR] "
               "[--outcomes-out FILE] [--trace-out FILE]\n",
               problem.c_str());
  return 2;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Shortest text that reads back as exactly `value`.
std::string number(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, ptr) : "0";
}

std::string golden_header(const Options& options) {
  return "# e2e_bench golden: workload=" + options.workload +
         " seed=" + std::to_string(options.seed) +
         " seconds=" + std::to_string(options.seconds);
}

bool write_outcomes(const Options& options, const Report& report) {
  std::ofstream out(options.outcomes_out, std::ios::trunc);
  out << golden_header(options) << "\n# label\tsteps\tcovered_lines\n";
  for (const e2e::Outcome& outcome : report.outcomes) {
    out << outcome.label << '\t' << outcome.steps << '\t' << outcome.covered
        << '\n';
  }
  return static_cast<bool>(out);
}

// Compares every outcome with the golden table when one exists for this
// workload, seed and size; a mismatch marks the outcome failed.
void check_golden(const Options& options, Report& report) {
  if (options.golden_dir.empty()) return;
  const std::string path = options.golden_dir + "/" + options.workload + ".tsv";
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) {
    report.note("golden: no table at " + path);
    return;
  }
  if (line != golden_header(options)) {
    report.note("golden: " + path + " is for another seed or size; skipped");
    return;
  }
  std::map<std::string, std::pair<std::size_t, std::size_t>> golden;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label;
    std::size_t steps = 0;
    std::size_t covered = 0;
    if (std::getline(fields, label, '\t') && fields >> steps >> covered) {
      golden[label] = {steps, covered};
    }
  }
  std::size_t mismatches = 0;
  for (e2e::Outcome& outcome : report.outcomes) {
    const auto it = golden.find(outcome.label);
    if (it == golden.end() || it->second.first != outcome.steps ||
        it->second.second != outcome.covered) {
      outcome.ok = false;
      if (++mismatches <= 5) {
        report.note("golden mismatch: " + outcome.label + " " +
                    std::to_string(outcome.steps) + "/" +
                    std::to_string(outcome.covered));
      }
    }
  }
  if (golden.size() != report.outcomes.size()) {
    ++mismatches;
    report.note("golden: table has " + std::to_string(golden.size()) +
                " rows, workload made " +
                std::to_string(report.outcomes.size()));
  }
  report.note("golden: " + std::to_string(mismatches) + " mismatches against " +
              path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_start_ns = e2e::now_ns();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    int trace = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, options.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_number(value, options.seconds) || options.seconds < 1 ||
          options.seconds > 60) {
        return usage("--seconds must be 1..60");
      }
    } else if (flag == "--trace") {
      if (!parse_number(value, trace) || trace < 0 || trace > 1) {
        return usage("--trace must be 0 or 1");
      }
      options.trace = trace == 1;
    } else if (flag == "--golden-dir") {
      options.golden_dir = value;
    } else if (flag == "--outcomes-out") {
      options.outcomes_out = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
  }
  // A stray environment variable must not change a workload: metrics stay
  // on (the traced run reads the registry), logging stays at warnings.
  if (std::getenv("MAK_METRICS") != nullptr) {
    return usage("refusing to run with MAK_METRICS set");
  }
  mak::support::set_log_level(mak::support::LogLevel::kWarn);

  Report report;
  try {
    if (options.workload == "table2") {
      report = e2e::run_table2(options, main_start_ns);
    } else if (options.workload == "churn") {
      report = e2e::run_churn(options, main_start_ns);
    } else if (options.workload == "soak") {
      report = e2e::run_soak(options, main_start_ns);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.what());
    return 1;
  }
  if (!options.outcomes_out.empty()) {
    if (!write_outcomes(options, report)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   options.outcomes_out.c_str());
      return 1;
    }
    report.note("outcomes written to " + options.outcomes_out);
  } else {
    check_golden(options, report);
  }
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  report.add("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
             "MB");
  report.add_outcome_metrics();

  for (const std::string& line : report.notes) {
    std::printf("# %s\n", line.c_str());
  }
  // Exactly the metric set of this mode, each present once.
  const auto& wanted = options.trace ? kPerLayer : kEndToEnd;
  std::map<std::string_view, const Report::Metric*> by_name;
  for (const Report::Metric& metric : report.metrics) by_name[metric.name] = &metric;
  std::string metrics;
  for (const std::string_view name : wanted) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      std::fprintf(stderr, "e2e_bench: metric %s was not measured\n",
                   std::string(name).c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(name) + "\": {\"value\": " +
               number(it->second->value) + ", \"unit\": \"" +
               it->second->unit + "\"}";
  }
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
