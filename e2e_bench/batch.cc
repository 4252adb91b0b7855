// Batch workloads: table2 (the paper's Table II protocol) and churn (MAK
// under the moderate fault and drift presets). One thread runs
// harness::run_once back to back in a closed loop; the traced run then
// re-runs every run through the traced runner (traced_run.h).
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/catalog.h"
#include "common.h"
#include "harness/experiment.h"
#include "httpsim/fault.h"
#include "serve/session.h"
#include "support/metric_names.h"
#include "support/rng.h"
#include "traced_run.h"
#include "webapp/drift.h"

namespace e2e {

namespace {

namespace apps = mak::apps;
namespace harness = mak::harness;
namespace metric = mak::support::metric;
namespace support = mak::support;
using harness::CrawlerKind;

struct BatchShape {
  std::string_view name;
  std::uint64_t tag;  // separates this workload's seed streams
  std::vector<CrawlerKind> crawlers;
  int reps_per_second;  // repetitions of (apps x crawlers) per --seconds
  bool faults;          // moderate fault + drift presets
  support::VirtualMillis warmup_budget;
};

constexpr int kSetupPasses = 3;
// Every kVerifyEvery-th timed run is re-run through serve::CrawlSession, the
// other copy of the run loop, which must reproduce it exactly.
constexpr std::size_t kVerifyEvery = 10;
// The traced run replays the responses of every kReplayEvery-th run.
constexpr std::size_t kReplayEvery = 5;

harness::RunConfig protocol(const BatchShape& shape, std::uint64_t seed,
                            support::VirtualMillis budget) {
  harness::RunConfig config = protocol_config(budget, seed);
  if (shape.faults) {
    config.fault = mak::httpsim::fault_profile_moderate();
    config.drift = mak::webapp::drift_profile_moderate();
  }
  return config;
}

// Seed stream 0 feeds the timed runs, streams 1.. the warm-up passes.
std::uint64_t stream_seed(std::uint64_t seed, const BatchShape& shape,
                          std::uint64_t stream) {
  return support::mix64(support::mix64(seed ^ shape.tag) + stream);
}

// Repetition-major order, so host drift spreads evenly over apps.
std::vector<RunSpec> make_specs(const BatchShape& shape, std::uint64_t base,
                                std::size_t reps,
                                support::VirtualMillis budget) {
  const harness::RunConfig config = protocol(shape, base, budget);
  std::vector<RunSpec> specs;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    harness::RunConfig rep_config = config;
    rep_config.seed = harness::repetition_seed(config, rep);
    for (const apps::AppInfo& app : apps::app_catalog()) {
      for (const CrawlerKind kind : shape.crawlers) {
        std::string label = "r" + std::to_string(rep) + "/" + app.name;
        if (shape.crawlers.size() > 1) {
          label += "/" + std::string(harness::to_string(kind));
        }
        specs.push_back(RunSpec{&app, kind, rep_config, std::move(label)});
      }
    }
  }
  return specs;
}

void add_traced_metrics(const std::vector<RunSpec>& specs,
                        const CorrectedTimes& untraced,
                        HostReference& reference, const Options& options,
                        Report& report) {
  CorrectedTimes traced_runs(reference);
  const TracedRuns traced = trace_runs(specs, report.outcomes, kReplayEvery,
                                       report, &traced_runs);
  const Tracer& tracer = traced.tracer;
  add_page_metrics(traced, report);

  std::unordered_map<std::string, Tracer::Totals> totals;
  for (auto& entry : tracer.totals()) totals[entry.name] = entry;
  const auto delta = [&](std::string_view name) {
    return static_cast<double>(counter_delta(traced.before, traced.after, name));
  };
  std::vector<double> steps_us = tracer.durations_us("core.step");
  const std::vector<double> mak_steps_us = steps_us;
  const auto webexplor_us = tracer.durations_us("baselines.webexplor_step");
  const auto qexplore_us = tracer.durations_us("baselines.qexplore_step");
  steps_us.insert(steps_us.end(), webexplor_us.begin(), webexplor_us.end());
  steps_us.insert(steps_us.end(), qexplore_us.begin(), qexplore_us.end());
  const double hits = delta(metric::kBrowserParseCacheHits);
  const double misses = delta(metric::kBrowserParseCacheMisses);
  const double pushes = delta(metric::kFrontierPushes);
  const double duplicates = delta(metric::kFrontierDuplicates);
  const double steps = static_cast<double>(traced.steps);
  const Tracer::Totals& runs = totals["harness.run"];

  report.add_percentile("apps.construct_us_p50",
                        tracer.durations_us("apps.factory"), 50, "us");
  report.add_percentile("core.step_us_p50", steps_us, 50, "us");
  report.add_percentile("core.step_us_p90", steps_us, 90, "us");
  report.add_percentile("core.mak_step_us_p50", mak_steps_us, 50, "us");
  report.add("core.parse_hit_ratio", ratio(hits, hits + misses), "ratio");
  report.add("core.frontier_push_yield", ratio(pushes, pushes + duplicates),
             "ratio");
  report.add_percentile("baselines.webexplor_step_us_p50", webexplor_us, 50,
                        "us");
  report.add_percentile("baselines.qexplore_step_us_p50", qexplore_us, 50,
                        "us");
  report.add("httpsim.requests_per_step",
             ratio(delta(metric::kHttpsimRequests), steps), "1/step");
  report.add("httpsim.retries_per_step",
             ratio(delta(metric::kBrowserRetries), steps), "1/step");
  report.add("harness.run_self_share", ratio(runs.self_s, runs.total_s),
             "ratio");
  // The session server does no work in a batch workload.
  for (const char* name :
       {"serve.open_us_p50", "serve.save_us_p50", "serve.load_us_p50"}) {
    report.add(name, 0.0, "us");
  }
  report.add("serve.tick_self_share", 0.0, "ratio");
  report.add("serve.activation_yield", 0.0, "ratio");
  report.add("serve.evictions_per_tick", 0.0, "1/tick");
  report.add("serve.steps_per_tick", 0.0, "1/tick");
  report.add("serve.queue_depth_p50", 0.0, "count");
  report.add("serve.state_kb_p50", 0.0, "KB");
  report.add("trace.attributed_pct", 100.0 * ratio(runs.total_s, traced.phase_s),
             "%");
  report.add("trace.overhead_pct",
             100.0 * (ratio(traced_runs.corrected_s(), untraced.corrected_s()) -
                      1.0),
             "%");

  report.note("self time by span over the traced phase (" +
              std::to_string(traced.phase_s) + " s):");
  for (const auto& [name, entry] : totals) {
    report.note("  " + name + ": " + std::to_string(entry.count) +
                " spans, self " + std::to_string(entry.self_s) + " s");
  }
  if (!options.trace_out.empty() && !tracer.write_csv(options.trace_out)) {
    report.note("could not write " + options.trace_out);
  }
}

Report run_batch(const BatchShape& shape, const Options& options,
                 std::int64_t main_start_ns) {
  Report report;
  const auto reps = static_cast<std::size_t>(shape.reps_per_second) *
                    static_cast<std::size_t>(options.seconds);
  const support::VirtualMillis budget = 30 * support::kMillisPerMinute;

  // ---- set-up: inputs plus a warm-up pass, several times -----------------
  // Each pass is timed in stretches that end at a reference sample: the
  // first from main() entry (or the end of the last pass) to the end of the
  // first warm-up run, then one per warm-up run.
  HostReference reference;
  std::vector<CorrectedTimes> setup;
  std::vector<RunSpec> specs;
  std::int64_t stretch_start = main_start_ns;
  for (int pass = 1; pass <= kSetupPasses; ++pass) {
    CorrectedTimes& times = setup.emplace_back(reference);
    specs = make_specs(shape, stream_seed(options.seed, shape, 0), reps, budget);
    std::unordered_set<std::uint64_t> timed_seeds;
    for (const RunSpec& spec : specs) timed_seeds.insert(spec.config.seed);
    const auto warmup = make_specs(
        shape, stream_seed(options.seed, shape, static_cast<std::uint64_t>(pass)),
        1, shape.warmup_budget);
    for (const RunSpec& spec : warmup) {
      if (timed_seeds.count(spec.config.seed) != 0) {
        throw std::runtime_error("warm-up seed collides with a timed seed");
      }
      harness::run_once(*spec.app, spec.kind, spec.config);
      times.add(now_ns() - stretch_start);
      stretch_start = now_ns();
    }
  }
  report.add_setup(setup);
  report.note("workload " + std::string(shape.name) + ": " +
              std::to_string(specs.size()) + " runs (" + std::to_string(reps) +
              " repetitions), seed " + std::to_string(options.seed));

  // ---- timed phase: run_once back to back, a reference sample after each --
  CorrectedTimes runs(reference);
  std::size_t steps = 0;
  PhaseProbe probe;
  for (const RunSpec& spec : specs) {
    const std::int64_t t0 = now_ns();
    try {
      const harness::RunResult result =
          harness::run_once(*spec.app, spec.kind, spec.config);
      runs.add(now_ns() - t0);
      steps += result.steps;
      report.outcomes.push_back(outcome_of(spec.label, result));
    } catch (const std::exception& error) {
      runs.add(now_ns() - t0);
      report.note("run " + spec.label + " threw: " + error.what());
      Outcome failed;
      failed.label = spec.label;
      failed.ok = false;
      report.outcomes.push_back(std::move(failed));
    }
  }
  probe.stop();
  report.note_probe("timed phase", probe);
  report.add_timed(runs, steps);

  if (options.trace) {
    add_traced_metrics(specs, runs, reference, options, report);
    return report;
  }
  // Cross-engine check on a sample: CrawlSession must reproduce run_once.
  std::size_t checked = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < specs.size(); i += kVerifyEvery) {
    const RunSpec& spec = specs[i];
    mak::serve::CrawlSession session(*spec.app, spec.kind, spec.config);
    while (!session.finished()) session.step_batch(1 << 20);
    const harness::RunResult result = session.result();
    Outcome& outcome = report.outcomes[i];
    ++checked;
    if (result.steps == outcome.steps &&
        result.final_covered_lines == outcome.covered) {
      ++matched;
    } else {
      outcome.ok = false;
    }
  }
  report.note("CrawlSession reproduced " + std::to_string(matched) + " of " +
              std::to_string(checked) + " sampled runs");
  return report;
}

}  // namespace

Report run_table2(const Options& options, std::int64_t main_start_ns) {
  const BatchShape shape{"table2",
                         0x7ab1e2,
                         {CrawlerKind::kMak, CrawlerKind::kWebExplor,
                          CrawlerKind::kQExplore},
                         1,
                         false,
                         10 * support::kMillisPerMinute};
  return run_batch(shape, options, main_start_ns);
}

Report run_churn(const Options& options, std::int64_t main_start_ns) {
  const BatchShape shape{"churn", 0xc4a2, {CrawlerKind::kMak}, 2, true,
                         30 * support::kMillisPerMinute};
  return run_batch(shape, options, main_start_ns);
}

}  // namespace e2e
