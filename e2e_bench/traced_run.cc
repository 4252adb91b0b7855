#include "traced_run.h"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/browser.h"
#include "html/interactables.h"
#include "html/parser.h"
#include "httpsim/fault.h"
#include "httpsim/network.h"
#include "support/metric_names.h"
#include "support/rng.h"
#include "webapp/drift.h"

namespace e2e {

namespace {

namespace core = mak::core;
namespace harness = mak::harness;
namespace httpsim = mak::httpsim;
namespace metric = mak::support::metric;
namespace support = mak::support;

// Distinct (URL, status, body) responses one run received: the keys of the
// browser's parse cache, less the error pages the fault injector makes up.
struct ResponseLog {
  mak::url::Url origin;
  std::unordered_set<std::string> seen;
  struct Entry {
    mak::url::Url url;
    int status = 0;
    std::string body;
  };
  std::vector<Entry> distinct;

  void add(const httpsim::Request& request, const httpsim::Response& response) {
    if (response.is_redirect()) return;  // hops are never parsed
    std::string key = request.url.to_string();
    key += '\n';
    key += std::to_string(response.status);
    key += '\n';
    key += response.body;
    if (seen.insert(std::move(key)).second) {
      distinct.push_back(Entry{request.url, response.status, response.body});
    }
  }
};

// Sits in front of the app on the network: times every request the app
// handles and, when asked, keeps the distinct responses.
class ProxyHost final : public httpsim::VirtualHost {
 public:
  ProxyHost(httpsim::VirtualHost& app, Tracer& tracer, std::uint32_t run,
            ResponseLog* log)
      : app_(&app),
        tracer_(&tracer),
        name_(tracer.name_id("webapp.handle")),
        run_(run),
        log_(log) {}

  httpsim::Response handle(const httpsim::Request& request) override {
    const std::uint32_t span = tracer_->open(name_, run_);
    httpsim::Response response = app_->handle(request);
    tracer_->close(span);
    if (log_ != nullptr) log_->add(request, response);
    return response;
  }

 private:
  httpsim::VirtualHost* app_;
  Tracer* tracer_;
  std::uint32_t name_;
  std::uint32_t run_;
  ResponseLog* log_;
};

constexpr std::string_view kStepSpans[] = {
    "core.step", "baselines.webexplor_step", "baselines.qexplore_step"};

std::string_view step_span_name(harness::CrawlerKind kind) {
  switch (kind) {
    case harness::CrawlerKind::kWebExplor:
      return kStepSpans[1];
    case harness::CrawlerKind::kQExplore:
      return kStepSpans[2];
    default:
      return kStepSpans[0];
  }
}

// The body of one traced run; its locals are torn down inside the caller's
// harness.run span, as run_once's are inside run_once.
Outcome traced_run_body(const RunSpec& spec, Tracer& tracer, std::uint32_t run,
                        ResponseLog* log) {
  const harness::RunConfig& config = spec.config;
  const std::uint32_t factory_span = tracer.open("apps.factory", run);
  auto app = spec.app->factory();
  tracer.close(factory_span);

  support::SimClock clock;
  support::Deadline deadline(clock, config.budget);
  httpsim::Network network(clock);
  ProxyHost proxy(*app, tracer, run, log);
  network.register_host(app->host(), proxy);
  if (log != nullptr) log->origin = app->seed_url();

  support::Rng master(config.seed);
  core::Browser browser(network, app->seed_url(), master.fork(),
                        config.fill_strategy);
  auto crawler = harness::make_crawler(spec.kind, master.fork());
  std::optional<httpsim::FaultInjector> injector;
  if (config.fault.enabled()) {
    injector.emplace(config.fault, master.fork().next(), clock);
    network.set_fault_injector(&*injector);
  }
  if (config.fault.retry.active()) {
    browser.set_retry_policy(config.fault.retry);
  }
  std::optional<mak::webapp::DriftEngine> drift;
  if (config.drift.enabled()) {
    drift.emplace(config.drift, master.fork().next(), clock);
    app->set_drift_engine(&*drift);
  }

  const std::uint32_t start_span = tracer.open("core.start", run);
  crawler->start(browser);
  tracer.close(start_span);

  // run_once samples coverage before every step; keep that work in the loop.
  mak::coverage::CoverageSeries series;
  support::VirtualMillis next_sample = 0;
  const std::uint32_t step_name = tracer.name_id(step_span_name(spec.kind));
  std::size_t steps = 0;
  while (!deadline.expired()) {
    while (clock.now() >= next_sample) {
      series.record(next_sample, app->tracker().covered_lines());
      next_sample += config.sample_interval;
    }
    clock.advance(config.think_time);
    const std::uint32_t step_span = tracer.open(step_name, run);
    crawler->step(browser);
    tracer.close(step_span);
    ++steps;
  }
  Outcome outcome;
  outcome.label = spec.label;
  outcome.steps = steps;
  outcome.covered = app->tracker().covered_lines();
  outcome.total = app->code_model().total_lines();
  return outcome;
}

Outcome traced_run(const RunSpec& spec, Tracer& tracer, std::uint32_t run,
                   ResponseLog* log) {
  const std::uint32_t run_span = tracer.open("harness.run", run);
  try {
    Outcome outcome = traced_run_body(spec, tracer, run, log);
    tracer.close(run_span);
    return outcome;
  } catch (...) {
    tracer.close(run_span);  // unwinds the spans the failure left open
    throw;
  }
}

// Rebuilds each distinct response the way a parse-cache miss does, timing
// the parser, the extractor and the whole page build separately.
void replay(const ResponseLog& log, Tracer& tracer, std::uint32_t run) {
  for (const ResponseLog::Entry& entry : log.distinct) {
    std::uint32_t span = tracer.open("html.parse", run);
    const mak::html::Document doc = mak::html::parse(entry.body);
    tracer.close(span);
    span = tracer.open("html.extract", run);
    const auto interactables = mak::html::extract_interactables(doc);
    tracer.close(span);
    span = tracer.open("core.build_page", run);
    const core::Page page =
        core::build_page(entry.url, entry.status, entry.body, log.origin);
    tracer.close(span);
    if (page.actions.size() > interactables.size()) {
      throw std::logic_error("replay: page has more actions than elements");
    }
  }
}

double sum_of(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

}  // namespace

mak::harness::RunConfig protocol_config(support::VirtualMillis budget,
                                        std::uint64_t seed) {
  harness::RunConfig config;
  config.budget = budget;
  config.sample_interval = 30 * support::kMillisPerSecond;
  config.think_time = 700;
  config.seed = seed;
  config.fill_strategy = core::FormFillStrategy::kCounter;
  return config;
}

TracedRuns trace_runs(const std::vector<RunSpec>& specs,
                      std::vector<Outcome>& reference,
                      std::size_t replay_every, Report& report,
                      CorrectedTimes* host_times) {
  auto& registry = support::MetricsRegistry::global();
  const support::Counter& misses =
      registry.counter(metric::kBrowserParseCacheMisses);
  TracedRuns traced;
  std::int64_t phase_ns = 0;
  std::size_t mismatches = 0;
  std::size_t distinct = 0;
  std::uint64_t replayed_misses = 0;
  traced.before = registry.snapshot();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto run = static_cast<std::uint32_t>(i);
    std::optional<ResponseLog> log;
    if (i % replay_every == 0) log.emplace();
    const std::uint64_t misses_before = misses.value();
    const std::int64_t t0 = now_ns();
    Outcome outcome;
    try {
      outcome = traced_run(specs[i], traced.tracer, run, log ? &*log : nullptr);
    } catch (const std::exception& error) {
      report.note("traced run " + specs[i].label + " threw: " + error.what());
      outcome.ok = false;
    }
    const std::int64_t run_ns = now_ns() - t0;
    phase_ns += run_ns;
    if (host_times != nullptr) host_times->add(run_ns);
    traced.steps += outcome.steps;
    Outcome& expected = reference[i];
    if (!outcome.ok || outcome.steps != expected.steps ||
        outcome.covered != expected.covered) {
      ++mismatches;
      expected.ok = false;
      report.note("traced runner mismatch on " + expected.label + ": " +
                  std::to_string(outcome.steps) + " steps/" +
                  std::to_string(outcome.covered) + " lines vs run_once " +
                  std::to_string(expected.steps) + "/" +
                  std::to_string(expected.covered));
    }
    if (log) {
      // Replays run outside the phase's wall time and record no registry
      // counters, so the counts stay the runs' own.
      replayed_misses += misses.value() - misses_before;
      distinct += log->distinct.size();
      replay(*log, traced.tracer, run);
    }
  }
  traced.after = registry.snapshot();
  traced.phase_s = static_cast<double>(phase_ns) * 1e-9;
  report.note("traced runner reproduced run_once on " +
              std::to_string(specs.size() - mismatches) + " of " +
              std::to_string(specs.size()) + " runs");
  report.note("replayed runs: " + std::to_string(distinct) +
              " distinct responses, " + std::to_string(replayed_misses) +
              " parse-cache misses");
  return traced;
}

void add_page_metrics(const TracedRuns& traced, Report& report) {
  const Tracer& tracer = traced.tracer;
  double step_s = 0.0;
  for (const std::string_view name : kStepSpans) {
    step_s += sum_of(tracer.durations_us(name)) * 1e-6;
  }
  // Handle time inside steps (the seed load in core.start is excluded).
  double handle_in_steps_s = 0.0;
  const auto& spans = tracer.spans();
  for (const auto& span : spans) {
    if (span.parent == Tracer::kNone || tracer.name_of(span) != "webapp.handle") {
      continue;
    }
    const std::string& parent = tracer.name_of(spans[span.parent]);
    for (const std::string_view name : kStepSpans) {
      if (parent == name) {
        handle_in_steps_s +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
  }
  const std::vector<double> build_us = tracer.durations_us("core.build_page");
  const double mean_build_s =
      ratio(sum_of(build_us), static_cast<double>(build_us.size())) * 1e-6;
  const double misses = static_cast<double>(counter_delta(
      traced.before, traced.after, metric::kBrowserParseCacheMisses));

  report.add_percentile("webapp.handle_us_p50",
                        tracer.durations_us("webapp.handle"), 50, "us");
  report.add("webapp.handle_share", ratio(handle_in_steps_s, step_s), "ratio");
  report.add_percentile("html.parse_us_p50", tracer.durations_us("html.parse"),
                        50, "us");
  report.add_percentile("html.extract_us_p50",
                        tracer.durations_us("html.extract"), 50, "us");
  report.add_percentile("core.build_page_us_p50", build_us, 50, "us");
  report.add("core.build_page_share", ratio(misses * mean_build_s, step_s),
             "ratio");
}

}  // namespace e2e
