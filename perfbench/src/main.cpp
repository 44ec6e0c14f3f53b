// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Runs one workload against the public Broker/ShardedBroker API: a cold
// set-up (bulk subscribe + quiesce), then a timed phase in which one
// closed-loop publisher thread calls publish_batch back to back while one
// paced control thread issues subscribe/unsubscribe, each followed by
// wait_applied(control_generation()). Every delivered notification is
// checked against the reference matcher (checker.h). The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones from a traced run (README.md has the map).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "broker/sharded_broker.h"
#include "checker.h"
#include "obs/metrics.h"
#include "subscription/parser.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Counts matches per event (probe batch, direct engine calls).
class CountingSink final : public ncps::MatchSink {
 public:
  explicit CountingSink(std::size_t events) : per_event(events, 0) {}
  void on_match(std::size_t event_index, const ncps::Event&,
                ncps::SubscriptionId) override {
    ++per_event.at(event_index);
  }
  std::vector<std::uint64_t> per_event;
};

struct PhaseResult {
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t publish_ns = 0;
  std::vector<double> visible_us;
  std::vector<double> call_us;
  std::vector<double> wait_us;

  /// Publish throughput: events over the summed wall time of the
  /// publish_batch calls (the benchmark's own checking between batches is
  /// not counted).
  [[nodiscard]] double events_per_s() const {
    return publish_ns == 0 ? 0
                           : static_cast<double>(events) * 1e9 /
                                 static_cast<double>(publish_ns);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t process_start_ns)
      : w_(w),
        spec_(w.spec()),
        checker_(w.exprs(), history_, spec_.completeness_stride),
        process_start_ns_(process_start_ns) {
    broker_ = ncps::ShardedBroker::create(
        attrs_, ncps::ShardedBrokerConfig{.shard_count = spec_.shards,
                                          .engine = spec_.engine,
                                          .worker_threads = spec_.workers,
                                          .placement = spec_.placement});
    for (std::size_t a = 0; a < w.attribute_count(); ++a) {
      attr_ids_.push_back(attrs_.intern(w.attribute_name(a)));
    }
  }

  /// Cold set-up: subscribers, the initial population in one bulk call per
  /// subscriber, then quiesce. Returns seconds since process start.
  double setup(SpanLog* log) {
    const Scoped span(log, "setup");
    for (std::size_t s = 0; s < spec_.subscribers; ++s) {
      subscriber_ids_.push_back(broker_->register_subscriber(
          [this](const ncps::Notification& n) {
            notices_.push_back(
                {static_cast<std::uint32_t>(n.event - batch_base_),
                 n.subscription.value(), n.subscriber.value()});
          }));
    }
    std::vector<std::vector<std::string>> texts(spec_.subscribers);
    std::vector<std::vector<std::uint32_t>> members(spec_.subscribers);
    for (std::uint32_t i = 0; i < spec_.population; ++i) {
      const std::uint32_t slot = w_.owners()[i];
      const std::uint32_t inst = history_.begin_subscribe(
          i, subscriber_ids_[slot].value());
      texts[slot].push_back(w_.texts()[i]);
      members[slot].push_back(inst);
    }
    for (std::size_t s = 0; s < spec_.subscribers; ++s) {
      if (texts[s].empty()) continue;
      const std::uint64_t t0 = now_ns();
      const std::vector<ncps::SubscriptionId> ids =
          broker_->subscribe_bulk(subscriber_ids_[s], texts[s]);
      const std::uint64_t t1 = now_ns();
      if (log != nullptr) log->add("broker.subscribe_bulk", t0, t1, span.id());
      subscribe_bulk_ns_ += t1 - t0;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        history_.set_id(members[s][k], ids[k].value());
      }
    }
    {
      const Scoped q(log, "broker.quiesce", span.id());
      broker_->quiesce();
    }
    const double setup_s =
        static_cast<double>(now_ns() - process_start_ns_) / 1e9;
    for (std::uint32_t i = 0; i < spec_.population; ++i) {
      history_.mark_fenced(i);
    }
    live_ = spec_.population;
    return setup_s;
  }

  /// One timed phase: closed-loop publisher on this thread, paced control
  /// thread beside it. The publisher keeps going until the control thread
  /// has fenced its last op: on a one-shard broker an op queued behind a
  /// batch is applied only by the next publish_batch (or quiesce), so a
  /// fence wait with no publisher left would never return.
  PhaseResult run_phase(double seconds, SpanLog* pub_log, SpanLog* ctl_log) {
    PhaseResult r;
    const std::uint64_t phase_start = now_ns();
    const auto deadline =
        phase_start + static_cast<std::uint64_t>(seconds * 1e9);
    std::atomic<bool> control_done{false};
    std::thread control([&] {
      control_loop(deadline, ctl_log, r);
      control_done.store(true);
    });

    std::vector<RefEvent> refs;
    std::vector<ncps::Event> events;
    while (!(now_ns() >= deadline && control_done.load())) {
      refs.clear();
      events.clear();
      const std::uint64_t first = next_event_;
      for (std::size_t i = 0; i < spec_.batch_events; ++i) {
        refs.push_back(w_.event(next_event_++));
        events.push_back(to_event(refs.back()));
      }
      notices_.clear();
      batch_base_ = events.data();
      const std::uint64_t start = history_.stamp();
      const std::uint64_t t0 = now_ns();
      const std::size_t returned = broker_->publish_batch(events);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t end = history_.stamp();
      if (pub_log != nullptr) pub_log->add("broker.publish_batch", t0, t1);
      r.publish_ns += t1 - t0;
      r.events += events.size();
      ++r.batches;
      checker_.check_batch(refs, first, notices_, returned, start, end);
    }
    control.join();
    events_published_ += r.events;
    return r;
  }

  /// After the last phase: final barrier, population check, and the
  /// deferred reference comparisons.
  void finish() {
    broker_->quiesce();
    const std::size_t count = broker_->subscription_count();
    if (count != live_) {
      checker_.fail("after quiesce subscription_count() is " +
                    std::to_string(count) + " but the script implies " +
                    std::to_string(live_));
    }
    if (history_.size() != spec_.population + subscribes_done_) {
      checker_.fail("history holds " + std::to_string(history_.size()) +
                    " instances, expected " +
                    std::to_string(spec_.population + subscribes_done_));
    }
    for (std::string& f : control_failures_) checker_.fail(std::move(f));
    checker_.finish([this](std::uint64_t i) { return w_.event(i); });
  }

  /// The traced run's per-layer metrics: parser and probe replays after
  /// the phases, plus what the traced phase and metrics() recorded.
  [[nodiscard]] std::vector<Metric> traced_metrics(
      const PhaseResult& plain, const PhaseResult& traced,
      const ncps::obs::MetricsSnapshot& before,
      const ncps::obs::MetricsSnapshot& after, SpanLog* log);

  ncps::ShardedBroker& broker() { return *broker_; }
  Checker& checker() { return checker_; }
  [[nodiscard]] std::uint64_t attempted() const {
    return events_published_ + ops_done_;
  }
  [[nodiscard]] std::uint64_t failed_ops() const { return failed_ops_; }
  [[nodiscard]] std::uint64_t ops_done() const { return ops_done_; }

 private:
  ncps::Event to_event(const RefEvent& ref) const {
    ncps::Event e;
    for (std::size_t a = 0; a < ref.values.size(); ++a) {
      if (ref.present[a]) e.set(attr_ids_[a], ncps::Value(ref.values[a]));
    }
    return e;
  }

  /// Paced control client: after each op's fence returns it pauses for the
  /// op's scripted think time, then issues the next one, until the phase
  /// deadline. Pausing after the fence (rather than on a fixed timetable)
  /// keeps an op from being issued the instant a one-shard broker's batch
  /// boundary released the previous fence, which would lock ops to batch
  /// starts.
  void control_loop(std::uint64_t deadline, SpanLog* log, PhaseResult& r) {
    const auto& script = w_.script();
    while (script_cursor_ < script.size()) {
      const ControlOp& op = script[script_cursor_];
      const auto pause = static_cast<std::uint64_t>(op.delay_s * 1e9);
      if (now_ns() + pause >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(pause));
      ++script_cursor_;
      const Scoped span(log, op.kind == ControlOp::Kind::Subscribe
                                 ? "control.subscribe"
                                 : "control.unsubscribe");
      std::uint64_t t0 = 0;
      std::uint64_t t1 = 0;
      std::uint32_t inst = 0;
      try {
        if (op.kind == ControlOp::Kind::Subscribe) {
          const ncps::SubscriberId sub = subscriber_ids_.at(op.subscriber);
          inst = history_.begin_subscribe(op.expr, sub.value());
          if (inst != spec_.population + subscribes_done_) {
            control_failures_.push_back("control script out of step");
          }
          t0 = now_ns();
          const ncps::SubscriptionId id =
              broker_->subscribe(sub, w_.texts()[op.expr]);
          t1 = now_ns();
          history_.set_id(inst, id.value());
          ++subscribes_done_;
          ++live_;
        } else {
          inst = op.victim;
          const std::uint32_t id = history_.id_of(inst);
          history_.begin_unsubscribe(inst);
          t0 = now_ns();
          const bool removed = broker_->unsubscribe(ncps::SubscriptionId(id));
          t1 = now_ns();
          if (!removed) {
            ++failed_ops_;
            control_failures_.push_back("unsubscribe of live subscription " +
                                        std::to_string(id) + " returned false");
          }
          --live_;
        }
        broker_->wait_applied(broker_->control_generation());
      } catch (const std::exception& e) {
        ++failed_ops_;
        control_failures_.push_back(std::string("control op threw: ") +
                                    e.what());
        t1 = t1 == 0 ? now_ns() : t1;
      }
      const std::uint64_t t2 = now_ns();
      if (op.kind == ControlOp::Kind::Subscribe) {
        history_.mark_fenced(inst);
      } else {
        history_.mark_unsubscribe_fenced(inst);
      }
      ++ops_done_;
      if (log != nullptr) {
        log->add("control.call", t0, t1, span.id());
        log->add("control.fence_wait", t1, t2, span.id());
      }
      r.visible_us.push_back(static_cast<double>(t2 - t0) / 1e3);
      r.call_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      r.wait_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
  }

  const Workload& w_;
  const WorkloadSpec& spec_;
  ncps::AttributeRegistry attrs_;
  std::unique_ptr<ncps::ShardedBroker> broker_;
  std::vector<ncps::AttributeId> attr_ids_;
  std::vector<ncps::SubscriberId> subscriber_ids_;
  History history_;
  Checker checker_;
  std::uint64_t process_start_ns_;

  // Publisher-thread state (callbacks run inline on the publisher).
  const ncps::Event* batch_base_ = nullptr;
  std::vector<Notice> notices_;
  std::uint64_t next_event_ = 0;
  std::uint64_t events_published_ = 0;

  // Control-thread state; read by the main thread only after join.
  std::size_t script_cursor_ = 0;
  std::uint64_t subscribes_done_ = 0;
  std::uint64_t ops_done_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t live_ = 0;
  std::vector<std::string> control_failures_;

  std::uint64_t subscribe_bulk_ns_ = 0;
};

std::vector<Metric> Bench::traced_metrics(
    const PhaseResult& plain, const PhaseResult& traced,
    const ncps::obs::MetricsSnapshot& before,
    const ncps::obs::MetricsSnapshot& after, SpanLog* log) {
  std::vector<Metric> m;

  // Parser: parse_raw per text of the initial population, on a private
  // registry so the broker's state is untouched.
  double parse_us = 0;
  {
    const Scoped span(log, "parser.parse_raw(population)");
    ncps::AttributeRegistry scratch;
    const std::uint64_t t0 = now_ns();
    std::size_t nodes = 0;
    for (std::size_t i = 0; i < spec_.population; ++i) {
      nodes += ncps::parse_raw(w_.texts()[i], scratch)->children.size();
    }
    const std::uint64_t t1 = now_ns();
    parse_us = static_cast<double>(t1 - t0) / 1e3 /
               static_cast<double>(spec_.population);
    if (nodes == 0) checker_.fail("parser returned empty trees");
  }

  // Probe replay: the same probe events through every shard engine, phase 1
  // alone (PredicateIndex::match_batch) and the whole pipeline
  // (match_range on a make_context() context). Nothing else touches the
  // engines now: the control thread has stopped and the broker is quiesced.
  std::vector<RefEvent> probe_refs;
  std::vector<ncps::Event> probe;
  for (std::size_t i = 0; i < spec_.probe_events; ++i) {
    probe_refs.push_back(w_.probe_event(i));
    probe.push_back(to_event(probe_refs.back()));
  }
  std::uint64_t stab_ns = 0;
  std::uint64_t range_ns = 0;
  std::uint64_t fulfilled = 0;
  ncps::MatchStats stats;
  const std::size_t shards = broker_->shard_count();
  {
    const Scoped span(log, "probe.replay");
    std::vector<ncps::PredicateId> flat;
    std::vector<std::uint32_t> offsets;
    for (std::size_t s = 0; s < shards; ++s) {
      ncps::FilterEngine& engine = broker_->shard_engine(s);
      const std::unique_ptr<ncps::MatchContext> ctx = engine.make_context();
      // The first pass warms caches and the context's scratch; the second
      // is measured.
      for (const bool measured : {false, true}) {
        ctx->stats.reset();
        for (std::size_t first = 0; first < probe.size();
             first += spec_.batch_events) {
          const std::size_t n =
              std::min(spec_.batch_events, probe.size() - first);
          const std::span<const ncps::Event> chunk(probe.data() + first, n);
          flat.clear();
          offsets.clear();
          const std::uint64_t t0 = now_ns();
          engine.predicate_index().match_batch(
              chunk, engine.predicate_table(), flat, offsets);
          const std::uint64_t t1 = now_ns();
          CountingSink sink(n);
          engine.match_range(chunk, 0, n, sink, *ctx);
          const std::uint64_t t2 = now_ns();
          if (!measured) continue;
          if (log != nullptr) {
            log->add("index.match_batch", t0, t1, span.id());
            log->add("engine.match_range", t1, t2, span.id());
          }
          stab_ns += t1 - t0;
          range_ns += t2 - t1;
          fulfilled += flat.size();
        }
      }
      stats.accumulate(ctx->stats);
    }
  }

  // Probe batch: delivered notifications, direct engine matches and the
  // reference must agree per event.
  {
    const Scoped span(log, "probe.batch");
    const std::size_t n = std::min(spec_.batch_events, probe.size());
    const std::span<const ncps::Event> chunk(probe.data(), n);
    notices_.clear();
    batch_base_ = chunk.data();
    const std::size_t returned = broker_->publish_batch(chunk);
    events_published_ += n;
    std::vector<std::uint64_t> delivered(n, 0);
    for (const Notice& note : notices_) ++delivered.at(note.event);
    std::vector<std::uint64_t> direct(n, 0);
    for (std::size_t s = 0; s < shards; ++s) {
      ncps::FilterEngine& engine = broker_->shard_engine(s);
      const std::unique_ptr<ncps::MatchContext> ctx = engine.make_context();
      CountingSink sink(n);
      engine.match_range(chunk, 0, n, sink, *ctx);
      for (std::size_t e = 0; e < n; ++e) direct[e] += sink.per_event[e];
    }
    std::vector<std::uint64_t> reference(n, 0);
    for (const History::Instance& inst : history_.live()) {
      for (std::size_t e = 0; e < n; ++e) {
        if (matches(w_.exprs()[inst.expr], probe_refs[e])) ++reference[e];
      }
    }
    if (returned != notices_.size()) {
      checker_.fail("probe batch: publish_batch returned " +
                    std::to_string(returned) + " but " +
                    std::to_string(notices_.size()) + " callbacks ran");
    }
    for (std::size_t e = 0; e < n; ++e) {
      if (delivered[e] != direct[e] || direct[e] != reference[e]) {
        checker_.fail("probe batch event " + std::to_string(e) +
                      ": delivered " + std::to_string(delivered[e]) +
                      ", shard match_range " + std::to_string(direct[e]) +
                      ", reference " + std::to_string(reference[e]));
      }
    }
  }

  const double events = static_cast<double>(probe.size());
  const double workers =
      after.gauge_value("ncps_pool_workers", {}).value_or(1.0);
  const double publish_ns = static_cast<double>(traced.publish_ns) /
                            static_cast<double>(traced.events);
  const double stab = static_cast<double>(stab_ns) / events;
  const double range = static_cast<double>(range_ns) / events;
  const auto per_event = [&](std::uint64_t v) {
    return static_cast<double>(v) / events;
  };
  const auto per_batch = [&](std::string_view counter) {
    return static_cast<double>(after.counter_total(counter) -
                               before.counter_total(counter)) /
           static_cast<double>(std::max<std::uint64_t>(1, traced.batches));
  };
  const ncps::obs::HistogramData apply =
      after.histogram_merged("ncps_control_apply_latency_seconds");

  double index_bytes = 0;
  double phase2_bytes = 0;
  const ncps::MemoryBreakdown mem = broker_->memory();
  for (const auto& [name, bytes] : mem.components()) {
    if (name.find("engine/index/") != std::string::npos) {
      index_bytes += static_cast<double>(bytes);
    } else if (name.find("engine/") != std::string::npos &&
               name.find("engine/scratch/") == std::string::npos) {
      phase2_bytes += static_cast<double>(bytes);
    }
  }

  const auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  add("parser.parse_us_per_sub", parse_us, "us");
  add("index.stab_ns_per_event", stab, "ns");
  add("index.fulfilled_per_event", per_event(fulfilled), "count");
  add("engine.phase2_ns_per_event", range - stab, "ns");
  add("engine.candidates_per_event", per_event(stats.candidates), "count");
  add("engine.node_evaluations_per_event", per_event(stats.node_evaluations),
      "count");
  add("engine.hit_increments_per_event", per_event(stats.hit_increments),
      "count");
  add("engine.matches_per_event", per_event(stats.matches), "count");
  add("engine.match_yield",
      stats.candidates == 0 ? 0.0
                            : static_cast<double>(stats.matches) /
                                  static_cast<double>(stats.candidates),
      "ratio");
  add("broker.publish_ns_per_event", publish_ns, "ns");
  add("broker.self_ns_per_event", publish_ns - range / workers, "ns");
  add("broker.subscribe_bulk_s", static_cast<double>(subscribe_bulk_ns_) / 1e9,
      "s");
  add("scheduler.tasks_per_batch", per_batch("ncps_match_tasks_total"),
      "count");
  add("scheduler.steals_per_batch", per_batch("ncps_steals_total"), "count");
  add("scheduler.match_cpu_share", range / (publish_ns * workers), "ratio");
  add("control.call_us_p50", quantile(traced.call_us, 0.5), "us");
  add("control.visible_us_p95", quantile(traced.visible_us, 0.95), "us");
  add("control.fence_wait_us_p50", quantile(traced.wait_us, 0.5), "us");
  add("control.apply_p50_us",
      apply.empty() ? 0.0 : apply.quantile_ns(0.5) / 1e3, "us");
  add("memory.index_bytes", index_bytes, "bytes");
  add("memory.phase2_bytes", phase2_bytes, "bytes");
  add("memory.total_bytes", static_cast<double>(mem.total()), "bytes");
  add("trace.overhead_ratio", traced.events_per_s() / plain.events_per_s(),
      "ratio");
  return m;
}

void print_result(const Bench& bench, bool correct,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed_ops()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args, std::uint64_t process_start) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& s : all_workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(s.name.size()),
                   s.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Workload workload(*spec, args.seed);
  Bench bench(workload, process_start);

  Tracer tracer;
  SpanLog* main_log = args.trace ? &tracer.thread_log(1) : nullptr;
  SpanLog* control_log = args.trace ? &tracer.thread_log(2) : nullptr;

  const double setup_s = bench.setup(main_log);
  workload.generate_script(args.seconds);
  std::vector<Metric> metrics;
  PhaseResult timed;
  if (!args.trace) {
    timed = bench.run_phase(args.seconds, nullptr, nullptr);
    bench.finish();
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"events_per_s", timed.events_per_s(), "events/s"});
    metrics.push_back({"control_visible_p50_us",
                       quantile(timed.visible_us, 0.5), "us"});
    // The 95th percentile is not gated: on the one-shard workloads it
    // follows the host's slow phases 1.5-1.7 times as far as the median
    // does (README.md, Noise). The traced run reports it.
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    if (timed.visible_us.size() < 200) {
      bench.checker().fail("only " + std::to_string(timed.visible_us.size()) +
                           " fenced control ops; a run needs at least 200");
    }
  } else {
    // Half untraced, half traced: their throughput ratio is the tracing
    // overhead, and the per-layer figures come from the traced half.
    const PhaseResult plain =
        bench.run_phase(args.seconds / 2, nullptr, nullptr);
    const ncps::obs::MetricsSnapshot before = bench.broker().metrics();
    timed = bench.run_phase(args.seconds / 2, main_log, control_log);
    const ncps::obs::MetricsSnapshot after = bench.broker().metrics();
    bench.finish();
    metrics = bench.traced_metrics(plain, timed, before, after, main_log);
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      bench.checker().fail("could not write trace file " + args.trace_out);
    }
  }

  const Checker& checker = bench.checker();
  const Checker::Stats& st = checker.stats();
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %llu batches, %llu notifications, "
               "%llu control ops, %llu pairs checked, %llu in flux, %llu "
               "events compared in full, %llu reference evaluations\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(st.batches),
               static_cast<unsigned long long>(st.notices),
               static_cast<unsigned long long>(bench.ops_done()),
               static_cast<unsigned long long>(st.pairs_checked),
               static_cast<unsigned long long>(st.in_flux),
               static_cast<unsigned long long>(st.events_compared),
               static_cast<unsigned long long>(st.reference_evaluations));
  for (const std::string& f : checker.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (checker.failure_count() > checker.failures().size()) {
    std::fprintf(stderr, "... %zu failures in all\n", checker.failure_count());
  }
  const bool correct = checker.ok();
  print_result(bench, correct, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t process_start = perfbench::now_ns();
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file.json>]\n");
    return 2;
  }
  return perfbench::run(*args, process_start);
}
