// The benchmark's workloads: subscription populations, event streams and
// paced control scripts, all generated from the run's seed by the
// benchmark's own generator (rng.h). The broker under test receives only
// the subscription texts and the events built from RefEvents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "broker/shard_router.h"
#include "engine/engine_factory.h"
#include "reference.h"
#include "rng.h"

namespace perfbench {

enum class Shape : std::uint8_t {
  /// The paper's §4 subscriptions: an AND of |p|/2 binary ORs over unique
  /// {>, <=, ==} predicates, |p| in {6, 8, 10}; events carry every
  /// attribute, so about a third of the predicates hold.
  Paper,
  /// Small AND-of-OR subscriptions over a small value domain; each event
  /// carries 4 of 64 attributes, so well under 1% of predicates hold.
  Selective,
};

struct WorkloadSpec {
  std::string_view name;
  ncps::EngineKind engine;
  std::size_t shards;
  /// Broker match workers. With one shard, 1 is the seed path that
  /// ncps::Broker runs: no pool, no apply thread, matching on the publisher.
  /// The gated workloads use 3 on the 4-vCPU host: with the publisher, the
  /// control thread and the apply thread beside them, 4 workers left no
  /// core free, and a worker preempted inside a pinned chunk held up every
  /// write gate behind it (control_visible_p95_us tripled and the p50
  /// spread over 10 seeds reached 28%).
  std::size_t workers;
  ncps::ShardPlacement placement;
  Shape shape;
  std::size_t population;   // initial subscriptions, registered in bulk
  std::size_t subscribers;
  double hot_share;         // share owned by subscriber 0 (0 = even spread)
  std::size_t batch_events;
  /// Paced control thread: exponential think time of mean 1/rate between
  /// one op's fence and the next op.
  double control_ops_per_s;
  /// Every n-th batch is compared in full against the reference matcher;
  /// the other batches get every delivered pair checked.
  std::size_t completeness_stride;
  std::size_t probe_events;  // traced run: events replayed per shard
};

[[nodiscard]] std::span<const WorkloadSpec> all_workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct ControlOp {
  enum class Kind : std::uint8_t { Subscribe, Unsubscribe };
  Kind kind = Kind::Subscribe;
  std::uint32_t expr = 0;        // Subscribe: index into exprs()/texts()
  std::uint32_t subscriber = 0;  // Subscribe: subscriber slot
  /// Unsubscribe: the instance to remove. Instances 0..population-1 are the
  /// initial population; the k-th Subscribe of the script creates
  /// instance population + k.
  std::uint32_t victim = 0;
  double delay_s = 0;  // think time after the previous op's fence returned
};

class Workload {
 public:
  /// Generates the initial population.
  Workload(const WorkloadSpec& spec, std::uint64_t seed);

  /// Generate the control script, long enough for `seconds` of run (its
  /// think times alone exceed it). Kept out of the constructor so that
  /// set-up time measures the population and the broker, not the script.
  void generate_script(double seconds);

  [[nodiscard]] const WorkloadSpec& spec() const { return *spec_; }
  [[nodiscard]] std::size_t attribute_count() const { return attributes_; }
  [[nodiscard]] std::string attribute_name(std::size_t attr) const;

  /// Expressions and their texts: the initial population first, then the
  /// fresh expressions the control script subscribes.
  [[nodiscard]] const std::vector<RefExpr>& exprs() const { return exprs_; }
  [[nodiscard]] const std::vector<std::string>& texts() const { return texts_; }
  /// Subscriber slot of each initial-population instance.
  [[nodiscard]] const std::vector<std::uint32_t>& owners() const {
    return owners_;
  }
  [[nodiscard]] const std::vector<ControlOp>& script() const { return script_; }

  /// Event `index` of the published stream: a pure function of
  /// (seed, index), so the verifier can regenerate it.
  [[nodiscard]] RefEvent event(std::uint64_t index) const;
  /// Event `index` of the traced run's probe stream (disjoint from the
  /// published stream).
  [[nodiscard]] RefEvent probe_event(std::uint64_t index) const;

 private:
  RefExpr paper_expr(Rng& rng);
  RefExpr selective_expr(Rng& rng) const;
  std::uint32_t pick_owner(Rng& rng) const;
  RefEvent make_event(std::uint64_t stream, std::uint64_t index) const;
  void add_expr(RefExpr expr);
  RefExpr next_expr(Rng& rng) {
    return spec_->shape == Shape::Paper ? paper_expr(rng) : selective_expr(rng);
  }

  const WorkloadSpec* spec_;
  std::uint64_t seed_;
  std::size_t attributes_;
  std::vector<RefExpr> exprs_;
  std::vector<std::string> texts_;
  std::vector<std::uint32_t> owners_;
  std::vector<ControlOp> script_;
  std::unordered_set<std::uint64_t> used_predicates_;  // Paper: uniqueness
};

/// Subscription text for `expr` in the library's grammar.
[[nodiscard]] std::string to_text(const RefExpr& expr, const Workload& w);

}  // namespace perfbench
