#include "checker.h"

#include <algorithm>
#include <thread>

#include "rng.h"

namespace perfbench {

namespace {
constexpr std::size_t kMaxReportedFailures = 20;
/// Threads for the completeness comparison after the run.
constexpr std::size_t kMaxCheckThreads = 4;
}  // namespace

std::uint32_t History::begin_subscribe(std::uint32_t expr,
                                       std::uint32_t subscriber) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instance inst;
  inst.expr = expr;
  inst.subscriber = subscriber;
  inst.call = stamp();
  instances_.push_back(inst);
  return static_cast<std::uint32_t>(instances_.size() - 1);
}

void History::set_id(std::uint32_t instance, std::uint32_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  instances_.at(instance).id = id;
  if (id >= by_id_.size()) by_id_.resize(id + 1);
  by_id_[id].push_back(instance);
}

void History::mark_fenced(std::uint32_t instance) {
  const std::lock_guard<std::mutex> lock(mutex_);
  instances_.at(instance).fenced = stamp();
}

void History::begin_unsubscribe(std::uint32_t instance) {
  const std::lock_guard<std::mutex> lock(mutex_);
  instances_.at(instance).unsub_call = stamp();
}

void History::mark_unsubscribe_fenced(std::uint32_t instance) {
  const std::lock_guard<std::mutex> lock(mutex_);
  instances_.at(instance).unsub_fenced = stamp();
}

std::uint32_t History::id_of(std::uint32_t instance) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return instances_.at(instance).id;
}

std::size_t History::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return instances_.size();
}

std::vector<History::Instance> History::live() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Instance> out;
  for (const Instance& inst : instances_) {
    if (inst.id != kNoId && inst.unsub_call == kNever) out.push_back(inst);
  }
  return out;
}

Checker::Checker(const std::vector<RefExpr>& exprs, History& history,
                 std::size_t stride)
    : exprs_(&exprs),
      history_(&history),
      stride_(std::max<std::size_t>(1, stride)) {}

void Checker::fail(std::string message) {
  ++failure_count_;
  if (failures_.size() < kMaxReportedFailures) {
    failures_.push_back(std::move(message));
  }
}

void Checker::fold(Digest& d, std::uint32_t id) {
  d.hash = Rng::mix(d.hash + 0x9e3779b97f4a7c15ULL * (id + 1ULL));
  ++d.count;
}

void Checker::check_batch(std::span<const RefEvent> events,
                          std::uint64_t first_event,
                          std::span<const Notice> notices, std::size_t returned,
                          std::uint64_t start, std::uint64_t end) {
  const auto batch_index = static_cast<std::uint32_t>(batches_.size());
  Batch batch;
  batch.start = start;
  batch.end = end;
  batch.first_event = first_event;
  batch.events = static_cast<std::uint32_t>(events.size());
  batch.sampled = batch_index % stride_ == 0;
  batch.digest_offset = static_cast<std::uint32_t>(digests_.size());
  if (batch.sampled) digests_.resize(digests_.size() + events.size());
  batches_.push_back(batch);
  ++stats_.batches;
  stats_.notices += notices.size();

  const std::string where = "batch " + std::to_string(batch_index) + ": ";
  if (returned != notices.size()) {
    fail(where + "publish_batch returned " + std::to_string(returned) +
         " but " + std::to_string(notices.size()) + " callbacks ran");
  }

  const std::lock_guard<std::mutex> lock(history_->mutex_);
  const auto& instances = history_->instances_;
  const auto& by_id = history_->by_id_;
  for (std::size_t i = 0; i < notices.size(); ++i) {
    const Notice& n = notices[i];
    if (n.event >= events.size()) {
      fail(where + "notification for an event outside the batch");
      continue;
    }
    if (i > 0) {
      const Notice& prev = notices[i - 1];
      if (n.event < prev.event ||
          (n.event == prev.event && n.subscription <= prev.subscription)) {
        fail(where + "event " + std::to_string(n.event) +
             ": notifications not in batch order and ascending subscription "
             "id order (" + std::to_string(prev.subscription) + " then " +
             std::to_string(n.subscription) + ")");
      }
    }
    const History::Instance* certain = nullptr;
    if (n.subscription < by_id.size()) {
      for (const std::uint32_t k : by_id[n.subscription]) {
        const History::Instance& inst = instances[k];
        if (inst.fenced < start && inst.unsub_call > end) certain = &inst;
      }
    }
    if (certain == nullptr) {
      in_flux_.push_back({batch_index, n.event, n.subscription, n.subscriber});
      continue;
    }
    if (certain->subscriber != n.subscriber) {
      fail(where + "subscription " + std::to_string(n.subscription) +
           " delivered to subscriber " + std::to_string(n.subscriber) +
           " instead of " + std::to_string(certain->subscriber));
    }
    if (batch.sampled) {
      fold(digests_[batch.digest_offset + n.event], n.subscription);
    } else {
      ++stats_.pairs_checked;
      ++stats_.reference_evaluations;
      if (!matches((*exprs_)[certain->expr], events[n.event])) {
        fail(where + "event " + std::to_string(n.event) +
             ": false notification for subscription " +
             std::to_string(n.subscription));
      }
    }
  }
}

void Checker::finish(const std::function<RefEvent(std::uint64_t)>& event_at) {
  const std::lock_guard<std::mutex> lock(history_->mutex_);
  const auto& instances = history_->instances_;
  const auto& by_id = history_->by_id_;

  // Notifications whose instance was not certainly live: some instance with
  // that id must have been possibly live in the batch, and match.
  stats_.in_flux = in_flux_.size();
  for (const InFlux& f : in_flux_) {
    const Batch& b = batches_[f.batch];
    const std::string where = "batch " + std::to_string(f.batch) + " event " +
                              std::to_string(f.event) + ": subscription " +
                              std::to_string(f.id);
    bool possible = false;
    bool matched = false;
    const RefEvent event = event_at(b.first_event + f.event);
    if (f.id < by_id.size()) {
      for (const std::uint32_t k : by_id[f.id]) {
        const History::Instance& inst = instances[k];
        if (inst.call >= b.end || inst.unsub_fenced <= b.start ||
            inst.subscriber != f.subscriber) {
          continue;
        }
        possible = true;
        ++stats_.reference_evaluations;
        matched = matched || matches((*exprs_)[inst.expr], event);
      }
    }
    if (!possible) {
      fail(where + " notified but not live in the batch (after its "
                   "unsubscribe's fence returned, or never subscribed)");
    } else if (!matched) {
      fail(where + " false notification (reference says no match)");
    }
  }

  // Completeness: on sampled batches, the delivered certainly-live set of
  // every event must equal the reference's, exactly. The sampled batches are
  // split into contiguous ranges, one per worker thread; each worker keeps
  // its own failures and counts, merged afterwards in batch order, so the
  // report is the same as a serial pass. Nothing else runs at this point:
  // the timed phases are over.
  std::vector<std::uint32_t> sampled;
  for (std::size_t bi = 0; bi < batches_.size(); ++bi) {
    if (batches_[bi].sampled) {
      sampled.push_back(static_cast<std::uint32_t>(bi));
    }
  }
  struct Part {
    std::vector<std::string> failures;
    std::size_t failure_count = 0;
    std::uint64_t events_compared = 0;
    std::uint64_t reference_evaluations = 0;
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxCheckThreads);
  const std::size_t parts_n =
      std::min(threads, std::max<std::size_t>(1, sampled.size()));
  std::vector<Part> parts(parts_n);
  const auto compare = [&](std::size_t part) {
    Part& out = parts[part];
    const std::size_t lo = sampled.size() * part / parts_n;
    const std::size_t hi = sampled.size() * (part + 1) / parts_n;
    std::vector<const History::Instance*> certain;
    std::vector<std::uint32_t> ids;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t bi = sampled[k];
      const Batch& b = batches_[bi];
      certain.clear();
      for (const History::Instance& inst : instances) {
        if (inst.id != History::kNoId && inst.fenced < b.start &&
            inst.unsub_call > b.end) {
          certain.push_back(&inst);
        }
      }
      for (std::uint32_t e = 0; e < b.events; ++e) {
        const RefEvent event = event_at(b.first_event + e);
        ids.clear();
        for (const History::Instance* inst : certain) {
          if (matches((*exprs_)[inst->expr], event)) ids.push_back(inst->id);
        }
        out.reference_evaluations += certain.size();
        ++out.events_compared;
        std::sort(ids.begin(), ids.end());
        Digest want;
        for (const std::uint32_t id : ids) fold(want, id);
        const Digest& got = digests_[b.digest_offset + e];
        if (want.hash != got.hash || want.count != got.count) {
          ++out.failure_count;
          if (out.failures.size() >= kMaxReportedFailures) continue;
          const std::string what =
              got.count < want.count
                  ? "missing notification(s)"
                  : (got.count > want.count ? "false notification(s)"
                                            : "wrong notification set");
          out.failures.push_back(
              "batch " + std::to_string(bi) + " event " + std::to_string(e) +
              ": " + what + ": delivered " + std::to_string(got.count) +
              " certainly-live matches, reference has " +
              std::to_string(want.count));
        }
      }
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t part = 1; part < parts_n; ++part) {
    workers.emplace_back(compare, part);
  }
  compare(0);
  for (std::thread& t : workers) t.join();
  for (Part& part : parts) {
    stats_.events_compared += part.events_compared;
    stats_.reference_evaluations += part.reference_evaluations;
    for (std::string& f : part.failures) fail(std::move(f));
    failure_count_ += part.failure_count - part.failures.size();
  }
}

}  // namespace perfbench
