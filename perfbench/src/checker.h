// Correctness oracle for a benchmark run: the history of every subscription
// instance, ordered against every published batch, and the checks that
// compare delivered notifications with the reference matcher.
//
// Ordering comes from one sequentially consistent counter. The publisher
// stamps each batch just before publish_batch is called (start) and just
// after it returns (end); the control thread stamps, under the history
// mutex, the moment it calls subscribe (call), the moment the subscribe's
// wait_applied returns (fenced), the moment it calls unsubscribe
// (unsub_call) and the moment that unsubscribe's wait_applied returns
// (unsub_fenced). For a batch [start, end] an instance is
//   - certainly live when fenced < start and unsub_call > end: the broker
//     must deliver every match of it, and nothing else for its id;
//   - possibly live when call < end and unsub_fenced > start: a
//     notification for it is allowed if the reference says it matches;
//   - otherwise dead: a notification for it is a fault (it arrived after
//     the unsubscribe's fence returned, or before the subscribe was called).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

/// One delivered notification, as recorded by the subscriber callback.
struct Notice {
  std::uint32_t event = 0;         // index within the batch
  std::uint32_t subscription = 0;  // broker SubscriptionId value
  std::uint32_t subscriber = 0;    // broker SubscriberId value
};

class History {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

  struct Instance {
    std::uint32_t expr = 0;
    std::uint32_t subscriber = 0;  // broker SubscriberId value
    std::uint32_t id = kNoId;      // broker SubscriptionId value once known
    std::uint64_t call = 0;
    std::uint64_t fenced = kNever;
    std::uint64_t unsub_call = kNever;
    std::uint64_t unsub_fenced = kNever;
  };

  /// Next stamp of the total order (publisher side, no lock).
  std::uint64_t stamp() { return seq_.fetch_add(1) + 1; }

  /// Control side. Each call takes the mutex and stamps inside it, so a
  /// publisher that stamps later and then locks sees the record.
  std::uint32_t begin_subscribe(std::uint32_t expr, std::uint32_t subscriber);
  void set_id(std::uint32_t instance, std::uint32_t id);
  void mark_fenced(std::uint32_t instance);
  void begin_unsubscribe(std::uint32_t instance);
  void mark_unsubscribe_fenced(std::uint32_t instance);

  [[nodiscard]] std::uint32_t id_of(std::uint32_t instance) const;
  [[nodiscard]] std::size_t size() const;

  /// Instances live after the run (subscribed and never unsubscribed).
  [[nodiscard]] std::vector<Instance> live() const;

 private:
  friend class Checker;

  mutable std::mutex mutex_;
  std::vector<Instance> instances_;
  /// Subscription id -> its instances, oldest first (ids are reused).
  std::vector<std::vector<std::uint32_t>> by_id_;
  std::atomic<std::uint64_t> seq_{0};
};

class Checker {
 public:
  /// `stride`: every stride-th batch is compared in full with the reference
  /// (completeness); the others have each delivered pair checked.
  Checker(const std::vector<RefExpr>& exprs, History& history,
          std::size_t stride);

  /// Call after publish_batch returned `returned` for `events`, whose first
  /// event has global index `first_event`. `notices` are the callbacks in
  /// delivery order.
  void check_batch(std::span<const RefEvent> events, std::uint64_t first_event,
                   std::span<const Notice> notices, std::size_t returned,
                   std::uint64_t start, std::uint64_t end);

  /// Call once every thread has stopped: resolves the notifications whose
  /// instance was in flux during their batch, and runs the completeness
  /// comparison. `event_at` regenerates a published event by global index.
  void finish(const std::function<RefEvent(std::uint64_t)>& event_at);

  /// Record a failure found outside the batch checks.
  void fail(std::string message);

  [[nodiscard]] bool ok() const { return failure_count_ == 0; }
  [[nodiscard]] std::size_t failure_count() const { return failure_count_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t notices = 0;
    std::uint64_t pairs_checked = 0;     // certainly-live pairs, one by one
    std::uint64_t in_flux = 0;           // resolved in finish()
    std::uint64_t events_compared = 0;   // full completeness comparisons
    std::uint64_t reference_evaluations = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Batch {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t first_event = 0;
    std::uint32_t events = 0;
    std::uint32_t digest_offset = 0;  // into digests_, sampled batches only
    bool sampled = false;
  };
  struct Digest {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;
  };
  struct InFlux {
    std::uint32_t batch = 0;
    std::uint32_t event = 0;  // index within the batch
    std::uint32_t id = 0;
    std::uint32_t subscriber = 0;
  };

  static void fold(Digest& d, std::uint32_t id);

  const std::vector<RefExpr>* exprs_;
  History* history_;
  std::size_t stride_;
  std::vector<Batch> batches_;
  std::vector<Digest> digests_;
  std::vector<InFlux> in_flux_;
  std::vector<std::string> failures_;
  std::size_t failure_count_ = 0;
  Stats stats_;
};

}  // namespace perfbench
