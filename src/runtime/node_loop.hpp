#pragma once
// NodeLoop: the one real-time node loop. Both real-time hosts (LocalRunner,
// SocketHost) run each node on a NodeLoop: a thread that owns the node, a
// mutex+condvar mailbox of deliveries and posted functors, and a timer
// wheel over the node's own (optionally skewed) clock.
//
//  - on_start / on_message / on_timer and posted functors run strictly
//    serialized on the loop thread (the Host contract);
//  - due timers fire before the next mailbox batch, every iteration:
//    sustained message arrival must not starve the view timers (the
//    Simulation interleaves by timestamp; a flooding peer must not be able
//    to suppress view changes here);
//  - deliver()/post() may be called from any thread; the mailbox mutex
//    publishes the write-once Payload bytes, decode cache and route;
//  - set_timer/cancel_timer are owner-thread only (they run inside the
//    node's handlers), so the wheel needs no lock.
//
// TimerWheel: generation-counted one-shot timers. A TimerId is
// (generation << 32 | slot+1), never 0, over a flat binary min-heap of
// (deadline, id); cancelling bumps the slot's generation, and stale heap
// entries are filtered when popped -- cancel is O(1), expiry is
// O(log timers), and slots recycle through a free list so steady state
// allocates nothing.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/payload.hpp"
#include "common/types.hpp"
#include "runtime/host.hpp"
#include "runtime/time.hpp"

namespace tbft::runtime {

class TimerWheel {
 public:
  TimerId arm(Time at) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{});
    }
    Slot& s = slots_[slot];
    s.armed = true;
    const TimerId id = make_id(slot, s.generation);
    heap_.push_back(Entry{at, id});
    std::push_heap(heap_.begin(), heap_.end(), later);
    return id;
  }

  void cancel(TimerId id) {
    if (id == 0 || !live(id)) return;
    retire(slot_of(id));
  }

  /// Earliest live deadline, kNever when none (pops stale heads).
  [[nodiscard]] Time next_deadline() {
    while (!heap_.empty()) {
      if (live(heap_.front().id)) return heap_.front().at;
      pop_heap_root();  // stale (cancelled) entry
    }
    return kNever;
  }

  /// Pop every timer due at or before `now` into `fired` (live ids only).
  void pop_due(Time now, std::vector<TimerId>& fired) {
    while (!heap_.empty() && heap_.front().at <= now) {
      const TimerId id = heap_.front().id;
      pop_heap_root();
      if (!live(id)) continue;
      retire(slot_of(id));
      fired.push_back(id);
    }
  }

 private:
  struct Slot {
    std::uint32_t generation{0};
    bool armed{false};
  };
  struct Entry {
    Time at{0};
    TimerId id{0};
  };
  /// std::*_heap comparator for a min-heap by deadline.
  static bool later(const Entry& a, const Entry& b) noexcept { return a.at > b.at; }

  static constexpr TimerId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<TimerId>(gen) << 32) | (slot + 1);
  }
  static constexpr std::uint32_t slot_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t gen_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] bool live(TimerId id) const noexcept {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].armed &&
           slots_[slot].generation == gen_of(id);
  }

  /// Disarm `slot` and invalidate its heap entry (filtered on pop).
  void retire(std::uint32_t slot) {
    slots_[slot].armed = false;
    ++slots_[slot].generation;
    free_slots_.push_back(slot);
  }

  void pop_heap_root() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;  // std::*_heap min-heap by `at`
};

class NodeLoop {
 public:
  /// `epoch` is real time 0 of this node's clock (hosts share one epoch
  /// across their nodes so commit timestamps compare).
  explicit NodeLoop(std::chrono::steady_clock::time_point epoch) : epoch_(epoch) {}
  ~NodeLoop() { stop(); }

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  /// Skew this node's clock: everything it observes -- now(), timer expiry
  /// -- runs at `real + offset + drift * real`. Before start() only;
  /// `drift` must be > -1.
  void set_clock_skew(Duration offset, double drift) {
    TBFT_ASSERT_MSG(!started_, "set_clock_skew before start()");
    TBFT_ASSERT_MSG(drift > -1.0, "drift must be > -1");
    skew_offset_ = offset;
    drift_ = drift;
  }

  /// The node's (skewed) clock in microseconds. A clock never reads before
  /// its own boot: a negative offset would otherwise make pre-start state
  /// (mempool holds stamped 0) sit in the node's future and freeze batching
  /// until the skew wears off.
  [[nodiscard]] Time now() const noexcept {
    const Time real = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
    const Time skewed =
        real + skew_offset_ + static_cast<Time>(drift_ * static_cast<double>(real));
    return skewed < 0 ? 0 : skewed;
  }

  /// Owner-thread only (handlers and posted functors run on the loop
  /// thread, the only thread that touches the wheel). Deadlines live in the
  /// node's skewed time domain.
  TimerId set_timer(Duration delay) {
    TBFT_ASSERT(delay >= 0);
    return timers_.arm(now() + delay);
  }
  void cancel_timer(TimerId id) { timers_.cancel(id); }

  /// Queue a message for the node. Any thread; dropped once stopping, like
  /// a closed socket.
  void deliver(NodeId src, Payload payload) { enqueue(Entry{src, std::move(payload), {}}); }

  /// Run `fn` on the loop thread, FIFO with deliveries. Before start() it
  /// runs inline on the caller -- no thread exists yet, which makes
  /// pre-start seeding (mempool pre-loads) trivially safe.
  void post(std::function<void()> fn) {
    if (!started_) {
      fn();
      return;
    }
    enqueue(Entry{0, Payload(), std::move(fn)});
  }

  /// Spawn the loop thread: `node.on_start()`, then drain until stop().
  void start(ProtocolNode& node) {
    TBFT_ASSERT_MSG(!started_, "start() called twice");
    started_ = true;
    thread_ = std::thread([this, &node] { run(node); });
  }

  /// Stop and join the loop thread. Idempotent; pending mailbox entries are
  /// discarded. Afterwards the node is quiescent.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mx_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Entry {
    NodeId src{0};
    Payload payload;             // deliver entry when call is empty
    std::function<void()> call;  // posted functor otherwise
  };

  void enqueue(Entry e) {
    {
      std::lock_guard<std::mutex> lk(mx_);
      if (stopping_) return;
      inbox_.push_back(std::move(e));
    }
    cv_.notify_one();
  }

  /// Inverse of now(): a skewed deadline -> real microseconds since epoch.
  [[nodiscard]] Time to_real(Time local) const noexcept {
    const auto real = static_cast<double>(local - skew_offset_) / (1.0 + drift_);
    return real <= 0 ? 0 : static_cast<Time>(real);
  }

  void run(ProtocolNode& node) {
    node.on_start();
    std::vector<Entry> batch;
    std::vector<TimerId> fired;
    std::unique_lock<std::mutex> lk(mx_);
    while (!stopping_) {
      const Time next = timers_.next_deadline();
      if (next <= now()) {
        fired.clear();
        timers_.pop_due(now(), fired);
        lk.unlock();
        for (const TimerId id : fired) node.on_timer(id);
        lk.lock();
        continue;
      }
      if (!inbox_.empty()) {
        batch.swap(inbox_);
        lk.unlock();
        for (Entry& e : batch) {
          if (e.call) {
            e.call();
          } else {
            node.on_message(e.src, e.payload);
          }
        }
        batch.clear();  // drop payload refs outside the lock
        lk.lock();
        continue;
      }
      const auto woken = [this] { return stopping_ || !inbox_.empty(); };
      if (next == kNever) {
        cv_.wait(lk, woken);
      } else {
        // Sleep in real time: invert the skew so a drifting clock's
        // deadline still wakes at the right steady_clock instant.
        cv_.wait_until(lk, epoch_ + std::chrono::microseconds(to_real(next)), woken);
      }
    }
  }

  std::chrono::steady_clock::time_point epoch_;
  Duration skew_offset_{0};  // written before start() only
  double drift_{0.0};

  std::mutex mx_;
  std::condition_variable cv_;
  std::vector<Entry> inbox_;  // guarded by mx_
  bool stopping_{false};      // guarded by mx_
  TimerWheel timers_;         // loop thread only
  std::thread thread_;
  bool started_{false};
};

}  // namespace tbft::runtime
