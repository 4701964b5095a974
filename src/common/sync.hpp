// Annotated concurrency primitives — the only way Janus code is allowed to
// lock anything (tools/check_sync_usage.sh rejects raw std::mutex & friends
// everywhere outside this file).
//
// Two independent safety nets ride on these wrappers:
//
//  1. Compile time: Clang thread-safety capability attributes. Every guarded
//     field is annotated JANUS_GUARDED_BY(mu), every lock-requiring method
//     JANUS_REQUIRES(mu); the JANUS_ANALYZE=ON CMake config builds the tree
//     with -Werror=thread-safety, so a field written outside its mutex is a
//     build break, not a latent race. On non-Clang compilers the macros
//     expand to nothing.
//
//  2. Debug runtime: a lock-rank deadlock detector. Every janus::Mutex /
//     janus::SharedMutex carries a LockRank; a thread may only acquire locks
//     of rank >= the highest rank it already holds (equal rank is allowed
//     for *distinct* leaf locks such as table shards, which are never held
//     pairwise). Acquiring out of order, or re-acquiring a held lock,
//     aborts with both lock names and the held-rank stack. Release builds
//     (NDEBUG) compile the wrappers down to the plain std:: primitives —
//     bench_micro_hotpath pins the overhead at zero.
//
// The global rank order is documented in DESIGN.md §8 ("Concurrency model");
// keep the LockRank enum and that table in lock-step.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere). Names follow the
// capability vocabulary from the Clang docs with a JANUS_ prefix.
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#define JANUS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define JANUS_THREAD_ANNOTATION(x)
#endif

#define JANUS_CAPABILITY(x) JANUS_THREAD_ANNOTATION(capability(x))
#define JANUS_SCOPED_CAPABILITY JANUS_THREAD_ANNOTATION(scoped_lockable)
#define JANUS_GUARDED_BY(x) JANUS_THREAD_ANNOTATION(guarded_by(x))
#define JANUS_PT_GUARDED_BY(x) JANUS_THREAD_ANNOTATION(pt_guarded_by(x))
#define JANUS_ACQUIRED_BEFORE(...) \
  JANUS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define JANUS_ACQUIRED_AFTER(...) \
  JANUS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define JANUS_REQUIRES(...) \
  JANUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define JANUS_REQUIRES_SHARED(...) \
  JANUS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define JANUS_ACQUIRE(...) \
  JANUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define JANUS_ACQUIRE_SHARED(...) \
  JANUS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define JANUS_RELEASE(...) \
  JANUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define JANUS_RELEASE_SHARED(...) \
  JANUS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define JANUS_TRY_ACQUIRE(...) \
  JANUS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define JANUS_EXCLUDES(...) JANUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define JANUS_ASSERT_CAPABILITY(x) \
  JANUS_THREAD_ANNOTATION(assert_capability(x))
#define JANUS_RETURN_CAPABILITY(x) JANUS_THREAD_ANNOTATION(lock_returned(x))
#define JANUS_NO_THREAD_SAFETY_ANALYSIS \
  JANUS_THREAD_ANNOTATION(no_thread_safety_analysis)

// The lock-rank detector runs in debug builds only; release builds must pay
// nothing (bench_micro_hotpath asserts janus::Mutex == std::mutex there).
#ifndef JANUS_SYNC_RANK_CHECKS
#ifdef NDEBUG
#define JANUS_SYNC_RANK_CHECKS 0
#else
#define JANUS_SYNC_RANK_CHECKS 1
#endif
#endif

namespace janus {

/// Global lock acquisition order, ascending: while holding a lock of rank R,
/// a thread may only acquire locks of rank >= R (== only for a *different*
/// lock object — the leaf-shard case). Mirrors the DESIGN.md §8 table.
enum class LockRank : int {
  kDbCommit = 10,         // db::Database::commit_mu_ (outermost: WAL sequence)
  kDbTable = 20,          // db::Table::mu_ (under commit during apply)
  kDbWal = 30,            // db::Wal::mu_ (under commit during append/sync)
  kQosShard = 50,         // core::ShardedQosTable per-shard mu (leaf)
  kClusterCoordinator = 54,  // cluster::ClusterCoordinator::mu_ (may publish
                             // while taking kClusterMap + kDnsBalancer)
  kBfdSession = 56,       // net::BfdSession::mu_ (state only; callbacks and
                          // socket I/O run unlocked)
  kClusterMap = 58,       // cluster::ShardMapHolder::mu_ (snapshot swap only)
  kDnsBalancer = 60,      // lb::DnsBalancer::mu_ (leaf)
  kDnsCache = 65,         // lb::CachingResolver::mu_ (leaf; never nests kDnsBalancer)
  kLbProbePool = 66,      // lb::GatewayBalancer probe-pool mu_ (guards the
                          // probe HTTP clients only; held while a probe RPC
                          // runs, which acquires kQueue inside HttpClient —
                          // hence below kQueue. Never touched by pick())
  kQueue = 70,            // BlockingQueue::mu_ (http, pool, replication)
  kPeriodic = 80,         // PeriodicTask::mu_ (callback runs unlocked)
  kMetricsRegistry = 90,  // MetricsRegistry::mu_
  kFaultPoint = 94,       // testing::FaultInjector per-point mu. Leaf: fault
                          // sites are compiled into arbitrary production code
                          // (WAL append, TCP reads under the coordinator
                          // lock), so this must rank above every lock that
                          // can be held at a fault site — but below
                          // kFlightRecorder, which a firing fault acquires
                          // for the chaos auto-dump
  kMetricsStripe = 95,    // HistogramMetric per-stripe mu (leaf)
  kFlightRecorder = 96,   // FlightRecorder ring registry (registration +
                          // snapshot only; legal from a held fault point)
  kWorkloadReport = 98,   // workload::run_ab per-run report mu (leaf)
  kLogging = 100,         // Logger sink mu (innermost: loggable from anywhere)
};

constexpr bool kSyncRankChecksEnabled = JANUS_SYNC_RANK_CHECKS != 0;

namespace sync_detail {

/// Per-thread stack of held locks. Compiled unconditionally (tests exercise
/// it directly even in release builds); the Mutex wrappers only consult it
/// when JANUS_SYNC_RANK_CHECKS is on.
class RankTracker {
 public:
  static constexpr std::size_t kMaxHeld = 32;

  /// Aborts (with both lock names and the held stack) on a self-deadlock or
  /// a rank inversion; otherwise records the lock as held.
  void on_acquire(const void* lock, int rank, const char* name);

  /// Like on_acquire for try_lock: the self-deadlock check still aborts
  /// (try_lock of an already-held std::mutex is UB), but the acquisition is
  /// only recorded when `acquired` is true.
  void on_try_acquire(const void* lock, int rank, const char* name,
                      bool acquired);

  void on_release(const void* lock) noexcept;

  std::size_t depth() const noexcept { return depth_; }

  /// The calling thread's tracker (thread_local).
  static RankTracker& current() noexcept;

 private:
  struct Held {
    const void* lock;
    int rank;
    const char* name;
  };

  [[noreturn]] void fatal_self_deadlock(int rank, const char* name) const;
  [[noreturn]] void fatal_inversion(int rank, const char* name,
                                    const Held& blocker) const;
  [[noreturn]] void fatal_overflow(const char* name) const;

  Held held_[kMaxHeld];
  std::size_t depth_ = 0;
};

}  // namespace sync_detail

/// std::mutex plus a capability annotation and (debug-only) rank checking.
/// Construct with the lock's rank and a stable diagnostic name.
class JANUS_CAPABILITY("mutex") Mutex {
 public:
#if JANUS_SYNC_RANK_CHECKS
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
#else
  constexpr explicit Mutex(LockRank, const char*) noexcept {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() JANUS_ACQUIRE() {
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_acquire(this, rank_, name_);
#endif
    mu_.lock();
  }

  bool try_lock() JANUS_TRY_ACQUIRE(true) {
#if JANUS_SYNC_RANK_CHECKS
    const bool got = mu_.try_lock();
    sync_detail::RankTracker::current().on_try_acquire(this, rank_, name_, got);
    return got;
#else
    return mu_.try_lock();
#endif
  }

  void unlock() JANUS_RELEASE() {
    mu_.unlock();
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_release(this);
#endif
  }

 private:
  std::mutex mu_;
#if JANUS_SYNC_RANK_CHECKS
  int rank_;
  const char* name_;
#endif
};

/// std::shared_mutex counterpart. Shared (reader) acquisitions obey the same
/// rank order and self-deadlock rule as exclusive ones — recursive
/// lock_shared on one thread can deadlock against a queued writer.
class JANUS_CAPABILITY("shared_mutex") SharedMutex {
 public:
#if JANUS_SYNC_RANK_CHECKS
  explicit SharedMutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
#else
  constexpr explicit SharedMutex(LockRank, const char*) noexcept {}
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() JANUS_ACQUIRE() {
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_acquire(this, rank_, name_);
#endif
    mu_.lock();
  }

  void unlock() JANUS_RELEASE() {
    mu_.unlock();
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_release(this);
#endif
  }

  void lock_shared() JANUS_ACQUIRE_SHARED() {
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_acquire(this, rank_, name_);
#endif
    mu_.lock_shared();
  }

  void unlock_shared() JANUS_RELEASE_SHARED() {
    mu_.unlock_shared();
#if JANUS_SYNC_RANK_CHECKS
    sync_detail::RankTracker::current().on_release(this);
#endif
  }

 private:
  std::shared_mutex mu_;
#if JANUS_SYNC_RANK_CHECKS
  int rank_;
  const char* name_;
#endif
};

/// RAII exclusive guard (the only way production code takes a Mutex).
class JANUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) JANUS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() JANUS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive guard over a SharedMutex (writers).
class JANUS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) JANUS_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() JANUS_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared guard over a SharedMutex (readers).
class JANUS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) JANUS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() JANUS_RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to janus::Mutex. Waits take the Mutex itself
/// (the caller holds it through a MutexLock in the same scope); the internal
/// unlock/relock goes through the instrumented Mutex, so the rank detector
/// stays accurate across waits. Predicate-free by design: callers loop
/// explicitly, which keeps guarded-field access visible to the static
/// analysis (no lambdas escaping the capability context).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mu) JANUS_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          std::chrono::duration<Rep, Period> timeout)
      JANUS_REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  template <typename ClockT, typename DurationT>
  std::cv_status wait_until(
      Mutex& mu, std::chrono::time_point<ClockT, DurationT> deadline)
      JANUS_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace janus
