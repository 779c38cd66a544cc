#ifndef SQUERY_COMMON_MUTEX_H_
#define SQUERY_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace sq {

/// Fixed lock ranks, one per subsystem mutex (lower rank = outer lock).
///
/// A thread may only acquire a ranked mutex whose rank is >= every rank it
/// already holds; the runtime validator in sq::Mutex aborts on violations
/// (see Mutex::SetRankCheckingEnabled). Equal ranks may nest — partition
/// promotion locks a backup and a primary of the same subsystem in a fixed
/// backup-then-primary order — so equal-rank ABBA cycles are the one shape
/// the validator cannot see (TSan covers those).
///
/// The table mirrors the engine's call graph, outermost first:
///   job.checkpoint   held across the whole 2PC, including listener
///                    callbacks into storage and the snapshot registry
///   storage.files    the snapshot log's segment files: shared by
///                    time-travel reads, exclusive for compaction
///   storage.log      the durable snapshot log; takes histogram locks
///   storage.compact  compactor handoff queue
///   state.registry   snapshot registry; pruning descends into the grid
///   state.prune      pruner handoff queue
///   kv.grid          table registry; node failure descends into partitions
///   kv.partition     map stripes + snapshot-table partitions (leaf of the
///                    data plane)
///   sql.catalog      virtual-table registry (never held across scans)
///   query.stats      QueryService last-stats publication
///   metrics.registry metric lookup; Collect() takes histogram locks
///   pool.batch       ThreadPool batch completion
///   queue            BlockingQueue channels
///   histogram        leaf instrumentation
///   trace.registry   trace ring-buffer registry; draining takes ring locks
///   trace.ring       per-thread span ring consumer lock; spills to journal
///   trace.journal    bounded global span journal (leaf of the trace plane —
///                    any subsystem may record a span while holding its own
///                    locks, so these rank below every data-plane lock)
///   logging          log-line emission (leaf; everything may log)
///   leaf             generic leaves (test collectors etc.)
namespace lockrank {
inline constexpr int kUnranked = -1;  ///< Exempt from rank checking.
inline constexpr int kJobCheckpoint = 100;
/// Net layer: the server's connection registry and the client's per-peer
/// connection locks are held across socket I/O that may descend into any
/// storage/state/kv read path on the serving side, so they rank outermost
/// after the checkpoint coordinator.
inline constexpr int kNetServer = 150;
inline constexpr int kNetClient = 160;
inline constexpr int kStorageFiles = 190;
inline constexpr int kStorageLog = 200;
inline constexpr int kStorageCompact = 210;
inline constexpr int kStateRegistry = 300;
inline constexpr int kStatePrune = 310;
inline constexpr int kKvGrid = 400;
inline constexpr int kKvPartition = 500;
inline constexpr int kSqlCatalog = 600;
inline constexpr int kQueryStats = 610;
inline constexpr int kMetricsRegistry = 700;
inline constexpr int kThreadPoolBatch = 710;
inline constexpr int kQueue = 720;
inline constexpr int kHistogram = 730;
inline constexpr int kTraceRegistry = 740;
inline constexpr int kTraceRing = 745;
inline constexpr int kTraceJournal = 750;
inline constexpr int kLogging = 800;
inline constexpr int kLeaf = 900;
}  // namespace lockrank

namespace internal_rank {
/// Validates rank order against this thread's held-lock stack, then records
/// the acquisition. Aborts (with both stacks printed) on inversion.
void CheckAcquire(const void* mu, int rank, const char* name);
/// Records an acquisition without the ordering check (try-locks cannot
/// deadlock, but later acquisitions must still see them on the stack).
void RecordAcquire(const void* mu, int rank, const char* name);
/// Pops the newest stack entry for `mu` (missing entries are ignored so
/// checking can be toggled mid-run).
void RecordRelease(const void* mu);
}  // namespace internal_rank

/// std::mutex with Clang Thread Safety Analysis annotations and an optional
/// runtime lock-rank validator (deadlock-ordering detection the static
/// analysis cannot do). Construct with a lockrank:: constant; default
/// construction opts out of rank checking.
class SQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank, const char* name = nullptr)
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SQ_ACQUIRE() {
    internal_rank::CheckAcquire(this, rank_, name_);
    mu_.lock();
  }
  bool TryLock() SQ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    internal_rank::RecordAcquire(this, rank_, name_);
    return true;
  }
  void Unlock() SQ_RELEASE() {
    internal_rank::RecordRelease(this);
    mu_.unlock();
  }

  int rank() const { return rank_; }

  /// Tells the static analysis that this thread holds the mutex, where it
  /// cannot follow the acquisition (locks taken in a loop and held in a
  /// container). Checks nothing at run time.
  void AssertHeld() const SQ_ASSERT_CAPABILITY(this) {}

  /// Toggles the per-thread lock-rank validator. The validator is compiled
  /// into every build (so RelWithDebInfo test binaries can enable it) but
  /// defaults on only when NDEBUG is not defined; the SQ_LOCK_RANK_CHECKS
  /// environment variable (0/1) overrides the default.
  static void SetRankCheckingEnabled(bool enabled);
  static bool RankCheckingEnabled();

 private:
  friend class CondVar;
  std::mutex mu_;
  const int rank_ = lockrank::kUnranked;
  const char* const name_ = nullptr;
};

/// std::shared_mutex counterpart. Reader (shared) acquisitions participate
/// in rank checking too: a reader blocking behind a writer extends the same
/// deadlock cycles exclusive locks do.
class SQ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank, const char* name = nullptr)
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SQ_ACQUIRE() {
    internal_rank::CheckAcquire(this, rank_, name_);
    mu_.lock();
  }
  void Unlock() SQ_RELEASE() {
    internal_rank::RecordRelease(this);
    mu_.unlock();
  }
  void LockShared() SQ_ACQUIRE_SHARED() {
    internal_rank::CheckAcquire(this, rank_, name_);
    mu_.lock_shared();
  }
  void UnlockShared() SQ_RELEASE_SHARED() {
    internal_rank::RecordRelease(this);
    mu_.unlock_shared();
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const int rank_ = lockrank::kUnranked;
  const char* const name_ = nullptr;
};

/// Condition variable over sq::Mutex. There is deliberately no
/// predicate-lambda Wait overload: Clang's analysis does not propagate lock
/// state into lambda bodies, so guarded predicates must be spelled as
/// explicit loops —
///     while (!condition) cv.Wait(mu);
/// — with `condition` inline or in an SQ_REQUIRES-annotated helper.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// `mu` stays on the rank stack for the duration: the thread acquires
  /// nothing while blocked, and it holds `mu` again on wake.
  void Wait(Mutex& mu) SQ_REQUIRES(mu);

  /// Returns true if `deadline` passed without a notification.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      SQ_REQUIRES(mu);

  /// Returns true if `timeout` elapsed without a notification.
  bool WaitFor(Mutex& mu, std::chrono::nanoseconds timeout) SQ_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// RAII exclusive lock with an optional early Unlock() (after which the
/// destructor does nothing) for release-before-slow-work paths.
class SQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SQ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() SQ_RELEASE() {
    mu_->Unlock();
    mu_ = nullptr;
  }

  ~MutexLock() SQ_RELEASE() {
    if (mu_ != nullptr) mu_->Unlock();
  }

 private:
  Mutex* mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class SQ_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) SQ_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() SQ_RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SQ_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) SQ_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() SQ_RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* const mu_;
};

}  // namespace sq

#endif  // SQUERY_COMMON_MUTEX_H_
