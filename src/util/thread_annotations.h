// Clang -Wthread-safety annotations and a CAPABILITY-annotated mutex shim.
//
// The runtime's lock discipline (which field is guarded by which mutex,
// which helper requires which lock held, which callback must run lock-free)
// used to live in comments; these macros let Clang's thread-safety analysis
// machine-check it on every build path. Under any other compiler (the tree
// builds with gcc day to day) every macro expands to nothing and the shim
// classes compile down to the std::mutex code they wrap — zero overhead,
// identical semantics.
//
// Usage conventions in this tree:
//   * shared fields:            int64_t used_ GUARDED_BY(mu_);
//   * helpers needing the lock: void EvictLocked() REQUIRES(mu_);
//   * public entry points:      void Flush() EXCLUDES(mu_);
//   * scoped locking:           MutexLock lock(&mu_);           (lock_guard)
//                               UniqueMutexLock lock(&mu_);     (unique_lock)
//                               cv_.Wait(lock);                 (condvar)
//   * documented escapes:       NO_THREAD_SAFETY_ANALYSIS with a comment
//     stating the external invariant the analysis cannot see (e.g. "runs on
//     the single consumer thread after all workers joined").
#ifndef RIOTSHARE_UTIL_THREAD_ANNOTATIONS_H_
#define RIOTSHARE_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define RIOT_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define RIOT_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op off clang
#endif

#define CAPABILITY(x) RIOT_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define SCOPED_CAPABILITY RIOT_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define GUARDED_BY(x) RIOT_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define PT_GUARDED_BY(x) RIOT_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define RETURN_CAPABILITY(x) RIOT_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  RIOT_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace riot {

class CondVar;

/// \brief std::mutex with the capability annotation the analysis tracks.
/// Drop-in for the runtime's internal mutexes.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  /// Tells the analysis the caller holds this mutex (a callback run inside
  /// a locked call); checks nothing at run time.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class MutexLock;
  friend class UniqueMutexLock;
  std::mutex mu_;
};

/// \brief Scoped lock_guard over a riot::Mutex. Never unlocks early.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_->mu_.unlock(); }

 private:
  Mutex* const mu_;
};

/// \brief Scoped unique_lock over a riot::Mutex: relockable (the analysis
/// tracks Lock/Unlock pairs on the scoped object) and waitable via CondVar.
class SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(Mutex* mu) ACQUIRE(mu) : lock_(mu->mu_) {}
  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;
  /// unique_lock's destructor releases only if currently held, which is
  /// exactly the scoped-capability contract at end of scope.
  ~UniqueMutexLock() RELEASE() = default;

  void Lock() ACQUIRE() { lock_.lock(); }
  void Unlock() RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// \brief Condition variable waitable on a UniqueMutexLock. Wait is
/// deliberately unannotated: the capability is treated as held across the
/// wait (std::condition_variable re-acquires before returning), matching
/// how the analysis models cv waits. Predicate waits are spelled as
/// explicit `while (!cond) cv.Wait(lock);` loops at the call sites so the
/// predicate's guarded reads stay inside the annotated function body
/// (a lambda handed to std::condition_variable::wait would be analyzed as
/// an unannotated function and flagged).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(UniqueMutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace riot

#endif  // RIOTSHARE_UTIL_THREAD_ANNOTATIONS_H_
